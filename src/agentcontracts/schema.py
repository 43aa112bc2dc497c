"""The one rule that reads the mappings of every input document.

A reader is ``read(doc, value, path)``.  :func:`fields` reads a mapping
through a table of key readers: an unknown key, a missing required key and
a value its reader refuses are errors, and only the keys present come back,
so every default stays with the record built from them.  The document makes
the errors, ``doc.error(path, message, field)`` and ``doc.unknown_key(path,
key, what)``: the parser's YAML document makes spanned SchemaErrors, and a
:class:`JsonDoc` FormatErrors ``"<file>: <key path>: <message>"``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from typing import Any, Callable, Optional

from .errors import FormatError


def key_path(path: tuple) -> str:
    """``path`` as messages write it: ``trace.actions[1].label``."""
    return ".".join(f"[{p}]" if type(p) is int else str(p) for p in path).replace(".[", "[")


class JsonDoc:
    """A JSON document from the file ``name`` (None: a Python API value)."""

    def __init__(self, name: Optional[str] = None):
        self.name = name

    def error(self, path: tuple, message: str, field: Any = None) -> FormatError:
        return FormatError(": ".join(filter(None, (self.name, key_path(path), message))))

    def unknown_key(self, path: tuple, key: Any, what: str) -> FormatError:
        return self.error(path + (key,), "unknown key")


def read_text(path: str) -> str:
    """The UTF-8 text of a file; a FormatError names a file that does not decode."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8: {exc}") from None


def read_json(path: str, reader: Callable, text: Optional[str] = None) -> Any:
    """``reader``'s value of the JSON file at ``path`` (or of its ``text``)."""
    try:
        value = json.loads(read_text(path) if text is None else text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from None
    return reader(JsonDoc(path), value, ())


def type_name(v: Any) -> str:
    return {dict: "mapping", list: "sequence", str: "string", bool: "boolean",
            int: "number", float: "number", type(None): "null"}.get(type(v), type(v).__name__)


def expect_mapping(doc, value: Any, path: tuple, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise doc.error(path, f"{what} must be a mapping, got {type_name(value)}",
                        ".".join(map(str, path)) or what)
    return value


def fields(doc, raw: Any, path: tuple, what: str, readers: Mapping,
           required: tuple = ()) -> dict:
    """The keys of the ``what`` mapping ``raw`` at ``path``, each value read
    once by its key's reader."""
    given = expect_mapping(doc, raw, path, what)
    for key in given:
        if key not in readers:
            raise doc.unknown_key(path, key, what)
    for key in required:
        if key not in given:
            raise doc.error(path, f"missing required field {key!r}", key)
    return {key: readers[key](doc, v, path + (key,)) for key, v in given.items()}


def mapping(what: str, readers: Mapping, required: tuple = (), build: Callable = dict) -> Callable:
    """Reader of a ``what`` mapping built from its keys (null, if none is
    required, from none); a ValueError of ``build`` is an error at it."""
    def read(doc, raw: Any, path: tuple) -> Any:
        args = {} if raw is None and not required else \
            fields(doc, raw, path, what, readers, required)
        try:
            return build(**args)
        except ValueError as exc:
            raise doc.error(path, str(exc), key_path(path) or what) from None
    return read


def sequence(item: Callable) -> Callable:
    """Reader of a sequence (null is the empty one), each item read by ``item``."""
    def read(doc, raw: Any, path: tuple) -> tuple:
        if raw is not None and not isinstance(raw, (list, tuple)):
            where = ".".join(map(str, path)) or "document"
            raise doc.error(path, f"{where} must be a sequence, got {type_name(raw)}", where)
        return tuple(item(doc, x, path + (i,)) for i, x in enumerate(raw or ()))
    return read


def entries(what: str, readers: Mapping, required: tuple, build: Callable = dict) -> Callable:
    return sequence(mapping(what, readers, required, build))


def bad(doc, path: tuple, message: str) -> Exception:
    """The error on the value at ``path``, naming its key."""
    return doc.error(path, message, path[-1])


def as_is(doc, v: Any, path: tuple) -> Any:
    return v


def string(doc, v: Any, path: tuple) -> str:
    if not isinstance(v, str):
        raise bad(doc, path, f"field {path[-1]!r} must be a string, got {type_name(v)}")
    return v


def to_float(doc, v: Any, path: tuple) -> float:
    try:
        return float(v)
    except OverflowError:
        raise bad(doc, path, f"field {path[-1]!r} holds an integer too large "
                             f"for a 64-bit float") from None


def number(lo: float = -math.inf, hi: float = math.inf) -> Callable:
    """Reader of a number in [lo, hi], as a float (NaN is in no range)."""
    def read(doc, v: Any, path: tuple) -> float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise bad(doc, path, f"field {path[-1]!r} must be a number, got {type_name(v)}")
        v = to_float(doc, v, path)
        if not lo <= v <= hi:
            raise bad(doc, path, f"{path[-1]} out of [{lo},{hi}]: {v}")
        return v
    return read


def integer(lo: int) -> Callable:
    """Reader of an integer >= lo."""
    def read(doc, v: Any, path: tuple) -> int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise bad(doc, path, f"field {path[-1]!r} must be an integer, got {type_name(v)}")
        if v < lo:
            raise bad(doc, path, f"{path[-1]} must be >= {lo}: {v}")
        return v
    return read


def one_of(choices: tuple) -> Callable:
    def read(doc, v: Any, path: tuple) -> Any:
        if v not in choices:
            raise bad(doc, path, f"field {path[-1]!r} must be one of {choices}, got {v!r}")
        return v
    return read
