"""Immutable value records, made without :mod:`dataclasses`.

:func:`record` makes of a class what ``@dataclass(frozen=True)`` makes of
it (``slots=True`` as ``slots=True`` does) and imports neither
``dataclasses`` nor ``inspect``.  One ``compile`` per class generates the
keyword ``__init__`` and the positional builder ``cls._build(*values)``,
which runs no ``__post_init__``; both set a slot through its member
descriptor.  The other methods are shared and behave as Python 3.11's
dataclass ones do.  A record pickles and copies its fields only, never
what is cached in its ``__dict__``.  ``dataclasses.fields``, ``replace``,
``asdict`` and ``is_dataclass`` work on records through a
``__dataclass_fields__`` built (and ``dataclasses`` imported) on first use.
"""

from __future__ import annotations

from reprlib import recursive_repr

__all__ = ["record", "field", "as_dict", "replace"]

_FACTORY = object()   # an __init__ default: call the field's default factory


class field(dict):
    """A field's options: the ``default``, ``default_factory``, ``compare``
    and ``repr`` keywords of :func:`dataclasses.field`."""


def as_dict(obj) -> dict:
    """A record's fields by name, in order (values not copied)."""
    return {name: getattr(obj, name) for name in obj.__match_args__}


def replace(obj, **changes):
    """``obj`` with ``changes``, made as :func:`dataclasses.replace` makes it."""
    return obj.__class__(**{**as_dict(obj), **changes})


def _compared(obj) -> tuple:
    return tuple([getattr(obj, name) for name in obj.__record_compare__])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _compared(self) == _compared(other)
    return NotImplemented


@recursive_repr()
def _repr(self) -> str:
    shown = [f"{name}={getattr(self, name)!r}" for name, options
             in self.__record_fields__.items() if options.get("repr", True)]
    return f"{self.__class__.__qualname__}({', '.join(shown)})"


def _frozen(verb: str, unfrozen):
    def method(self, name, *value):
        # A subclass that is not a record itself may set its other names.
        if "__record_fields__" in type(self).__dict__ or name in self.__match_args__:
            from dataclasses import FrozenInstanceError
            raise FrozenInstanceError(f"cannot {verb} field {name!r}")
        unfrozen(self, name, *value)
    return method


def _setstate(self, state):
    for name, value in zip(self.__match_args__, state):
        object.__setattr__(self, name, value)


class _DataclassFields:
    def __get__(self, obj, cls):
        import dataclasses
        cls = next(c for c in cls.__mro__ if "__record_fields__" in vars(c))
        cls.__dataclass_fields__ = dataclasses.make_dataclass(cls.__name__, [
            (name, cls.__annotations__[name], dataclasses.field(**options))
            for name, options in cls.__record_fields__.items()]).__dataclass_fields__
        return cls.__dataclass_fields__


_SHARED = {"__eq__": _eq, "__hash__": lambda self: hash(_compared(self)), "__repr__": _repr,
           "__setattr__": _frozen("assign to", object.__setattr__),
           "__delattr__": _frozen("delete", object.__delattr__),
           "__getstate__": lambda self: list(as_dict(self).values()),
           "__setstate__": _setstate, "__dataclass_fields__": _DataclassFields()}


def record(cls=None, *, slots: bool = False):
    """``cls`` as a record (``@record``), slotted with ``@record(slots=True)``."""
    if cls is None:
        return lambda cls: record(cls, slots=slots)
    own = dict(vars(cls))
    specs = {name: own[name] if isinstance(own.get(name), field)
             else field(default=own[name]) if name in own else field()
             for name in own.get("__annotations__", {})}
    names = tuple(specs)
    methods = {name: f for name, f in _SHARED.items() if name not in own}
    if slots:
        for name in names + ("__dict__", "__weakref__"):
            own.pop(name, None)
        cls = type(cls)(cls.__name__, cls.__bases__, {**own, **methods, "__slots__": names,
                                                      "__qualname__": cls.__qualname__})
    else:
        for name in names:
            if isinstance(own.get(name), field):
                delattr(cls, name)
        for name, f in methods.items():
            setattr(cls, name, f)
    cls.__record_fields__, cls.__match_args__ = specs, names
    cls.__record_compare__ = tuple(name for name in names if specs[name].get("compare", True))

    namespace = {"_new": object.__new__, "_cls": cls, "_FACTORY": _FACTORY}
    store = "    _set_{0}(self, {1})\n" if slots else "    self.__dict__[{0!r}] = {1}\n"
    params, sets, builds = [], [], []
    for name, options in specs.items():
        value = name
        if "default_factory" in options:
            namespace[f"_factory_{name}"] = options["default_factory"]
            params.append(f"{name}=_FACTORY")
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
        elif "default" in options:
            namespace[f"_default_{name}"] = options["default"]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        if slots:
            namespace[f"_set_{name}"] = cls.__dict__[name].__set__
        sets.append(store.format(name, value))
        builds.append(store.format(name, name))
    post_init = ["    self.__post_init__()\n"] if hasattr(cls, "__post_init__") else []
    exec(compile("".join([f"def __init__(self, {', '.join(params)}):\n", *sets, *post_init,
                          "    return None\n", f"def build({', '.join(names)}):\n",
                          "    self = _new(_cls)\n", *builds, "    return self\n"]),
                 f"<agentcontracts record {cls.__qualname__}>", "exec"), namespace)
    if "__init__" not in own:
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls._build = namespace["build"]
    return cls
