"""Every package record against its dataclass twin.

Records are made by :func:`agentcontracts.records.record`, not by
:mod:`dataclasses`.  Each one gets a twin here: a real
``dataclasses.dataclass(frozen=True)`` (``slots=True`` for a slotted
record) built from the same annotations, defaults and ``__post_init__``.
Given the same drawn values, a record and its twin agree on construction
(positional and by keyword, a default factory giving a fresh object each
time), on ``__post_init__`` errors, ``==``, ``hash``, ``repr``, pickle and
deepcopy round trips, ``dataclasses.fields``/``replace``/``asdict``, and on
the FrozenInstanceError of every assignment and deletion.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agentcontracts
from agentcontracts import records
from agentcontracts.engine import SATISFIED, VIOLATED
from agentcontracts.model import ActionRecord


def package_records() -> list:
    found = []
    for info in pkgutil.iter_modules(agentcontracts.__path__):
        module = importlib.import_module(f"agentcontracts.{info.name}")
        found += [value for name, value in vars(module).items()
                  if isinstance(value, type) and value.__module__ == module.__name__
                  and "__record_fields__" in vars(value) and name == value.__name__]
    return found


RECORDS = package_records()


class Twins:
    """Each record's twin, as ``Twins.<name>``, where pickle finds it."""


def make_twin(cls):
    namespace = {"__annotations__": dict(cls.__annotations__), "__module__": __name__,
                 "__qualname__": f"Twins.{cls.__name__}"}
    for name, options in cls.__record_fields__.items():
        if options:
            namespace[name] = dataclasses.field(**options)
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    twin = dataclasses.dataclass(frozen=True, slots="__slots__" in vars(cls))(
        type(cls.__name__, (), namespace))
    # With slots=True, Python 3.11's frozen __setattr__/__delattr__ still
    # refer to the class slots=True replaced, so assigning a name that is not
    # a field raises TypeError; bound to the twin, they raise
    # FrozenInstanceError, as on later Pythons.
    for method in (twin.__setattr__, twin.__delattr__):
        for var, cell in zip(method.__code__.co_freevars, method.__closure__ or ()):
            if var == "cls":
                cell.cell_contents = twin
    setattr(Twins, cls.__name__, twin)
    return twin


TWINS = {cls: make_twin(cls) for cls in RECORDS}


def test_every_package_record_has_a_twin():
    assert len(RECORDS) == 44
    assert sum("__slots__" in vars(cls) for cls in RECORDS) == 10


LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.text(max_size=3),
                   st.sampled_from([SATISFIED, VIOLATED, ActionRecord("go")]))
VALUES = st.one_of(LEAVES, st.lists(LEAVES, max_size=3), st.lists(LEAVES, max_size=3).map(tuple),
                   st.dictionaries(st.text(max_size=2), LEAVES, max_size=2))
#: Values of a field's annotated type, so that checking ``__post_init__``s
#: often pass.
TYPED = {"float": st.floats(0.0, 1.0), "int": st.integers(0, 5), "bool": st.booleans(),
         "str": st.sampled_from(["a", "hard", "soft"]),
         "tuple": st.lists(st.floats(0.0, 1.0), max_size=3).map(tuple)}


def values_for(annotation: str):
    plain = annotation.removeprefix("Optional[").removesuffix("]")
    return st.one_of(VALUES, TYPED.get(plain, VALUES))


def outcome(make):
    """``make()``, or the type and text of the error it raises, a twin's
    class name read as its record's."""
    try:
        return make()
    except Exception as exc:
        return type(exc), str(exc).replace("Twins.", "")


def failed(result) -> bool:
    return type(result) is tuple and len(result) == 2 and isinstance(result[0], type) \
        and issubclass(result[0], Exception)


def shown(twin_object) -> str:
    return repr(twin_object).replace("Twins.", "", 1)


def assert_alike(record, twin_object):
    """``record`` and ``twin_object`` (or the errors making them raised)
    agree on everything but their class."""
    if failed(record) or failed(twin_object):
        assert record == twin_object
        return
    assert type(record).__name__ == type(twin_object).__name__
    assert repr(record) == shown(twin_object)
    assert outcome(lambda: hash(record)) == outcome(lambda: hash(twin_object))
    assert (record == record) is (twin_object == twin_object)
    assert record != twin_object and twin_object != record
    assert record.__eq__(twin_object) is NotImplemented and not record == object()
    assert hasattr(record, "__dict__") == hasattr(twin_object, "__dict__")
    assert type(record).__match_args__ == type(twin_object).__match_args__
    for copied, twin_copied in ((pickle.loads(pickle.dumps(record)),
                                 pickle.loads(pickle.dumps(twin_object))),
                                (copy.deepcopy(record), copy.deepcopy(twin_object))):
        assert type(copied) is type(record) and repr(copied) == repr(record)
        assert (copied == record) is (twin_copied == twin_object)
    assert repr(outcome(lambda: dataclasses.asdict(record))) == \
        repr(outcome(lambda: dataclasses.asdict(twin_object)))
    for name in (type(record).__match_args__[:1] + ("extra",)):
        for act in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            error = outcome(lambda: act(record))
            assert error == outcome(lambda: act(twin_object))
            assert error[0] is dataclasses.FrozenInstanceError


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_dataclass_twin(cls, data):
    twin = TWINS[cls]
    specs = cls.__record_fields__
    values = [data.draw(values_for(cls.__annotations__[name]), label=name) for name in specs]
    given_names = [name for name in specs if not specs[name] or data.draw(st.booleans())]
    keywords = dict((name, value) for name, value in zip(specs, values) if name in given_names)

    record, twin_object = outcome(lambda: cls(*values)), outcome(lambda: twin(*values))
    assert_alike(record, twin_object)
    assert_alike(outcome(lambda: cls(**keywords)), outcome(lambda: twin(**keywords)))
    for args, kwargs in (((), {}), ((*values, None), {}), ((), {**keywords, "nope": 1})):
        assert_alike(outcome(lambda: cls(*args, **kwargs)),
                     outcome(lambda: twin(*args, **kwargs)))
    # Each default factory makes a fresh object for every record.
    made = [(outcome(lambda: cls(**keywords)), outcome(lambda: twin(**keywords)))
            for _ in range(2)]
    if not failed(made[0][0]):
        for name in specs:
            if "default_factory" in specs[name] and name not in keywords:
                for first, second in zip(*made):
                    assert getattr(first, name) is not getattr(second, name)

    if failed(record):
        return
    other = [data.draw(values_for(cls.__annotations__[name])) for name in specs]
    assert (outcome(lambda: record == cls(*other)) ==
            outcome(lambda: twin_object == twin(*other)))
    assert [(f.name, f.type, f.default, f.default_factory, f.compare, f.repr)
            for f in dataclasses.fields(record)] == \
        [(f.name, f.type, f.default, f.default_factory, f.compare, f.repr)
         for f in dataclasses.fields(twin_object)]
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(cls)
    name = data.draw(st.sampled_from(list(specs)))
    change = {name: other[list(specs).index(name)]}
    replaced = outcome(lambda: dataclasses.replace(record, **change))
    assert_alike(replaced, outcome(lambda: dataclasses.replace(twin_object, **change)))
    assert repr(outcome(lambda: records.replace(record, **change))) == repr(replaced)
