"""``core.Record`` behaves as the standard library's ``@dataclass`` does.

Every record class of the package is checked against its
``dataclasses.make_dataclass`` twin, built from the record's own fields,
defaults, frozenness and uncompared fields: equality, hashing, ``repr``,
frozen assignment and argument binding must agree on drawn values.  A class
that defines its own ``__init__`` is checked the same way, so its signature
cannot drift from its annotations.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gai_lab.cli  # noqa: F401 - imports every module of the package
from gai_lab.alloc_model import SymMalloc
from gai_lab.core import Record
from gai_lab.notac import Assign, CastEv, Const, LVar, MallocFailEv, ObsEv

SRC = Path(__file__).resolve().parents[1] / "src"


def _record_classes(cls=Record) -> list:
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_record_classes(sub)]
    return sorted(set(out), key=lambda c: (c.__module__, c.__qualname__))


RECORDS = _record_classes()


def _frozen(cls) -> bool:
    return cls.__hash__ is not None


def _twin(cls):
    """The dataclass with ``cls``'s fields, defaults, frozenness and compare flags."""
    specs = []
    for name in cls._fields:
        kw = {"compare": name not in cls._uncompared}
        if name in cls._defaults:
            kw["default"] = cls._defaults[name]
        specs.append((name, object, dataclasses.field(**kw)))
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=_frozen(cls))


TWINS = {cls: _twin(cls) for cls in RECORDS}

# Hashable field values of several types, equal ones included.
VALUES = st.one_of(st.integers(-2, 2), st.sampled_from(["", "a", "b"]), st.none(),
                   st.tuples(st.integers(0, 2), st.integers(0, 2)))


def _build(cls, *args, **kwargs):
    """The instance, or the type of the exception its construction raised."""
    try:
        return cls(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def test_the_package_has_all_its_record_classes():
    assert len(RECORDS) == 42
    assert {cls.__module__.rpartition(".")[2] for cls in RECORDS} == {
        "alloc_model", "corpus", "gai", "memsafe", "notac"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_record_agrees_with_its_dataclass_twin(cls, data):
    twin, fields = TWINS[cls], cls._fields
    a = data.draw(st.lists(VALUES, min_size=len(fields), max_size=len(fields)))
    # b often equals a, or differs from it only in an uncompared field.
    b = [data.draw(VALUES) if data.draw(st.integers(0, 3)) == 0 or name in cls._uncompared else v
         for name, v in zip(fields, a)]
    r1, r2, t1, t2 = _build(cls, *a), _build(cls, *b), _build(twin, *a), _build(twin, *b)
    assert repr(r1) == repr(t1) and repr(r2) == repr(t2)
    assert (r1 == r2, r1 != r2, r1 == a, r1 != None) == (t1 == t2, t1 != t2, t1 == a, t1 != None)  # noqa: E711
    if _frozen(cls):
        assert hash(r1) == hash(t1) and hash(r2) == hash(t2)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(r1, name, 0)
            with pytest.raises(AttributeError):
                delattr(r1, name)
    else:
        with pytest.raises(TypeError):
            hash(r1)

    # Keywords, and calls that omit trailing defaults, bind as positions do.
    assert repr(cls(**dict(zip(fields, a)))) == repr(r1)
    required = len(fields) - len(cls._defaults)
    for n in range(required, len(fields)):
        assert repr(cls(*a[:n])) == repr(twin(*a[:n]))

    # Too many, unknown, repeated or missing arguments.
    with pytest.raises(TypeError):
        cls(*a, 0)
    with pytest.raises(TypeError):
        cls(*a, no_such_field=0)
    if fields:
        with pytest.raises(TypeError):
            cls(*a, **{fields[0]: a[0]})
    if required:
        with pytest.raises(TypeError):
            cls(*a[:required - 1])


def test_records_of_different_classes_with_equal_fields_differ():
    assert ObsEv(1) != CastEv(1) and not ObsEv(1) == CastEv(1)
    assert SymMalloc(2) != MallocFailEv(2)


def test_a_position_is_not_compared():
    one, other = Assign(LVar("x"), Const(1), (1, 1)), Assign(LVar("x"), Const(1), (7, 3))
    assert one == other and hash(one) == hash(other)
    assert repr(one) != repr(other)


def test_a_mutable_default_is_rejected():
    for default in ([], {}, set()):
        with pytest.raises(ValueError, match="mutable default"):
            type("Bad", (Record,), {"__annotations__": {"x": "list"}, "x": default})


def test_a_field_without_default_may_not_follow_one_with_a_default():
    with pytest.raises(TypeError, match="non-default argument 'y'"):
        class Bad(Record):
            x: int = 0
            y: int


def test_fields_follow_those_of_a_record_base():
    class Base(Record, frozen=True, uncompared=("pos",)):
        a: int
        pos: tuple = (0, 0)

    class Sub(Base, frozen=True):
        c: int = 5

    assert Sub._fields == ("a", "pos", "c")
    assert repr(Sub(1)) == "test_fields_follow_those_of_a_record_base.<locals>.Sub(a=1, pos=(0, 0), c=5)"
    assert Sub(1, (2, 2)) == Sub(1) and Sub(1, c=6) != Sub(1)


def test_importing_the_checker_loads_neither_dataclasses_nor_inspect():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import gai_lab.corpus, gai_lab.memsafe, gai_lab.gai; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    # -I -S: no user site and no site hooks, which may import either module.
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
