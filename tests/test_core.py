import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gai_lab.core import H_MAX_DEFAULT, Heap, InaccessibleWrite, parse_int


def count_copied_cells(monkeypatch) -> list:
    """Make every heap copy append the cells it copied to the returned list,
    and every mutator the cells it materialized: a copy copies the heap's
    own cells and shares its filled intervals, and a mutator materializes
    the cells it adds to the heap's own cells."""
    copied = []
    copy = Heap.copy

    def counting_copy(self):
        h = copy(self)
        copied.append(len(h._cells))
        return h

    def counting(mutate):
        def counted(self, *args):
            before = len(self._cells)
            mutate(self, *args)
            copied.append(max(len(self._cells) - before, 0))
        return counted

    monkeypatch.setattr(Heap, "copy", counting_copy)
    for name in ("write", "define", "undefine", "fill_undefined"):
        monkeypatch.setattr(Heap, name, counting(getattr(Heap, name)))
    return copied


def domain(heap: Heap) -> set:
    """The addresses ``heap`` maps, read through ``items()``."""
    return {a for a, _v in heap.items()}


def test_read_present_and_absent():
    h = Heap({5: 7})
    assert h.read(5) == 7
    assert h.read(6) is None
    assert Heap().read(0) is None


def _changed(heap: Heap, mutate) -> Heap:
    """``heap`` after ``mutate(heap)``, which must return ``None``."""
    assert mutate(heap) is None
    return heap


def test_write_remaps_existing():
    assert _changed(Heap({5: 7}), lambda h: h.write(5, 9)).read(5) == 9
    h2 = _changed(Heap({5: 7, 6: 0}), lambda h: h.write(6, -3))
    assert h2.read(6) == -3 and h2.read(5) == 7


def test_write_outside_domain_raises():
    with pytest.raises(InaccessibleWrite):
        Heap({5: 7}).write(6, 9)


def test_write_to_a_copy_leaves_the_original():
    h = Heap({5: 7})
    h.copy().write(5, 9)
    assert h.read(5) == 7


def test_define():
    assert domain(_changed(Heap(), lambda h: h.define(range(2, 4), 0))) == {2, 3}
    assert _changed(Heap({2: 5}), lambda h: h.define(range(2, 3), 0)).read(2) == 0
    assert _changed(Heap({9: 1}), lambda h: h.define(range(4, 4), 0)) == Heap({9: 1})


def test_undefine():
    assert domain(_changed(Heap({2: 0, 3: 0}), lambda h: h.undefine(range(2, 4)))) == set()
    assert domain(_changed(Heap({2: 0}), lambda h: h.undefine(range(5, 6)))) == {2}
    assert domain(_changed(Heap({2: 0, 3: 1}), lambda h: h.undefine(range(3, 4)))) == {2}


def test_domain_algebra():
    h = Heap({1: 1, 2: 2})
    assert domain(_changed(h.copy(), lambda c: c.write(1, 5))) == domain(h)
    assert domain(_changed(h.copy(), lambda c: c.define(range(7, 8), 0))) == domain(h) | {7}
    assert domain(_changed(h.copy(), lambda c: c.undefine(range(1, 2)))) == domain(h) - {1}


def test_address_validation():
    with pytest.raises(ValueError):
        Heap({-1: 0})
    with pytest.raises(ValueError):
        Heap().define(range(2**40, 2**40 + 1), 0)


# -- mutators against a plain-dict model ------------------------------------

# Addresses on both sides of 0 and on both sides of H_MAX_DEFAULT, so some
# cells are out of range at each bound.  A range stays near one bound, or
# inside the first 12 cells, so that fills, writes and undefines there
# overlap often.  Every range ascends by one, as the mutators require, and
# may be empty.
low_addrs = st.integers(-3, 67)
high_addrs = st.integers(H_MAX_DEFAULT - 4, H_MAX_DEFAULT + 3)
near_addrs = st.integers(0, 11)
PROBE_CELLS = [*range(-3, 68), *range(H_MAX_DEFAULT - 4, H_MAX_DEFAULT + 4)]
model_addrs = st.one_of(low_addrs, high_addrs, near_addrs)
model_ranges = st.one_of(*(st.builds(range, ends, ends) for ends in (low_addrs, high_addrs, near_addrs)))
values = st.integers(-9, 9)
heap_ops = st.one_of(
    st.tuples(st.just("define"), model_ranges, values),
    st.tuples(st.just("undefine"), model_ranges),
    st.tuples(st.just("fill_undefined"), model_ranges, values),
    st.tuples(st.just("write"), model_addrs, values),
)


def _model_step(model: dict, op: tuple) -> dict:
    """What ``op`` makes of the map ``model``; raises like the heap does."""
    name, *args = op
    out = dict(model)
    if name != "write" and any(not 0 <= a < H_MAX_DEFAULT for a in args[0]):
        raise ValueError("out of range")
    if name in ("define", "fill_undefined"):
        cells, v = args
        for a in cells:
            if name == "define" or a not in out:
                out[a] = v
    elif name == "undefine":
        for a in args[0]:
            out.pop(a, None)
    else:
        a, v = args
        if a not in out:
            raise InaccessibleWrite(a)
        out[a] = v
    return out


def _apply(heap: Heap, model: dict, op: tuple) -> dict:
    """Apply ``op`` to ``heap`` in place and return the model's new value;
    the model's old value when ``op`` raises, after checking that the heap
    raised the same way and kept its cells."""
    name, *args = op
    try:
        expected = _model_step(model, op)
    except (ValueError, InaccessibleWrite) as exc:
        with pytest.raises(type(exc)):
            getattr(heap, name)(*args)
        assert dict(heap.items()) == model  # a failed mutation changes nothing
        return model
    assert getattr(heap, name)(*args) is None
    return expected


def _assert_matches(heap: Heap, model: dict) -> None:
    assert dict(heap.items()) == model and len(heap) == len(model)
    assert domain(heap) == set(model) and heap == Heap(model)
    assert heap.read_many(PROBE_CELLS) == [model.get(a) for a in PROBE_CELLS]


@given(st.lists(heap_ops, max_size=12))
@example([("fill_undefined", range(0, 1), 0), ("undefine", range(1, 0))])  # an empty cut keeps one interval
def test_mutators_match_dict_model(ops):
    """Each mutator changes its receiver as the model says, and never a copy
    taken before it."""
    heap, model = Heap(), {}
    for op in ops:
        before, snapshot = model, heap.copy()
        model = _apply(heap, model, op)
        _assert_matches(heap, model)
        _assert_matches(snapshot, before)


# -- sibling heaps that share filled intervals ------------------------------

FIRST_BASE_MAX = 24  # cells in the first heap of a pool
pool_ops = st.one_of(
    st.tuples(st.just("copy")),
    heap_ops,
    # At least 32 cells: more own cells than any first heap has.
    st.tuples(st.just("define"), st.builds(range, st.integers(0, 8), st.integers(40, 64)), values),
)


@given(
    st.dictionaries(st.one_of(st.integers(0, 67), st.integers(H_MAX_DEFAULT - 4, H_MAX_DEFAULT - 1)), values,
                    max_size=FIRST_BASE_MAX),
    st.lists(st.tuples(st.integers(0, 10**6), pool_ops), max_size=30),
)
@example(  # undefine first cells, define them again, and copy after a define larger than the first heap
    {0: 1, 1: 2, 2: 3},
    [(0, ("copy",)), (0, ("undefine", range(0, 2))), (1, ("define", range(0, 1), 7)), (0, ("copy",)),
     (2, ("define", range(0, 40), 5)), (2, ("copy",)), (1, ("write", 0, 9)), (3, ("undefine", range(0, 2)))],
)
@example(  # fill, write inside the fill, undefine a middle cell, copy, then write the copy
    {},
    [(0, ("fill_undefined", range(0, 10), 3)), (0, ("write", 4, 7)), (0, ("undefine", range(5, 6))), (0, ("copy",)),
     (1, ("write", 6, 9))],
)
def test_sibling_heaps_stay_isolated(base, steps):
    """Heaps copied from one another share filled intervals: after a copy, no
    mutator sequence on either heap may reach the other."""
    pool = [(Heap(base), dict(base))]
    for pick, op in steps:
        i = pick % len(pool)
        heap, model = pool[i]
        if op[0] == "copy":
            pool.append((heap.copy(), model))
        else:
            pool[i] = (heap, _apply(heap, model, op))
        for h, m in pool:
            _assert_matches(h, m)
    for h, m in pool:
        for a in PROBE_CELLS:
            assert h.read(a) == m.get(a) and (a in h) == (a in m)


def test_repr_lists_the_first_12_cells_in_address_order():
    assert repr(Heap({2: 0, 1: 7})) == "Heap({1:7, 2:0})"
    cells = ", ".join(f"{a}:0" for a in range(12))
    assert repr(Heap(dict.fromkeys(range(20), 0))) == f"Heap({{{cells}, ... (20 entries)}})"


def test_range_checks_cover_both_ends():
    with pytest.raises(ValueError):
        Heap().define(range(-1, 5), 0)
    with pytest.raises(ValueError):
        Heap().define(range(2**32 - 1, 2**32 + 1), 0)
    with pytest.raises(ValueError):
        Heap().fill_undefined(range(5, -2, -1), 0)  # descending, ends at -1
    assert domain(_changed(Heap(), lambda h: h.define(range(2**32 - 2, 2**32), 3))) == {2**32 - 2, 2**32 - 1}
    assert len(_changed(Heap(), lambda h: h.define(range(5, 5), 0))) == 0


@pytest.mark.parametrize("name", ["define", "undefine", "fill_undefined"])
def test_mutators_take_one_ascending_unit_step_range(name):
    """A mutator raises ``TypeError`` on anything but a range and ``ValueError``
    on a descending, stepped or out-of-bounds range, and changes nothing."""
    heap = Heap({1: 1, 3: 3})
    heap.fill_undefined(range(5, 9), 0)
    bad = [(TypeError, [1, 2]), (TypeError, {1, 2}), (TypeError, 1),
           (ValueError, range(5, 0, -1)), (ValueError, range(0, 10, 2)),
           (ValueError, range(H_MAX_DEFAULT - 2, H_MAX_DEFAULT + 1))]
    for error, addrs in bad:
        before = heap.copy()
        with pytest.raises(error):
            getattr(heap, name)(addrs, *(() if name == "undefine" else (7,)))
        assert heap == before


def test_parse_int_reads_ascii_digits_only():
    assert parse_int("0") == 0 and parse_int("072") == 72
    assert parse_int("-5", signed=True) == -5 and parse_int("5", signed=True) == 5
    for bad in ("", " 1", "1 ", "1\n", "+1", "1_0", "0x10", "\u0667\u0662", "\u00b2", "-5"):
        with pytest.raises(ValueError):
            parse_int(bad)
    for bad in ("-", "--5", "- 5", "+5", "-\u0664"):
        with pytest.raises(ValueError):
            parse_int(bad, signed=True)
