import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gai_lab.core import FLATTEN_SHARE, Heap, InaccessibleWrite, heap_eq_on, interval, parse_int


def count_copied_cells(monkeypatch) -> list:
    """Make every heap that ``Heap`` builds append the cells it copied to
    the returned list: its overlay, and its base unless it shares the
    base of the heap it came from."""
    copied = []
    wrap = Heap._wrap

    def counting_wrap(self, base, over):
        copied.append(len(over) + (0 if base is self._base else len(base)))
        return wrap(self, base, over)

    monkeypatch.setattr(Heap, "_wrap", counting_wrap)
    return copied


def test_read_present_and_absent():
    h = Heap({5: 7})
    assert h.read(5) == 7
    assert h.read(6) is None
    assert Heap().read(0) is None


def test_write_remaps_existing():
    h = Heap({5: 7})
    assert h.write(5, 9).read(5) == 9
    h2 = Heap({5: 7, 6: 0})
    assert h2.write(6, -3).read(6) == -3
    assert h2.write(6, -3).read(5) == 7


def test_write_outside_domain_raises():
    with pytest.raises(InaccessibleWrite):
        Heap({5: 7}).write(6, 9)


def test_write_is_pure():
    h = Heap({5: 7})
    h.write(5, 9)
    assert h.read(5) == 7


def test_define():
    assert Heap().define(interval(2, 4), 0).domain() == {2, 3}
    assert Heap({2: 5}).define(interval(2, 3), 0).read(2) == 0
    h = Heap({9: 1})
    assert h.define([], 0) == h


def test_undefine():
    assert Heap({2: 0, 3: 0}).undefine(interval(2, 4)).domain() == frozenset()
    assert Heap({2: 0}).undefine(interval(5, 6)).domain() == {2}
    assert Heap({2: 0, 3: 1}).undefine(interval(3, 4)).domain() == {2}


def test_eq_on():
    assert heap_eq_on(Heap({1: 2}), Heap({1: 2, 9: 9}), {1})
    assert not heap_eq_on(Heap({1: 2}), Heap({1: 3}), {1})
    assert heap_eq_on(Heap({1: 2}), Heap({8: 0}), set())
    # both-inaccessible counts as agreement
    assert heap_eq_on(Heap(), Heap(), {4})


def test_domain_algebra():
    h = Heap({1: 1, 2: 2})
    assert h.write(1, 5).domain() == h.domain()
    assert h.define([7], 0).domain() == h.domain() | {7}
    assert h.undefine([1]).domain() == h.domain() - {1}


def test_address_validation():
    with pytest.raises(ValueError):
        Heap({-1: 0})
    with pytest.raises(ValueError):
        Heap().define([2**40], 0)


heaps = st.dictionaries(st.integers(0, 30), st.integers(-50, 50), max_size=8).map(Heap)
addr_sets = st.frozensets(st.integers(0, 30), max_size=8)


@given(heaps, heaps, addr_sets)
def test_eq_on_symmetric(h1, h2, s):
    assert heap_eq_on(h1, h2, s) == heap_eq_on(h2, h1, s)


@given(heaps, heaps, addr_sets, addr_sets)
def test_eq_on_monotone_under_restriction(h1, h2, s, s2):
    if heap_eq_on(h1, h2, s):
        assert heap_eq_on(h1, h2, s & s2)


@given(heaps, addr_sets)
def test_eq_on_reflexive(h, s):
    assert heap_eq_on(h, h, s)


# -- mutators against a plain-dict model ------------------------------------

H_MAX_SMALL = 64
# Addresses on both sides of [0, H_MAX_SMALL), so some cells are out of range.
model_addrs = st.integers(-3, H_MAX_SMALL + 3)
model_ranges = st.builds(range, model_addrs, model_addrs)
model_cells = st.one_of(model_ranges, st.lists(model_addrs, max_size=6))
values = st.integers(-9, 9)
heap_ops = st.one_of(
    st.tuples(st.just("define"), model_cells, values),
    st.tuples(st.just("define_in_place"), st.dictionaries(model_addrs, values, max_size=4)),
    st.tuples(st.just("undefine"), model_cells),
    st.tuples(st.just("fill_undefined"), model_ranges, values),
    st.tuples(st.just("write"), model_addrs, values),
    st.tuples(st.just("write_in_place"), model_addrs, values),
)


def _model_step(model: dict, op: tuple) -> dict:
    """What ``op`` makes of the map ``model``; raises like the heap does."""
    name, *args = op
    out = dict(model)
    if name in ("define", "fill_undefined"):
        cells, v = args
        if any(not 0 <= a < H_MAX_SMALL for a in cells):
            raise ValueError("out of range")
        for a in cells:
            if name == "define" or a not in out:
                out[a] = v
    elif name == "define_in_place":
        if any(not 0 <= a < H_MAX_SMALL for a in args[0]):
            raise ValueError("out of range")
        out.update(args[0])
    elif name == "undefine":
        for a in args[0]:
            out.pop(a, None)
    else:
        a, v = args
        if a not in out:
            raise InaccessibleWrite(a)
        out[a] = v
    return out


@given(st.lists(heap_ops, max_size=12))
def test_mutators_match_dict_model(ops):
    heap, model = Heap(h_max=H_MAX_SMALL), {}
    for op in ops:
        name, *args = op
        before = dict(heap.items())
        try:
            expected = _model_step(model, op)
        except (ValueError, InaccessibleWrite) as exc:
            target = heap.copy() if name.endswith("_in_place") else heap
            with pytest.raises(type(exc)):
                getattr(target, name)(*args)
            assert dict(target.items()) == before  # a failed mutation changes nothing
            continue
        if name.endswith("_in_place"):
            owned = heap.copy()
            getattr(owned, name)(*args)
            result = owned
        else:
            result = getattr(heap, name)(*args)
        assert dict(heap.items()) == before  # the receiver keeps its value
        assert dict(result.items()) == expected and len(result) == len(expected)
        assert result.domain() == frozenset(expected)
        heap, model = result, expected


# -- sibling heaps that share a base -----------------------------------------

FIRST_BASE_MAX = 24  # cells in the first heap of a pool
pool_ops = st.one_of(
    st.tuples(st.just("copy")),
    heap_ops,
    # At least 32 cells: more than FLATTEN_SHARE times any first base.
    st.tuples(st.just("define"), st.builds(range, st.integers(0, 8), st.integers(40, H_MAX_SMALL)), values),
)


def _assert_matches(heap: Heap, model: dict) -> None:
    assert dict(heap.items()) == model and len(heap) == len(model)
    assert heap.domain() == frozenset(model) and heap == Heap(model, h_max=H_MAX_SMALL)


@given(
    st.dictionaries(st.integers(0, H_MAX_SMALL - 1), values, max_size=FIRST_BASE_MAX),
    st.lists(st.tuples(st.integers(0, 10**6), pool_ops), max_size=30),
)
@example(  # undefine base cells, define them again, and copy across a flatten
    {0: 1, 1: 2, 2: 3},
    [(0, ("undefine", [0, 1])), (1, ("define", [0], 7)), (2, ("copy",)),
     (2, ("define", range(0, 40), 5)), (1, ("write_in_place", 0, 9)), (3, ("undefine", range(0, 2)))],
)
def test_sibling_heaps_stay_isolated(base, steps):
    """Heaps made from one another share bases: no op on one heap may change
    another, whichever side of the flatten rule it falls on."""
    assert 32 > FLATTEN_SHARE * FIRST_BASE_MAX
    pool = [(Heap(base, h_max=H_MAX_SMALL), dict(base))]
    for pick, op in steps:
        heap, model = pool[pick % len(pool)]
        name, *args = op
        if name == "copy":
            pool.append((heap.copy(), model))
        else:
            target = heap.copy() if name.endswith("_in_place") else heap
            try:
                expected = _model_step(model, op)
            except (ValueError, InaccessibleWrite) as exc:
                with pytest.raises(type(exc)):
                    getattr(target, name)(*args)
                continue
            result = getattr(target, name)(*args)
            pool.append((target if result is None else result, expected))
        for h, m in pool:
            _assert_matches(h, m)
    for h, m in pool:
        for a in range(-3, H_MAX_SMALL + 4):
            assert h.read(a) == m.get(a) and (a in h) == (a in m)


def test_range_checks_cover_both_ends():
    with pytest.raises(ValueError):
        Heap().define(range(-1, 5), 0)
    with pytest.raises(ValueError):
        Heap().define(range(2**32 - 1, 2**32 + 1), 0)
    with pytest.raises(ValueError):
        Heap().fill_undefined(range(5, -2, -1), 0)  # descending, ends at -1
    assert Heap().define(range(2**32 - 2, 2**32), 3).domain() == {2**32 - 2, 2**32 - 1}
    assert len(Heap().define(range(5, 5), 0)) == 0


def test_parse_int_reads_ascii_digits_only():
    assert parse_int("0") == 0 and parse_int("072") == 72
    assert parse_int("-5", signed=True) == -5 and parse_int("5", signed=True) == 5
    for bad in ("", " 1", "1 ", "1\n", "+1", "1_0", "0x10", "\u0667\u0662", "\u00b2", "-5"):
        with pytest.raises(ValueError):
            parse_int(bad)
    for bad in ("-", "--5", "- 5", "+5", "-\u0664"):
        with pytest.raises(ValueError):
            parse_int(bad, signed=True)
