"""Unit behavior of the shipped allocation strategies."""

import inspect
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gai_lab import allocators
from gai_lab.alloc_model import Strategy
from gai_lab.allocators import (
    _SEGMENT_KINDS,
    BumpAlloc,
    CuriousAlloc,
    EagerAlloc,
    LenientBumpAlloc,
    _first_fit,
    BumpAlloc as bump,
    CuriousAlloc as curious,
    EagerAlloc as eager,
    GuardedEagerAlloc as guarded_eager,
    LenientBumpAlloc as lenient_bump,
    NoZeroAlloc as no_zero,
    NullAlloc as null_alloc,
    parse_alloc_spec,
)
from gai_lab.core import H_MAX_DEFAULT, MAX_SPEC_CELLS, Heap
from gai_lab.gai import default_family


def reserved_heap(n=100):
    return Heap({a: 0 for a in range(n)})


def test_segment_validation():
    with pytest.raises(ValueError):
        eager(10, 5, 20)


@pytest.mark.parametrize("spec", [
    "eager:0,8,4294967297",  # n3 past the heap's address bound
    "lenient-bump:0,4294967296,4294967296",  # null cell at the bound
    "curious:33,8589934600",  # world past the bound
    "curious:4,4294967296",
    "curious:10000000000,5",  # 2**m would take gigabytes
])
def test_geometry_must_fit_below_the_address_bound(spec):
    with pytest.raises(ValueError):
        parse_alloc_spec(spec)


def test_curious_needs_a_semispace_exponent_of_at_least_1():
    with pytest.raises(ValueError, match="^m must be >= 1$"):
        parse_alloc_spec("curious:0,2047")


@pytest.mark.parametrize("spec", ["bump:0,8,1048586", "lenient-bump:0,8,1048586", "nozero(bump:0,8,1048586)"])
def test_a_bump_span_above_max_spec_cells_is_rejected_when_built(spec):
    # 1048577 cells: one more than MAX_SPEC_CELLS; init is never called.
    with pytest.raises(ValueError, match="fills 1048577 cells, more than MAX_SPEC_CELLS = 1048576"):
        parse_alloc_spec(spec)


def test_bump_spans_up_to_max_spec_cells_are_accepted():
    assert parse_alloc_spec("bump:0,8,1048585").name == "bump:0,8,1048585"
    assert parse_alloc_spec("bump:0,8,1000000").name == "bump:0,8,1000000"  # the largest spec in use


# Segment numbers near 0, near MAX_SPEC_CELLS (the bump span bound) and near
# the address bound 2**32.
SEGMENT_NUMBERS = st.one_of(st.integers(-2, 10), st.integers(MAX_SPEC_CELLS - 2, MAX_SPEC_CELLS + 12),
                            st.integers(H_MAX_DEFAULT - 10, H_MAX_DEFAULT + 2))


@given(st.sampled_from(list(_SEGMENT_KINDS.values())), SEGMENT_NUMBERS, SEGMENT_NUMBERS, SEGMENT_NUMBERS)
@example(EagerAlloc, -1, 0, 1)
@example(EagerAlloc, 1, 0, 5)  # n2 below n1
@example(EagerAlloc, 0, 5, 4)  # n3 below n2
@example(EagerAlloc, 0, 8, H_MAX_DEFAULT + 1)  # n3 past the bound
@example(EagerAlloc, 0, H_MAX_DEFAULT, H_MAX_DEFAULT)  # null at the bound
@example(EagerAlloc, 0, H_MAX_DEFAULT - 1, H_MAX_DEFAULT)
@example(BumpAlloc, 0, 0, MAX_SPEC_CELLS + 1)  # a span of MAX_SPEC_CELLS
@example(LenientBumpAlloc, 0, 0, MAX_SPEC_CELLS + 2)  # one cell more
def test_a_segment_strategy_is_built_exactly_from_a_good_segment(cls, n1, n2, n3):
    good = 0 <= n1 <= n2 <= n3 <= H_MAX_DEFAULT and n2 < H_MAX_DEFAULT
    if issubclass(cls, BumpAlloc):
        good = good and n3 - n2 - 1 <= MAX_SPEC_CELLS
    if not good:
        with pytest.raises(ValueError):
            cls(n1, n2, n3)
        return
    s = cls(n1, n2, n3)
    assert (s.n1, s.n2, s.n3) == (n1, n2, n3)
    assert parse_alloc_spec(s.name).name == s.name


def test_geometry_up_to_the_address_bound_is_accepted():
    assert parse_alloc_spec("eager:0,8,4294967296").name == "eager:0,8,4294967296"
    assert parse_alloc_spec("curious:4,4294967295").name == "curious:4,4294967295"


def free_at(heap, starts, a: int, span: int, guard: int) -> bool:
    """No cell of ``[a - guard, a + span + guard)`` is in ``heap`` or ``starts``."""
    return all(c not in heap and c not in starts for c in range(a - guard, a + span + guard))


def brute_first_fit(heap, starts, lo: int, end: int, span: int, guard: int = 0):
    """The least ``a >= lo`` with ``a + span <= end`` and :func:`free_at`, cell by cell."""
    return next((a for a in range(lo, end - span + 1) if free_at(heap, starts, a, span, guard)), None)


@given(
    st.frozensets(st.integers(0, 24), max_size=14),
    st.lists(st.integers(0, 26), unique=True, max_size=8).map(sorted),
    st.integers(0, 12),
    st.integers(0, 26),
    st.integers(1, 4),
    st.sampled_from([0, 1]),
)
def test_first_fit_is_the_least_free_window(cells, bounds, lo, end, span, guard):
    # Runs are a hint: their cells are in the heap, so the heap alone decides.
    runs = tuple(bounds[: len(bounds) // 2 * 2])
    heap = cells | {c for x, y in zip(runs[::2], runs[1::2]) for c in range(x, y)}
    expected = brute_first_fit(heap, (), lo, end, span, guard)
    assert _first_fit(heap, lo, end, span, guard, runs) == expected
    assert _first_fit(heap, lo, end, span, guard) == expected


class BruteEager:
    """Eager and guarded-eager as the cell-by-cell scan over the heap and
    the live block starts."""

    def __init__(self, strategy):
        self.s, self.live = strategy, {}

    def malloc(self, heap, size):
        s = self.s
        a = brute_first_fit(heap, self.live, s.n2 + 1, s.n3, max(size, 1), s.guard)
        if a is None:
            return s.n2
        heap.define(range(a, a + size), 0)
        self.live[a] = size
        return a

    def free(self, heap, addr):
        if addr in self.live:
            heap.undefine(range(addr, addr + self.live.pop(addr)))


class BruteCurious:
    """Curious with each fit a cell-by-cell scan over the heap."""

    def __init__(self, strategy):
        self.s, self.span, self.first = strategy, None, None

    def malloc(self, heap, size):
        s = self.s
        if size <= 0:
            return 0
        if self.first is None:
            a = self.first = brute_first_fit(heap, (), s.upper_max + 1, s.h_max + 1, size)
            if a is None:
                return 0
        else:
            if self.span is None:
                v = heap.read(self.first)
                self.span = (s.lower_max + 1, s.upper_max) if v is not None and v > 0 else (1, s.lower_max)
            a = brute_first_fit(heap, (), self.span[0], self.span[1] + 1, size)
            if a is None:
                return 0
        heap.define(range(a, a + size), 0)
        return a

    def free(self, heap, addr):
        pass


# (strategy, its brute-force twin, the cells a foreign define may hit)
BRUTE_KINDS = {
    "eager": (eager(0, 8, 48), BruteEager, range(8, 48)),
    "guarded-eager": (guarded_eager(0, 8, 48), BruteEager, range(8, 48)),
    "curious": (curious(5, 63), BruteCurious, range(0, 64)),
}
HISTORY_STEP = st.one_of(
    st.tuples(st.just("malloc"), st.sampled_from([0, 1, 2, 3, 5, 8, 100]), st.none()),  # 100: more than any segment
    st.tuples(st.just("free"), st.integers(0, 63), st.booleans()),  # an address a malloc returned, or any
    st.tuples(st.just("foreign"), st.integers(0, 63), st.integers(-1, 1)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BRUTE_KINDS)), st.lists(HISTORY_STEP, max_size=40))
@example("guarded-eager", [("malloc", 2, None), ("malloc", 2, None), ("malloc", 0, None), ("free", 1, True),
                            ("malloc", 1, None)])
@example("eager", [("malloc", 0, None), ("foreign", 10, 1), ("malloc", 3, None), ("free", 0, True), ("malloc", 2, None)])
@example("curious", [("foreign", 33, 0), ("malloc", 1, None)])  # a defined cell at upper_max + 1
def test_first_fit_matches_the_brute_force_scan(kind, history):
    """Every address and every heap of a history of mallocs, frees and
    foreign defines inside the segment equals the cell-by-cell scan's."""
    strategy, brute_kind, cells = BRUTE_KINDS[kind]
    heap, state = strategy.init(reserved_heap(8))
    model_heap, brute = heap.copy(), brute_kind(strategy)
    live = []
    for op, n, arg in history:
        if op == "malloc":
            heap, state, a = strategy.malloc(heap, state, n)
            assert a == brute.malloc(model_heap, n)
            live.append(a)
        elif op == "free":
            addr = live[n % len(live)] if arg and live else n
            heap, state = strategy.free(heap, state, addr)
            brute.free(model_heap, addr)
        else:
            cell = cells[n % len(cells)]
            heap.define(range(cell, cell + 1), arg)
            model_heap.define(range(cell, cell + 1), arg)
        assert heap == model_heap


class TestEager:
    def test_first_fit_and_zeroing(self):
        e = eager(0, 100, 200)
        h, st = e.init(reserved_heap())
        h, st, a = e.malloc(h, st, 4)
        assert a == 101  # availF requires n2 < a
        assert [h.read(x) for x in range(101, 105)] == [0, 0, 0, 0]

    def test_zero_sized_allocation_gets_a_free_cell(self):
        e = eager(0, 100, 200)
        h, st = e.init(reserved_heap())
        h, st, a = e.malloc(h, st, 4)
        h, st, z = e.malloc(h, st, 0)
        assert z == 105
        assert z not in h  # no cells defined

    def test_zero_allocations_never_covered_later(self):
        # regression for the availability repair: a freed block next to a
        # zero-sized allocation must not be re-extended over its address
        e = eager(0, 100, 200)
        h, st = e.init(reserved_heap())
        h, st, a4 = e.malloc(h, st, 4)
        h, st, z = e.malloc(h, st, 0)
        h, st = e.free(h, st, a4)
        h, st, a5 = e.malloc(h, st, 5)
        assert z not in range(a5, a5 + 5)

    def test_free_then_reuse(self):
        e = eager(0, 100, 200)
        h, st = e.init(reserved_heap())
        h, st, a = e.malloc(h, st, 4)
        h, st = e.free(h, st, a)
        h, st, b = e.malloc(h, st, 4)
        assert b == a == 101

    def test_unregistered_free_is_ignored(self):
        e = eager(0, 100, 200)
        h, st = e.init(reserved_heap())
        h2, st2 = e.free(h, st, 150)
        assert (h2, st2) == (h, st)
        h3, st3 = e.free(h, st, -7)
        assert (h3, st3) == (h, st)

    def test_init_preserves_reserved_and_outside(self):
        e = eager(0, 100, 200)
        seed = reserved_heap()
        seed.define(range(300, 301), 9)
        seed.define(range(150, 151), 5)
        h, st = e.init(seed)
        assert h.read(50) == 0  # reserved kept
        assert h.read(300) == 9  # outside the segment kept
        assert 150 not in h  # arena wiped

    def test_block_fits_inside_segment(self):
        e = eager(0, 100, 110)
        h, st = e.init(reserved_heap())
        h, st, a = e.malloc(h, st, 9)
        assert a == 101
        h, st, b = e.malloc(h, st, 1)
        assert b == e.null(st)  # 9 cells + null leave no room


class TestGuardedEager:
    def test_one_cell_gap_between_blocks(self):
        g = guarded_eager(0, 100, 200)
        h, st = g.init(reserved_heap())
        h, st, p = g.malloc(h, st, 4)
        h, st, q = g.malloc(h, st, 4)
        assert (p, q) == (101, 106)
        assert 105 not in h  # the guard cell stays undefined


class TestBump:
    def test_bump_formula(self):
        b = bump(0, 100, 200)
        h, st = b.init(Heap())
        assert st == 101
        h, st, a = b.malloc(h, st, 8)
        assert (a, st) == (101, 109)

    def test_zero_size_acts_as_one(self):
        b = bump(0, 100, 200)
        h, st = b.init(Heap())
        h, st, _ = b.malloc(h, st, 8)
        h, st, a = b.malloc(h, st, 0)
        assert (a, st) == (109, 110)

    def test_failure_when_out_of_space(self):
        b = bump(0, 100, 104)
        h, st = b.init(Heap())
        h, st, a = b.malloc(h, st, 8)
        assert a == b.null(st) == 100

    def test_init_fills_arena_and_protects_null(self):
        b = bump(0, 100, 110)
        h, st = b.init(Heap({50: 3, 105: 7}))
        assert h.read(105) == 7  # existing entries kept
        assert h.read(101) == 0  # fresh cells zeroed
        assert 100 not in h  # null cell inaccessible
        assert h.read(50) == 3

    def test_free_is_noop(self):
        b = bump(0, 100, 200)
        h, st = b.init(Heap())
        h1, st1, a = b.malloc(h, st, 8)
        assert b.free(h1, st1, a) == (h1, st1)


class TestLenientBump:
    def test_null_cell_is_accessible(self):
        lb = lenient_bump(0, 100, 200)
        h, st = lb.init(Heap())
        assert h.read(100) == 0
        h2, st2 = bump(0, 100, 200).init(Heap())
        assert 100 not in h2


class TestCurious:
    def test_world_split(self):
        c = curious(9, 2047)
        assert (c.lower_max, c.upper_max) == (256, 512)
        with pytest.raises(ValueError):
            CuriousAlloc(4, 16)  # no room above upper_max

    def test_first_allocation_location(self):
        c = curious(9, 2047)
        h, st = c.init(Heap())
        h, st, a = c.malloc(h, st, 4)
        assert a == 513
        assert [h.read(x) for x in range(513, 517)] == [0, 0, 0, 0]

    def test_first_allocation_takes_the_first_fit_above_upper_max(self):
        c = curious(9, 2047)
        h, st = c.init(Heap())
        h.define(range(513, 514), 7)
        h, st, a = c.malloc(h, st, 2)
        assert (a, h.read(513), h.read(514)) == (514, 7, 0)  # cell 513 keeps its value
        c = curious(4, 47)  # [17, 47] above upper_max 16
        h, st = c.init(Heap())
        h.define(range(17, 46), 1)
        assert c.malloc(h, st, 3)[1:] == (("none",), 0)  # no 3 free cells there
        assert c.malloc(h, st, 2)[2] == 46

    def test_second_commits_by_cell_sign(self):
        c = curious(9, 2047)
        h, st = c.init(Heap())
        h, st, a = c.malloc(h, st, 4)
        positive = h.copy()
        positive.write(a, 5)
        _, st_pos, b = c.malloc(positive, st, 4)
        assert (b, st_pos[:3]) == (257, ("span", 257, 512))
        _, st_zero, b2 = c.malloc(h, st, 4)  # cell still zero
        assert (b2, st_zero[:3]) == (1, ("span", 1, 256))

    def test_later_allocations_stay_in_semispace(self):
        c = curious(9, 2047)
        h, st = c.init(Heap())
        h, st, a = c.malloc(h, st, 4)
        h, st, b = c.malloc(h, st, 4)
        h, st, d = c.malloc(h, st, 8)
        assert b == 1 and d == 5
        assert all(1 <= x <= 256 for x in (b, d))

    def test_zero_sized_allocation_fails(self):
        c = curious(9, 2047)
        h, st = c.init(Heap())
        assert c.malloc(h, st, 0)[2] == 0

    def test_semispace_exhaustion_fails(self):
        c = curious(4, 47)  # semispaces hold 8 cells each
        h, st = c.init(Heap())
        h, st, a = c.malloc(h, st, 2)
        h, st, b = c.malloc(h, st, 8)
        assert b == 1
        h, st, d = c.malloc(h, st, 1)
        assert d == 0  # the chosen semispace is full

    def test_init_wipes_world_only(self):
        c = curious(4, 47)
        h, st = c.init(Heap({3: 9, 60: 4}))
        assert 3 not in h
        assert h.read(60) == 4

    def test_init_costs_the_heap_not_the_world(self):
        # The world has 2**31 + 1 cells; init walks the three-cell heap.
        start = time.perf_counter()
        h, st = CuriousAlloc(3, 2**31).init(Heap({3: 9, 2**31: 1, 2**31 + 5: 4}))
        assert time.perf_counter() - start < 1.0
        assert dict(h.items()) == {2**31 + 5: 4} and st == ("none",)


class TestNullAlloc:
    def test_always_fails(self):
        n = null_alloc()
        h, st = n.init(Heap({0: 1}))
        assert n.null(st) == 1  # smallest address outside the domain
        assert n.malloc(h, st, 1)[2] == 1
        assert n.malloc(h, st, 0)[2] == 1

    def test_null_cell_inaccessible(self):
        n = null_alloc()
        h, st = n.init(reserved_heap())
        assert n.null(st) not in h


class TestNoZero:
    def test_zero_fails_without_state_change(self):
        nz = no_zero(bump(0, 100, 200))
        h, st = nz.init(Heap())
        h2, st2, a = nz.malloc(h, st, 0)
        assert a == 100
        assert (h2, st2) == (h, st)

    def test_nonzero_delegates(self):
        inner = bump(0, 100, 200)
        nz = no_zero(inner)
        h, st = nz.init(Heap())
        assert nz.malloc(h, st, 8) == inner.malloc(h, st, 8)


def test_determinism():
    for spec in ("eager:0,100,200", "bump:0,100,200", "curious:9,2047",
                 "null", "nozero(bump:0,100,200)", "lenient-bump:0,100,200",
                 "guarded-eager:0,100,200"):
        s1, s2 = parse_alloc_spec(spec), parse_alloc_spec(spec)
        h1, st1 = s1.init(reserved_heap())
        h2, st2 = s2.init(reserved_heap())
        assert (h1, st1) == (h2, st2)
        assert s1.malloc(h1, st1, 8) == s2.malloc(h2, st2, 8)


def test_parse_alloc_spec():
    assert parse_alloc_spec("eager:0,64,4096").name == "eager:0,64,4096"
    assert parse_alloc_spec("nozero(bump:0,8,72)").name == "nozero(bump:0,8,72)"
    assert parse_alloc_spec("null").name == "null"
    for bad in ("eager:1,2", "mystery:1,2,3", "nozero(", "curious:9",
                "eager:0,8,\u0667\u0662", "eager: 0, 8,72", " bump:0,8,72", "bump:0,8,72 ",
                "bump:0,8,+72", "bump:0,8,7_2", "nozero(bump:0,8,\u0667\u0662)"):
        with pytest.raises(ValueError):
            parse_alloc_spec(bad)


SPECS_IN_USE = [
    "bump:0,100,200", "bump:0,300,4096", "bump:0,4,20", "bump:0,8,72", "curious:4,4294967295",
    "curious:9,2047", "eager:0,100,200", "eager:0,64,4096", "eager:0,8,4294967296",
    "eager:2048,2112,6208", "bump:2048,2112,2176", "guarded-eager:0,100,200",
    "lenient-bump:0,100,200", "nozero(bump:0,100,200)", "nozero(bump:0,8,72)", "null",
    *(s.name for s in default_family()),
]


@pytest.mark.parametrize("spec", SPECS_IN_USE)
def test_specs_in_use_parse_to_their_own_name(spec):
    assert parse_alloc_spec(spec).name == spec


def test_every_strategy_class_is_built_from_some_spec():
    built = set()
    for spec in SPECS_IN_USE:
        s = parse_alloc_spec(spec)
        built |= {type(s), type(getattr(s, "inner", s))}
    concrete = {c for c in vars(allocators).values()
                if isinstance(c, type) and issubclass(c, Strategy) and not inspect.isabstract(c)}
    assert concrete == built
