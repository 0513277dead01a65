"""Concrete allocation strategies.

Shipped strategies:

* ``eager``          -- first-fit over a segment, frees release memory
* ``bump``           -- bump pointer, frees are no-ops
* ``curious``        -- commits to a semispace based on client memory
* ``null``           -- every allocation fails
* ``nozero(inner)``  -- wrapper failing zero-sized allocations
* ``lenient-bump``   -- bump, but the null cell stays accessible
* ``guarded-eager``  -- eager with one-cell guards around each block

The last two are discriminators: deliberately permissive (or defensive)
behaviors that are still well-formed, used by the differential GAI checker
to separate programs that depend on allocator internals.
"""

from __future__ import annotations

from typing import Optional

from .alloc_model import Strategy
from .core import H_MAX_DEFAULT, MAX_SPEC_CELLS, Addr, Heap, Record, interval, parse_int


class SegmentParams(Record, frozen=True):
    """Memory segment [n1, n3) whose initial part [n1, n2) is reserved.

    The segment and its null address n2 lie below the heap's address bound
    ``H_MAX_DEFAULT``.
    """

    n1: Addr
    n2: Addr
    n3: Addr

    def __post_init__(self):
        if not (0 <= self.n1 <= self.n2 <= self.n3 <= H_MAX_DEFAULT and self.n2 < H_MAX_DEFAULT):
            raise ValueError(f"bad segment {self}")

    def __str__(self) -> str:
        return f"{self.n1},{self.n2},{self.n3}"


def _first_fit(heap, lo: Addr, end: Addr, span: int, guard: int = 0, starts=frozenset()) -> Optional[Addr]:
    """The least ``a >= lo`` with ``a + span <= end`` and no cell of
    ``[a - guard, a + span + guard)`` in ``heap`` or ``starts``."""
    a = lo
    while a + span <= end:
        for c in range(a - guard, a + span + guard):
            if c in heap or c in starts:
                # Every start up to c + guard still covers c.
                a = c + guard + 1
                break
        else:
            return a
    return None


class _SegmentAlloc(Strategy):
    """A strategy over one segment; null is n2, the name is ``kind:params``."""

    kind: str

    def __init__(self, params: SegmentParams):
        self.params = params
        self.name = f"{self.kind}:{params}"

    def null(self, state) -> Addr:
        return self.params.n2


class EagerAlloc(_SegmentAlloc):
    """First-fit allocator; frees undefine the freed block.

    A block at ``a`` takes ``[a, a+max(s,1))``, which must avoid both the
    heap domain and the addresses of live allocations (the latter covers
    zero-sized allocations, whose addresses occupy no heap cells), and fit
    inside the segment.
    """

    kind = "eager"
    guard = 0  # cells kept free around each block; nonzero in guarded-eager

    def init(self, heap: Heap):
        p = self.params
        heap.undefine(interval(p.n2, p.n3))
        return heap, frozenset()

    def malloc(self, heap: Heap, state, size: int):
        p = self.params
        starts = {a for (a, _s) in state}
        a = _first_fit(heap, p.n2 + 1, p.n3, max(size, 1), self.guard, starts)
        if a is None:
            return heap, state, self.null(state)
        if size > 0:
            heap.define(interval(a, a + size), 0)
        return heap, state | {(a, size)}, a

    def free(self, heap: Heap, state, addr: Addr):
        entry = next((e for e in state if e[0] == addr), None)
        if entry is None:
            # Unregistered frees are ignored.
            return heap, state
        a, size = entry
        heap.undefine(interval(a, a + size))
        return heap, state - {entry}


class GuardedEagerAlloc(EagerAlloc):
    """Eager, but every block keeps one undefined guard cell on each side."""

    kind = "guarded-eager"
    guard = 1


class BumpAlloc(_SegmentAlloc):
    """Bump-pointer allocator; frees are no-ops.

    Init zero-fills the undefined cells of (n2, n3) and undefines the null
    cell; zero-sized requests bump by one.  Init builds every cell of that
    span, so a span wider than ``MAX_SPEC_CELLS`` is rejected here.
    """

    kind = "bump"

    def __init__(self, params: SegmentParams):
        super().__init__(params)
        span = params.n3 - params.n2 - 1
        if span > MAX_SPEC_CELLS:
            raise ValueError(f"{self.name} fills {span} cells, more than MAX_SPEC_CELLS = {MAX_SPEC_CELLS}")

    def init(self, heap: Heap):
        p = self.params
        # The null cell lies outside the filled range, so it goes first, and
        # the flat base that fill_undefined builds already holds it.
        self._init_null_cell(heap)
        heap.fill_undefined(interval(p.n2 + 1, p.n3), 0)
        return heap, p.n2 + 1

    def _init_null_cell(self, heap: Heap) -> None:
        heap.undefine([self.params.n2])

    def malloc(self, heap: Heap, state: int, size: int):
        bump = state + (1 if size == 0 else size)
        if bump <= self.params.n3:
            return heap, bump, state
        return heap, state, self.null(state)

    def free(self, heap: Heap, state, addr: Addr):
        return heap, state


class LenientBumpAlloc(BumpAlloc):
    """Bump whose null cell stays defined (0), so null dereference succeeds."""

    kind = "lenient-bump"

    def _init_null_cell(self, heap: Heap) -> None:
        heap.define([self.params.n2], 0)


_SEGMENT_KINDS = {cls.kind: cls for cls in (EagerAlloc, GuardedEagerAlloc, BumpAlloc, LenientBumpAlloc)}


class CuriousAlloc(Strategy):
    """Two-semispace allocator whose placement depends on client memory.

    The heap world is [0, h_max]; null is 0.  The first allocation lands at
    upper_max+1.  The second commits to one of the equally sized semispaces
    [1, lower_max] / [lower_max+1, upper_max] depending on the sign of the
    client-visible first cell of the first allocation, and all later
    allocations are served from the chosen semispace.  Zero-sized
    allocations fail; frees are no-ops.
    """

    def __init__(self, m: int, h_max: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self.h_max = h_max
        self.lower_max = 2 ** (m - 1)
        self.upper_max = 2**m
        if h_max <= self.upper_max:
            raise ValueError(f"h_max {h_max} leaves no room above upper_max {self.upper_max}")
        if h_max >= H_MAX_DEFAULT:
            raise ValueError(f"h_max {h_max} is not below the heap's address bound {H_MAX_DEFAULT}")
        self.name = f"curious:{m},{h_max}"

    def init(self, heap: Heap):
        heap.undefine(range(0, self.h_max + 1))
        return heap, ("none",)

    def null(self, state) -> Addr:
        return 0

    def malloc(self, heap: Heap, state, size: int):
        if size <= 0:
            return heap, state, 0
        tag = state[0]
        if tag == "none":
            if _first_fit(heap, self.upper_max + 1, self.h_max + 1, size) is None:
                return heap, state, 0
            a = self.upper_max + 1
            heap.define(interval(a, a + size), 0)
            return heap, ("first", a, size), a
        if tag == "first":
            v = heap.read(state[1])
            upper = v is not None and v > 0
            # Committed regardless of whether this allocation succeeds.
            state = ("span", self.lower_max + 1, self.upper_max) if upper else ("span", 1, self.lower_max)
        lo, hi = state[1], state[2]
        a = _first_fit(heap, lo, hi + 1, size)
        if a is None:
            return heap, state, 0
        heap.define(interval(a, a + size), 0)
        return heap, state, a

    def free(self, heap: Heap, state, addr: Addr):
        return heap, state


class NullAlloc(Strategy):
    """Every allocation fails; the null address is picked at init time."""

    name = "null"

    def init(self, heap: Heap):
        null_ptr = 0
        while null_ptr in heap:
            null_ptr += 1
        return heap, null_ptr

    def null(self, state) -> Addr:
        return state

    def malloc(self, heap: Heap, state, size: int):
        return heap, state, state

    def free(self, heap: Heap, state, addr: Addr):
        return heap, state


class NoZeroAlloc(Strategy):
    """Wrapper that fails zero-sized allocations, delegating everything else."""

    def __init__(self, inner: Strategy):
        self.inner = inner
        self.name = f"nozero({inner.name})"

    def init(self, heap: Heap):
        return self.inner.init(heap)

    def null(self, state) -> Addr:
        return self.inner.null(state)

    def malloc(self, heap: Heap, state, size: int):
        if size == 0:
            return heap, state, self.inner.null(state)
        return self.inner.malloc(heap, state, size)

    def free(self, heap: Heap, state, addr: Addr):
        return self.inner.free(heap, state, addr)


# ---------------------------------------------------------------------------
# Constructors matching the CLI selection grammar


def eager(n1: Addr, n2: Addr, n3: Addr) -> EagerAlloc:
    return EagerAlloc(SegmentParams(n1, n2, n3))


def guarded_eager(n1: Addr, n2: Addr, n3: Addr) -> GuardedEagerAlloc:
    return GuardedEagerAlloc(SegmentParams(n1, n2, n3))


def bump(n1: Addr, n2: Addr, n3: Addr) -> BumpAlloc:
    return BumpAlloc(SegmentParams(n1, n2, n3))


def lenient_bump(n1: Addr, n2: Addr, n3: Addr) -> LenientBumpAlloc:
    return LenientBumpAlloc(SegmentParams(n1, n2, n3))


def curious(m: int, h_max: int) -> CuriousAlloc:
    return CuriousAlloc(m, h_max)


def null_alloc() -> NullAlloc:
    return NullAlloc()


def no_zero(inner: Strategy) -> NoZeroAlloc:
    return NoZeroAlloc(inner)


def reserved_window(strategy: Strategy) -> Optional[tuple]:
    """The [n1, n2) window a segment strategy preserves, if it has one.

    Used to pick a default variable base address consistent with the
    allocator's geometry.
    """
    if isinstance(strategy, NoZeroAlloc):
        return reserved_window(strategy.inner)
    if isinstance(strategy, _SegmentAlloc):
        return (strategy.params.n1, strategy.params.n2)
    return None


def parse_alloc_spec(text: str) -> Strategy:
    """Parse an allocator selection string.

    Grammar: ``eager:N1,N2,N3`` | ``bump:N1,N2,N3`` | ``curious:m,heapMax``
    | ``null`` | ``nozero(<inner>)`` | ``lenient-bump:N1,N2,N3``
    | ``guarded-eager:N1,N2,N3``, with every number in ASCII digits and no
    spaces anywhere, so a spec reads exactly as the name it prints.  The
    inner spec of a ``nozero`` is not itself a ``nozero``.
    """
    if text == "null":
        return null_alloc()
    if text.startswith("nozero(") and text.endswith(")"):
        inner = text[len("nozero(") : -1]
        if inner.startswith("nozero("):  # idempotent, and no recursion per level
            raise ValueError(f"bad allocator spec {text!r}: nozero( directly inside nozero(")
        return no_zero(parse_alloc_spec(inner))
    if ":" not in text:
        raise ValueError(f"bad allocator spec {text!r}")
    kind, _, args = text.partition(":")
    try:
        nums = [parse_int(x) for x in args.split(",")]
    except ValueError:
        raise ValueError(f"bad allocator spec {text!r}") from None
    if kind in _SEGMENT_KINDS and len(nums) == 3:
        return _SEGMENT_KINDS[kind](SegmentParams(*nums))
    if kind == "curious" and len(nums) == 2:
        return curious(*nums)
    raise ValueError(f"bad allocator spec {text!r}")
