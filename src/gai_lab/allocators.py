"""Concrete allocation strategies.

Each strategy is one class, built from the numbers of the spec that
:func:`parse_alloc_spec` reads and that the strategy prints as its ``name``:

* ``eager:N1,N2,N3``          -- ``EagerAlloc``: first-fit; frees release memory
* ``bump:N1,N2,N3``           -- ``BumpAlloc``: bump pointer; frees are no-ops
* ``curious:m,heapMax``       -- ``CuriousAlloc``: semispace chosen by client memory
* ``null``                    -- ``NullAlloc``: every allocation fails
* ``nozero(inner)``           -- ``NoZeroAlloc``: fails zero-sized allocations
* ``lenient-bump:N1,N2,N3``   -- ``LenientBumpAlloc``: bump, null cell accessible
* ``guarded-eager:N1,N2,N3``  -- ``GuardedEagerAlloc``: eager, one-cell guards

so ``EagerAlloc(2048, 2112, 6208)`` is ``eager:2048,2112,6208``.

The last two are discriminators: deliberately permissive (or defensive)
behaviors that are still well-formed, used by the differential GAI checker
to separate programs that depend on allocator internals.

First fit is one helper, :func:`_first_fit`.  Eager, guarded-eager and
curious hand it their live blocks' merged extents in address order, and it
jumps over an extent in one step (address-ordered first fit, as surveyed by
Wilson, Johnstone, Neely & Boles, *Dynamic Storage Allocation: A Survey and
Critical Review*, 1995).  It still tests each candidate window cell by cell
in the heap, so the fit is exactly the scan of every cell: a block's cells
are defined by its malloc and undefined only by its own free, and any other
cell defined inside the segment, such as a reserved cell that a client
update defined, is still avoided.  A malloc or free costs O(log live
blocks) Python steps, an O(live blocks) C-level tuple copy, and its own
cells; a malloc also takes one step per extent whose gap is too small for it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from .alloc_model import Strategy
from .core import H_MAX_DEFAULT, Addr, Heap, parse_int


def _first_fit(heap, lo: Addr, end: Addr, span: int, guard: int = 0, runs: tuple = ()) -> Optional[Addr]:
    """The least ``a >= lo`` with ``a + span <= end`` such that ``[a, a + span)``
    meets no run and no cell of ``[a - guard, a + span + guard)`` is in ``heap``.

    ``runs`` is a flat ascending tuple ``(x0, y0, x1, y1, ...)`` of disjoint,
    non-touching runs ``[x, y)``.  A window that meets a run jumps past it in
    one step; every other candidate window tests its ``span + 2 * guard``
    cells in ``heap``, where a clash at ``c`` skips to ``c + guard + 1``.
    """
    a, i = lo, bisect_right(runs, lo)
    while a + span <= end:
        if i & 1:  # a lies in the run that ends at runs[i]
            a, i = runs[i], i + 1
        elif i < len(runs) and runs[i] < a + span:  # the window reaches the next run
            a, i = runs[i + 1], i + 2
        else:
            for c in range(a - guard, a + span + guard):
                if c in heap:
                    a = c + guard + 1
                    i = bisect_right(runs, a, i)
                    break
            else:
                return a
    return None


def _paint(runs: tuple, x: Addr, y: Addr, on: bool) -> tuple:
    """``runs`` (as :func:`_first_fit` reads them) with the cells ``[x, y)``
    covered when ``on``, uncovered otherwise; touching runs merge.

    ``x`` becomes a bound unless the cell ``x - 1`` is already painted so,
    and ``y`` unless the cell ``y`` is: ``i`` counts the bounds below ``x``
    and ``j`` those up to ``y``, and an odd count means that cell is in a run.
    """
    i, j = bisect_left(runs, x), bisect_right(runs, y)
    return runs[:i] + ((x,) if (i & 1) != on else ()) + ((y,) if (j & 1) != on else ()) + runs[j:]


class _SegmentAlloc(Strategy):
    """A strategy over the segment [n1, n3) whose initial part [n1, n2) is
    its client window; null is n2 and the name is ``kind:n1,n2,n3``.  The
    segment and n2 lie below the heap's address bound ``H_MAX_DEFAULT``."""

    kind: str

    def __init__(self, n1: Addr, n2: Addr, n3: Addr):
        self.name = f"{self.kind}:{n1},{n2},{n3}"
        if not (0 <= n1 <= n2 <= n3 <= H_MAX_DEFAULT and n2 < H_MAX_DEFAULT):
            raise ValueError(f"bad segment {self.name}")
        self.n1, self.n2, self.n3 = n1, n2, n3
        self.window = (n1, n2)

    def null(self, state) -> Addr:
        return self.n2


class EagerAlloc(_SegmentAlloc):
    """First-fit allocator; frees undefine the freed block.

    A block at ``a`` takes ``[a, a+max(s,1))``, which must avoid both the
    heap domain and the cells of live blocks (the latter covers zero-sized
    allocations, whose addresses occupy no heap cells), and fit inside the
    segment; guarded-eager also keeps ``guard`` free cells on each side.

    The state is ``(blocks, runs)``: the live ``(a, size)`` blocks in address
    order, and the merged extents ``[a - guard, a + max(size, 1) + guard)``
    of those blocks as :func:`_first_fit` runs, where no new block's cell
    may lie.  The runs skip only windows that a live block's cells or a
    zero-sized block's address rule out, so the fit is exact (see the module
    docstring).  A malloc or free costs O(log live blocks) Python steps, an
    O(live blocks) C-level tuple copy, and its own cells; a malloc also
    tests ``max(size, 1) + 2 * guard`` heap cells per window it tries.
    """

    kind = "eager"
    guard = 0  # cells kept free around each block; nonzero in guarded-eager

    def init(self, heap: Heap):
        heap.undefine(range(self.n2, self.n3))
        return heap, ((), ())

    def malloc(self, heap: Heap, state, size: int):
        blocks, runs = state
        span, g = max(size, 1), self.guard
        a = _first_fit(heap, self.n2 + 1, self.n3, span, g, runs)
        if a is None:
            return heap, state, self.null(state)
        if size > 0:
            heap.define(range(a, a + size), 0)
        i = bisect_left(blocks, (a,))
        return heap, (blocks[:i] + ((a, size),) + blocks[i:], _paint(runs, a - g, a + span + g, True)), a

    def free(self, heap: Heap, state, addr: Addr):
        blocks, runs = state
        i = bisect_left(blocks, (addr,))
        if i == len(blocks) or blocks[i][0] != addr:
            # Unregistered frees are ignored.
            return heap, state
        a, size = blocks[i]
        heap.undefine(range(a, a + size))
        # The runs lose the cells within guard of this block and of no
        # other; only the neighbours in address order can share them.
        g = self.guard
        lo, hi = a - g, a + max(size, 1) + g
        if i:
            p, p_size = blocks[i - 1]
            lo = max(lo, p + max(p_size, 1) + g)
        if i + 1 < len(blocks):
            hi = min(hi, blocks[i + 1][0] - g)
        return heap, (blocks[:i] + blocks[i + 1 :], _paint(runs, lo, hi, False))


class GuardedEagerAlloc(EagerAlloc):
    """Eager, but every block keeps one undefined guard cell on each side."""

    kind = "guarded-eager"
    guard = 1


class BumpAlloc(_SegmentAlloc):
    """Bump-pointer allocator; frees are no-ops.

    Init zero-fills the undefined cells of (n2, n3) as one heap interval and
    undefines the null cell; zero-sized requests bump by one.
    """

    kind = "bump"

    def init(self, heap: Heap):
        # The null cell lies outside the filled range, which fill_undefined
        # adds as one interval without building its cells.
        self._init_null_cell(heap)
        heap.fill_undefined(range(self.n2 + 1, self.n3), 0)
        return heap, self.n2 + 1

    def _init_null_cell(self, heap: Heap) -> None:
        heap.undefine(range(self.n2, self.n2 + 1))

    def malloc(self, heap: Heap, state: int, size: int):
        bump = state + (1 if size == 0 else size)
        if bump <= self.n3:
            return heap, bump, state
        return heap, state, self.null(state)

    def free(self, heap: Heap, state, addr: Addr):
        return heap, state


class LenientBumpAlloc(BumpAlloc):
    """Bump whose null cell stays defined (0), so null dereference succeeds."""

    kind = "lenient-bump"

    def _init_null_cell(self, heap: Heap) -> None:
        heap.define(range(self.n2, self.n2 + 1), 0)


_SEGMENT_KINDS = {cls.kind: cls for cls in (EagerAlloc, GuardedEagerAlloc, BumpAlloc, LenientBumpAlloc)}


class CuriousAlloc(Strategy):
    """Two-semispace allocator whose placement depends on client memory.

    The heap world is [0, h_max]; null is 0.  The first allocation lands at
    the first fit in [upper_max+1, h_max], which is upper_max+1 after
    ``init``, and fails when no block fits there.  The second commits to one
    of the equally sized semispaces [1, lower_max] / [lower_max+1, upper_max]
    depending on the sign of the client-visible first cell of the first
    allocation, and all later allocations are served from the chosen
    semispace.  Zero-sized allocations fail; frees are no-ops.

    The committed state ``("span", lo, hi, runs)`` names the semispace
    ``[lo, hi]`` and carries the blocks placed there as merged
    :func:`_first_fit` runs.  Their cells stay defined, since frees are
    no-ops, so the runs only skip windows the heap test would reject, and a
    malloc costs what an eager one does.
    """

    def __init__(self, m: int, h_max: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        if m >= (H_MAX_DEFAULT - 1).bit_length():  # 2**m >= H_MAX_DEFAULT, known before it is built
            raise ValueError(f"m {m} puts upper_max 2**{m} at or past the heap's address bound {H_MAX_DEFAULT}")
        self.m = m
        self.h_max = h_max
        self.lower_max = 2 ** (m - 1)
        self.upper_max = 2**m
        if h_max <= self.upper_max:
            raise ValueError(f"h_max {h_max} leaves no room above upper_max {self.upper_max}")
        if h_max >= H_MAX_DEFAULT:
            raise ValueError(f"h_max {h_max} is not below the heap's address bound {H_MAX_DEFAULT}")
        self.name = f"curious:{m},{h_max}"
        self.window = (h_max + 1, H_MAX_DEFAULT)

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
            a = _first_fit(heap, self.upper_max + 1, self.h_max + 1, size)
            if a is None:
                return heap, state, 0
            heap.define(range(a, a + size), 0)
            return heap, ("first", a), a
        if tag == "first":
            v = heap.read(state[1])
            upper = v is not None and v > 0
            # Committed regardless of whether this allocation succeeds.
            state = ("span", self.lower_max + 1, self.upper_max, ()) if upper else ("span", 1, self.lower_max, ())
        _, lo, hi, runs = state
        a = _first_fit(heap, lo, hi + 1, size, 0, runs)
        if a is None:
            return heap, state, 0
        heap.define(range(a, a + size), 0)
        return heap, ("span", lo, hi, _paint(runs, a, a + size, True)), a

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
        self.window = inner.window

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


def parse_alloc_spec(text: str) -> Strategy:
    """Parse an allocator selection string.

    Grammar: ``eager:N1,N2,N3`` | ``bump:N1,N2,N3`` | ``curious:m,heapMax``
    | ``null`` | ``nozero(<inner>)`` | ``lenient-bump:N1,N2,N3``
    | ``guarded-eager:N1,N2,N3``, with every number in ASCII digits and no
    spaces anywhere, so a spec reads exactly as the name it prints.  The
    inner spec of a ``nozero`` is not itself a ``nozero``.
    """
    if text == "null":
        return NullAlloc()
    if text.startswith("nozero(") and text.endswith(")"):
        inner = text[len("nozero(") : -1]
        if inner.startswith("nozero("):  # idempotent, and no recursion per level
            raise ValueError(f"bad allocator spec {text!r}: nozero( directly inside nozero(")
        return NoZeroAlloc(parse_alloc_spec(inner))
    if ":" not in text:
        raise ValueError(f"bad allocator spec {text!r}")
    kind, _, args = text.partition(":")
    try:
        nums = [parse_int(x) for x in args.split(",")]
    except ValueError:
        raise ValueError(f"bad allocator spec {text!r}") from None
    if kind in _SEGMENT_KINDS and len(nums) == 3:
        return _SEGMENT_KINDS[kind](*nums)
    if kind == "curious" and len(nums) == 2:
        return CuriousAlloc(*nums)
    raise ValueError(f"bad allocator spec {text!r}")
