"""Flat memory model: addresses, values, heaps, address-set helpers, and
the one reader of decimal numbers in command-line text.

Addresses are natural numbers, values are unbounded Python ints, and a heap
is a finite partial map from addresses to values.  An address outside the
map's domain is *inaccessible*; reads report that distinctly (``None``)
rather than returning a default, and client-level writes to inaccessible
addresses raise -- that is exactly what makes client programs get stuck.

Heaps are values: :meth:`Heap.write`, :meth:`Heap.define` and the other
mutators return a fresh heap, so a heap can be shared freely across
threads and replays.  The exceptions are :meth:`Heap.write_in_place` and
:meth:`Heap.define_in_place`, which are only for a heap nobody else can
see.  Two callers own heaps that way, and each copies its start heap once
and from then on writes client cells into that copy in place:

* ``notac.run`` copies the heap after the allocator's ``init`` and hands
  its copy out only at the end (as ``Outcome.heap``);
* the well-formedness harness in ``alloc_model`` copies the heap at the
  start of every walk over a history (a trial makes two: the run that
  draws and judges its history, and a replay with alternate updates) and
  applies client updates to it with :meth:`Heap.define_in_place`.

Cost model.  A heap is a base dict that is never changed once built and
may be shared by many heaps, plus a private overlay holding this
heap's own writes and undefines.  Reads look in the overlay, then in the
base, so the in-place twins change only the overlay and never a base that
another heap can see.  :meth:`Heap.copy` and every pure mutator except
:meth:`Heap.fill_undefined` share the base and copy the overlay with their
change applied: they cost the cells changed since the base was built plus
the cells they touch, not the size of the heap.  When that overlay would
hold more than ``FLATTEN_SHARE`` (1) times as many cells as the base, they
flatten both into a new base with C-speed dict operations instead.  Either
way a copy costs at most one C-speed copy of the base and the overlay.
:meth:`Heap.fill_undefined` builds one flat base.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Iterable, Iterator, Mapping, Optional, Sequence

Addr = int
Val = int

# Upper bound on representable addresses.  Allocators all work inside
# explicit segments well below this; the bound just keeps heaps finite.
H_MAX_DEFAULT = 2**32

# The most cells a spec may make the program build: the zero-filled span of
# a bump segment, or the reserved window of ``gai-lab wf``.  A spec of 2**32
# cells would need hundreds of gigabytes; this bound keeps a build in the
# order of 100 MB.
MAX_SPEC_CELLS = 2**20

# A new heap whose overlay would hold more than FLATTEN_SHARE times as many
# cells as its base gets a flat base instead.
FLATTEN_SHARE = 1


def parse_int(text: str, signed: bool = False) -> int:
    """``text`` read as a decimal number of ASCII digits, with one leading
    ``-`` allowed when ``signed``.

    Raises ``ValueError`` on anything else, including spaces, ``+``, ``_``
    and non-ASCII digits, all of which ``int()`` would accept.
    """
    if re.fullmatch(r"-?[0-9]+" if signed else r"[0-9]+", text) is None:
        raise ValueError(f"not a decimal number: {text!r}")
    return int(text)


class InaccessibleWrite(Exception):
    """Client write to an address outside the heap domain."""

    def __init__(self, addr: Addr):
        super().__init__(f"write to inaccessible address {addr}")
        self.addr = addr


def _check_addr(a: Addr, h_max: int) -> None:
    if not isinstance(a, int) or a < 0 or a >= h_max:
        raise ValueError(f"address {a!r} outside [0, {h_max})")


def _checked(addrs: Iterable[Addr], h_max: int) -> Sequence[Addr]:
    """``addrs`` as a sequence whose every address lies in ``[0, h_max)``.

    A ``range`` is monotone, so checking its two ends checks every cell.
    """
    if isinstance(addrs, range):
        if addrs:
            _check_addr(addrs[0], h_max)
            _check_addr(addrs[-1], h_max)
        return addrs
    addrs = list(addrs)
    for a in addrs:
        _check_addr(a, h_max)
    return addrs


class Heap:
    """Finite partial map ``Addr -> Val`` with value semantics.

    A heap is a base dict, never changed once built and shared by the heaps
    derived from it, plus a private overlay that maps each cell this heap
    changed to its value, or to ``None`` where the heap undefined it.  Reads
    look in the overlay, then in the base.

    :meth:`write`, :meth:`define`, :meth:`undefine` and :meth:`copy` return
    new heaps and never change the receiver.  Each shares the base and
    copies the overlay with its change applied; when that overlay would
    hold more than ``FLATTEN_SHARE`` times as many cells as the base, it
    flattens both into a new base instead.  :meth:`fill_undefined` always
    builds one flat base.
    :meth:`write_in_place` and :meth:`define_in_place` change only the
    receiver's overlay and are reserved to the owner of a private copy (see
    the module docstring).
    """

    __slots__ = ("_base", "_over", "h_max")

    def __init__(self, entries: Optional[Mapping[Addr, Val]] = None, h_max: int = H_MAX_DEFAULT):
        base = dict(entries) if entries else {}
        for a in base:
            _check_addr(a, h_max)
        self._base = base
        self._over: dict = {}
        self.h_max = h_max

    def read(self, a: Addr) -> Optional[Val]:
        """Mapped value, or ``None`` when the address is inaccessible."""
        return self._base.get(a) if a not in self._over else self._over[a]

    def write(self, a: Addr, v: Val) -> "Heap":
        """Remap an existing address.  The domain never changes here."""
        if a not in self:
            raise InaccessibleWrite(a)
        return self._with({a: v})

    def write_in_place(self, a: Addr, v: Val) -> None:
        """:meth:`write` into this heap itself; only for a heap the caller owns."""
        over = self._over
        if over.get(a, self._base.get(a)) is None:
            raise InaccessibleWrite(a)
        over[a] = v

    def define(self, addrs: Iterable[Addr], v: Val) -> "Heap":
        """Allocator-side domain extension: map every address in ``addrs`` to ``v``."""
        return self._with(dict.fromkeys(_checked(addrs, self.h_max), v))

    def define_in_place(self, entries: Mapping[Addr, Val]) -> None:
        """Map each address of ``entries`` to its value in this heap itself;
        only for a heap the caller owns."""
        for a in entries:
            _check_addr(a, self.h_max)
        self._over.update(entries)

    def fill_undefined(self, addrs: Iterable[Addr], v: Val) -> "Heap":
        """Map the addresses of ``addrs`` outside the domain to ``v``.

        Defined cells keep their values.  The result is one flat base.
        """
        m = dict.fromkeys(_checked(addrs, self.h_max), v)
        m.update(self._cells())
        return self._wrap(m, {})

    def undefine(self, addrs: Iterable[Addr]) -> "Heap":
        """Drop addresses from the domain (make them inaccessible).

        Walks whichever is smaller, the heap's cells or an address ``range``.
        """
        base, over = self._base, self._over
        if isinstance(addrs, range) and len(base) + len(over) < len(addrs):
            addrs = [a for a in itertools.chain(base, over) if a in addrs]
        return self._with(dict.fromkeys(addrs))

    def copy(self) -> "Heap":
        """An equal heap that no change to this one can reach."""
        return self._with({})

    def _with(self, change: dict) -> "Heap":
        """A new heap: this one with the overlay ``change`` laid on top."""
        over = self._over | change
        if len(over) > FLATTEN_SHARE * len(self._base):
            return self._wrap(_flat(self._base, over), {})
        return self._wrap(self._base, over)

    def _wrap(self, base: dict, over: dict) -> "Heap":
        # Every heap a mutator or copy makes is built here, from a new
        # overlay and either this heap's base or a new one.
        h = Heap.__new__(Heap)
        h._base = base
        h._over = over
        h.h_max = self.h_max
        return h

    def _cells(self) -> dict:
        """The merged view; never change it, it may be the shared base."""
        return _flat(self._base, self._over)

    def domain(self) -> frozenset:
        return frozenset(self._cells())

    def items(self) -> Iterator[tuple[Addr, Val]]:
        return iter(sorted(self._cells().items()))

    def __contains__(self, a: Addr) -> bool:
        return a in self._base if a not in self._over else self._over[a] is not None

    def __len__(self) -> int:
        # Base cells the overlay does not mention, plus overlay cells that
        # hold a value; C-speed set operations over the overlay.
        base, over = self._base, self._over
        if not over:
            return len(base)
        return len(base) - len(base.keys() & over.keys()) + len(over) - operator.countOf(over.values(), None)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Heap) and self._cells() == other._cells()

    def __repr__(self) -> str:
        m = self._cells()
        inner = ", ".join(f"{a}:{v}" for a, v in sorted(m.items())[:12])
        more = "" if len(m) <= 12 else f", ... ({len(m)} entries)"
        return f"Heap({{{inner}{more}}})"


def _flat(base: dict, over: dict) -> dict:
    """``base`` under ``over`` as one dict; ``base`` itself when ``over`` is
    empty, so callers must not change the result."""
    if not over:
        return base
    m = base | over
    if None in over.values():
        for a, v in over.items():
            if v is None:
                del m[a]
    return m


def heap_eq_on(h1: Heap, h2: Heap, addrs: Iterable[Addr]) -> bool:
    """True iff both heaps give the same result on every address in ``addrs``.

    "Same result" includes both addresses being inaccessible.
    """
    # Heap.read of both heaps, inlined.
    o1, b1, o2, b2 = h1._over, h1._base, h2._over, h2._base
    for a in addrs:
        if (o1[a] if a in o1 else b1.get(a)) != (o2[a] if a in o2 else b2.get(a)):
            return False
    return True


def interval(lo: Addr, hi: Addr) -> range:
    """The half-open address interval [lo, hi)."""
    return range(lo, max(lo, hi))
