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
  start of every run it replays and applies client updates to it with
  :meth:`Heap.define_in_place`.

Every mutator costs the cells it touches plus at most one dict copy made
at C speed.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, Optional, Sequence

Addr = int
Val = int

# Upper bound on representable addresses.  Allocators all work inside
# explicit segments well below this; the bound just keeps heaps finite.
H_MAX_DEFAULT = 2**32


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

    :meth:`write`, :meth:`define`, :meth:`undefine` and
    :meth:`fill_undefined` return new heaps; the receiver is never changed.
    :meth:`write_in_place` and :meth:`define_in_place` change the receiver
    and are reserved to the owner of a private copy (see the module
    docstring).
    """

    __slots__ = ("_m", "h_max")

    def __init__(self, entries: Optional[Mapping[Addr, Val]] = None, h_max: int = H_MAX_DEFAULT):
        m = dict(entries) if entries else {}
        for a in m:
            _check_addr(a, h_max)
        self._m = m
        self.h_max = h_max

    def read(self, a: Addr) -> Optional[Val]:
        """Mapped value, or ``None`` when the address is inaccessible."""
        return self._m.get(a)

    def write(self, a: Addr, v: Val) -> "Heap":
        """Remap an existing address.  The domain never changes here."""
        h = self.copy()
        h.write_in_place(a, v)
        return h

    def write_in_place(self, a: Addr, v: Val) -> None:
        """:meth:`write` into this heap itself; only for a heap the caller owns."""
        if a not in self._m:
            raise InaccessibleWrite(a)
        self._m[a] = v

    def define(self, addrs: Iterable[Addr], v: Val) -> "Heap":
        """Allocator-side domain extension: map every address in ``addrs`` to ``v``."""
        fresh = dict.fromkeys(_checked(addrs, self.h_max), v)
        h = self.copy()
        h._m.update(fresh)
        return h

    def define_in_place(self, entries: Mapping[Addr, Val]) -> None:
        """Map each address of ``entries`` to its value in this heap itself;
        only for a heap the caller owns."""
        for a in entries:
            _check_addr(a, self.h_max)
        self._m.update(entries)

    def fill_undefined(self, addrs: Iterable[Addr], v: Val) -> "Heap":
        """Map the addresses of ``addrs`` outside the domain to ``v``.

        Defined cells keep their values.
        """
        m = dict.fromkeys(_checked(addrs, self.h_max), v)
        m.update(self._m)
        return self._wrap(m)

    def undefine(self, addrs: Iterable[Addr]) -> "Heap":
        """Drop addresses from the domain (make them inaccessible).

        Walks whichever is smaller, the heap or an address ``range``.
        """
        h = self.copy()
        m = h._m
        if isinstance(addrs, range) and len(m) < len(addrs):
            addrs = [a for a in m if a in addrs]
        for a in addrs:
            m.pop(a, None)
        return h

    def copy(self) -> "Heap":
        """An equal heap that shares nothing with this one."""
        return self._wrap(dict(self._m))

    def _wrap(self, m: dict) -> "Heap":
        # Every heap a mutator or copy makes is built here from a new dict.
        h = Heap.__new__(Heap)
        h._m = m
        h.h_max = self.h_max
        return h

    def domain(self) -> frozenset:
        return frozenset(self._m)

    def items(self) -> Iterator[tuple[Addr, Val]]:
        return iter(sorted(self._m.items()))

    def __contains__(self, a: Addr) -> bool:
        return a in self._m

    def __len__(self) -> int:
        return len(self._m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Heap) and self._m == other._m

    def __hash__(self):  # pragma: no cover - heaps are not used as keys
        return hash(frozenset(self._m.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}:{v}" for a, v in sorted(self._m.items())[:12])
        more = "" if len(self._m) <= 12 else f", ... ({len(self._m)} entries)"
        return f"Heap({{{inner}{more}}})"


def heap_eq_on(h1: Heap, h2: Heap, addrs: Iterable[Addr]) -> bool:
    """True iff both heaps give the same result on every address in ``addrs``.

    "Same result" includes both addresses being inaccessible.
    """
    return all(h1.read(a) == h2.read(a) for a in addrs)


def interval(lo: Addr, hi: Addr) -> range:
    """The half-open address interval [lo, hi)."""
    return range(lo, max(lo, hi))
