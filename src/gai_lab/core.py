"""Flat memory model: addresses, values, heaps, address-set helpers, and
the one reader of decimal numbers in command-line text.

Addresses are natural numbers, values are unbounded Python ints, and a heap
is a finite partial map from addresses to values.  An address outside the
map's domain is *inaccessible*; reads report that distinctly (``None``)
rather than returning a default, and client-level writes to inaccessible
addresses raise -- that is exactly what makes client programs get stuck.

A heap belongs to whoever holds it.  Every mutator (:meth:`Heap.write`,
:meth:`Heap.define`, :meth:`Heap.undefine`, :meth:`Heap.fill_undefined`)
changes its receiver and returns ``None``, and :meth:`Heap.copy` is the only
way to get a second heap: a caller that needs its heap unchanged copies it
first.  Three places copy:

* ``notac.run`` copies the caller's heap before the allocator's ``init``,
  and hands its copy out at the end (as ``Outcome.heap``);
* ``alloc_model.wf_check`` and ``check_history`` copy the caller's heap
  before ``init`` in the same way;
* the well-formedness harness's walker copies the heap ``init`` left at the
  start of every walk over a history.

Cost model.  A heap is a dict of the cells it owns plus a tuple of disjoint
filled intervals ``(range, value)``, which copies share and no heap changes
in place.  Outside :meth:`Heap.write`, a heap changes by one ascending
unit-step ``range`` of addresses: :meth:`Heap.define` costs one dict store
per cell, :meth:`Heap.fill_undefined` one interval and no cell, so a
zero-filled segment costs the same at any size, and :meth:`Heap.undefine`
the smaller of the range and the dict.  :meth:`Heap.copy` copies the dict
and shares the intervals, so it costs the heap's own cells, not its filled
ones.

Records.  Every value class of the package (events, syntax, reports) derives
from :class:`Record`, which does what the standard library's data classes do
without generating code at import: its fields are the class's annotations,
after those of a record base, and a class attribute is that field's default.
``class ObsEv(Record, frozen=True)`` makes instances immutable and hashable,
and ``uncompared=("pos",)`` leaves a field out of ``==`` and ``hash``.
``==``, ``hash``, ``repr`` and the class-creation errors (a mutable default,
a field without a default after one with a default) are those of the data
class with the same fields.  The methods are plain functions of this module;
a class built in a hot loop defines its own ``__init__``, which sets each
field with ``object.__setattr__``.
"""

from __future__ import annotations

import operator
import re
from typing import Collection, Iterable, Iterator, Mapping, Optional

Addr = int
Val = int

# Upper bound on representable addresses, and the only bound on a spec:
# a segment may reach it, since no layer builds a segment's cells.
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


class Record:
    """A class whose annotations are its fields (see the module docstring).

    ``_fields`` names the fields in order and ``_defaults`` maps a field to
    its default; ``_fill`` maps each accepted number of positional arguments
    to the defaults that complete it.
    """

    _fields: tuple = ()
    _defaults: Mapping = {}
    _fill: Mapping = {0: ()}
    _uncompared: frozenset = frozenset()

    def __init_subclass__(cls, frozen: bool = False, uncompared: Iterable[str] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        fields = cls._fields + tuple(name for name in own if name not in cls._fields)
        defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        for i, name in enumerate(fields):
            if name in defaults and type(defaults[name]).__hash__ is None:
                raise ValueError(f"mutable default {type(defaults[name])} for field {name} is not allowed")
            if name not in defaults and i and fields[i - 1] in defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
        tail = tuple(defaults[name] for name in fields if name in defaults)
        cls._fields, cls._defaults = fields, defaults
        cls._fill = {len(fields) - k: tail[len(tail) - k:] for k in range(len(tail) + 1)}
        cls._uncompared = cls._uncompared | frozenset(uncompared)
        # ``get`` reads the compared fields in C: a tuple of them, or the value
        # of the only one, which ``hash`` wraps in a tuple as a data class does.
        compared = [name for name in fields if name not in cls._uncompared]
        get = operator.attrgetter(*compared) if compared else lambda record: ()

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        cls.__eq__ = __eq__
        if frozen:
            cls.__hash__ = (lambda self: hash((get(self),))) if len(compared) == 1 else lambda self: hash(get(self))
            cls.__setattr__ = cls.__delattr__ = _frozen
        else:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fill = None if kwargs else self._fill.get(len(args))
        for name, value in zip(self._fields, self._bind(args, kwargs) if fill is None else args + fill):
            object.__setattr__(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """Every field's value from a call that names fields by keyword;
        ``TypeError`` where a function with the fields as parameters raises it."""
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in self._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return tuple(values[f] if f in values else self._defaults[f] for f in fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"


def _frozen(self: Record, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of a frozen record."""
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


class InaccessibleWrite(Exception):
    """Client write to an address outside the heap domain."""

    def __init__(self, addr: Addr):
        super().__init__(f"write to inaccessible address {addr}")
        self.addr = addr


def _checked(addrs: range) -> range:
    """``addrs`` if it is an ascending unit-step range inside ``[0, H_MAX_DEFAULT)``.

    Raises ``TypeError`` for anything but a ``range`` and ``ValueError`` for a
    stepped, descending or out-of-bounds one.  An empty unit-step range
    passes: it names no cell.  Checking a range's two ends checks every cell.
    """
    if not isinstance(addrs, range):
        raise TypeError(f"heap addresses must be a range, not {type(addrs).__name__}")
    if addrs.step != 1 or (addrs and not (0 <= addrs.start and addrs.stop <= H_MAX_DEFAULT)):
        raise ValueError(f"{addrs!r} is not an ascending unit-step range inside [0, {H_MAX_DEFAULT})")
    return addrs


class Heap:
    """Finite partial map ``Addr -> Val``, changed in place by its holder.

    A heap is a dict of the cells it owns, which shadow a shared tuple of
    disjoint filled intervals ``(range, value)`` that is never changed in
    place, so :meth:`copy` costs the heap's own cells.  The mutators change
    the receiver and return ``None``; a failed one changes nothing.
    """

    __slots__ = ("_cells", "_fills")

    def __init__(self, entries: Optional[Mapping[Addr, Val]] = None):
        self._cells, self._fills = dict(entries or {}), ()
        for a in self._cells:
            if not isinstance(a, int) or a < 0 or a >= H_MAX_DEFAULT:
                raise ValueError(f"address {a!r} outside [0, {H_MAX_DEFAULT})")

    def read(self, a: Addr) -> Optional[Val]:
        """Mapped value, or ``None`` when the address is inaccessible: one
        dict lookup, and a scan of the intervals only on a miss."""
        v = self._cells.get(a)
        if v is None:
            for r, v in self._fills:
                if a in r:
                    return v
            return None
        return v

    def read_many(self, addrs: Collection[Addr]) -> list:
        """:meth:`read` of each address of ``addrs``, in order: one pass with the
        first interval's value as the default inside it, one per further one."""
        get, fills = self._cells.get, self._fills
        if not fills:
            return list(map(get, addrs))
        r, v = fills[0]
        lo, hi = r.start, r.stop
        out = [get(a) if a < lo or a >= hi else get(a, v) for a in addrs]
        for r, v in fills[1:]:  # disjoint intervals: a cell takes at most one default
            lo, hi = r.start, r.stop
            out = [x if a < lo or a >= hi else get(a, v) for a, x in zip(addrs, out)]
        return out

    def write(self, a: Addr, v: Val) -> None:
        """Remap an existing address.  The domain never changes here."""
        if a not in self._cells and self.read(a) is None:
            raise InaccessibleWrite(a)
        self._cells[a] = v

    def define(self, addrs: range, v: Val) -> None:
        """Allocator-side domain extension: map every address of ``addrs``, one
        ascending unit-step range, to ``v``, at one dict store per cell."""
        cells = self._cells
        for a in _checked(addrs):
            cells[a] = v

    def fill_undefined(self, addrs: range, v: Val) -> None:
        """Map the addresses of ``addrs``, one ascending unit-step range, that lie
        outside the domain to ``v`` as one interval, less the earlier ones:
        the dict cells shadow it, and no cell is built."""
        if _checked(addrs):
            new = ((addrs, v),)
            for r, _v in self._fills:
                new = _cut(new, r)
            self._fills += new

    def undefine(self, addrs: range) -> None:
        """Drop the addresses of ``addrs``, one ascending unit-step range, from
        the domain at the cost of the smaller of the range and the dict, and
        cut the intervals once."""
        cells, addrs = self._cells, _checked(addrs)
        for a in [a for a in cells if a in addrs] if len(cells) < len(addrs) else addrs:
            cells.pop(a, None)
        if self._fills and addrs:
            self._fills = _cut(self._fills, addrs)

    def copy(self) -> "Heap":
        """An equal heap that no later change to either heap can reach: it
        copies the dict and shares the intervals."""
        h = Heap.__new__(Heap)
        h._cells, h._fills = self._cells.copy(), self._fills
        return h

    def items(self) -> Iterator[tuple[Addr, Val]]:
        return iter(sorted(({a: v for r, v in self._fills for a in r} | self._cells).items()))

    def __contains__(self, a: Addr) -> bool:
        return a in self._cells or (self._fills != () and self.read(a) is not None)

    def __len__(self) -> int:
        # Intervals are disjoint, so each dict cell is shadowed by at most one.
        return len(self._cells) + sum(len(r) - sum(map(r.__contains__, self._cells)) for r, _v in self._fills)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Heap) and list(self.items()) == list(other.items())

    def __repr__(self) -> str:
        m = list(self.items())
        more = "" if len(m) <= 12 else f", ... ({len(m)} entries)"
        return "Heap({" + ", ".join(f"{a}:{v}" for a, v in m[:12]) + more + "})"


def _cut(fills: tuple, hole: range) -> tuple:
    """The intervals ``fills`` without the cells of ``hole``, a non-empty
    ascending unit-step range; no interval comes out empty."""
    return tuple((part, v) for r, v in fills
                 for part in (range(r.start, min(r.stop, hole.start)), range(max(r.start, hole.stop), r.stop)) if part)
