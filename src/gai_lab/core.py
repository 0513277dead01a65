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

Cost model.  A heap is a base dict that is never changed once built and
may be shared by many heaps, plus a private overlay holding this heap's
own writes and undefines.  Reads look in the overlay, then in the base, so
a mutator changes only the overlay, or for :meth:`Heap.fill_undefined`
swaps in a new flat base, and never a base that another heap can see.
One rule copies: :meth:`Heap.copy` shares the base and copies the overlay,
so it costs the cells changed since the base was built, not the size of
the heap.

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


def _checked(addrs: Iterable[Addr]) -> Sequence[Addr]:
    """``addrs`` as a sequence whose every address lies in ``[0, H_MAX_DEFAULT)``.

    A ``range`` is monotone, so checking its two ends checks every cell,
    and one that passes is returned without building anything.
    """
    if isinstance(addrs, range):
        if not addrs or (0 <= addrs.start < H_MAX_DEFAULT and 0 <= addrs[-1] < H_MAX_DEFAULT):
            return addrs
        ends = (addrs.start, addrs[-1])
    else:
        addrs = ends = list(addrs)
    for a in ends:
        if not isinstance(a, int) or a < 0 or a >= H_MAX_DEFAULT:
            raise ValueError(f"address {a!r} outside [0, {H_MAX_DEFAULT})")
    return addrs


class Heap:
    """Finite partial map ``Addr -> Val``, changed in place by its holder.

    A heap is a base dict, never changed once built and shared by the heaps
    copied from it, plus a private overlay that maps each cell this heap
    changed to its value, or to ``None`` where the heap undefined it.  Reads
    look in the overlay, then in the base.  :meth:`write`, :meth:`define`,
    :meth:`undefine` and :meth:`fill_undefined` change the receiver and
    return ``None``; a failed one changes nothing.  :meth:`copy` is the only
    way to get a second heap (see the module docstring for the cost).
    """

    __slots__ = ("_base", "_over")

    def __init__(self, entries: Optional[Mapping[Addr, Val]] = None):
        base = dict(entries) if entries else {}
        _checked(base)
        self._base = base
        self._over: dict = {}

    def read(self, a: Addr) -> Optional[Val]:
        """Mapped value, or ``None`` when the address is inaccessible."""
        return self._base.get(a) if a not in self._over else self._over[a]

    def read_many(self, addrs: Iterable[Addr]) -> list:
        """:meth:`read` of each address of ``addrs``, in order."""
        over, base = self._over, self._base
        return [over[a] if a in over else base.get(a) for a in addrs]

    def write(self, a: Addr, v: Val) -> None:
        """Remap an existing address.  The domain never changes here."""
        over = self._over
        if over.get(a, self._base.get(a)) is None:
            raise InaccessibleWrite(a)
        over[a] = v

    def define(self, addrs: Iterable[Addr], v: Val) -> None:
        """Allocator-side domain extension: map every address in ``addrs`` to
        ``v``, checked first, at one overlay store per cell."""
        over = self._over
        for a in _checked(addrs):
            over[a] = v

    def fill_undefined(self, addrs: Iterable[Addr], v: Val) -> None:
        """Map the addresses of ``addrs`` outside the domain to ``v``.

        Defined cells keep their values.  The heap gets one new flat base.
        """
        base = dict.fromkeys(_checked(addrs), v)
        base.update(self._cells())
        self._base, self._over = base, {}

    def undefine(self, addrs: Iterable[Addr]) -> None:
        """Drop addresses from the domain (make them inaccessible).

        Walks whichever is smaller, the heap's cells or an address ``range``, one store per address.
        """
        base, over = self._base, self._over
        if isinstance(addrs, range) and len(base) + len(over) < len(addrs):
            addrs = [a for a in itertools.chain(base, over) if a in addrs]
        for a in addrs:
            over[a] = None

    def copy(self) -> "Heap":
        """An equal heap that no later change to either heap can reach: it
        shares the base and copies the overlay."""
        h = Heap.__new__(Heap)
        h._base, h._over = self._base, self._over.copy()
        return h

    def _cells(self) -> dict:
        """The merged view; never change it, it may be the shared base."""
        return _flat(self._base, self._over)

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
