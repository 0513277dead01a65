"""Allocator formalism: strategies, symbolic allocation sequences, the
step/run feasibility relations, and the randomized well-formedness harness.

A strategy exposes ``null``/``init``/``malloc``/``free`` over a heap and an
opaque state.  Symbolic sequences abstract the malloc/free history: a free
names the malloc it releases by counting successful mallocs backwards.  The
feasibility relations replay a symbolic sequence against a concrete
strategy, interleaved with client updates of the allocated memory.

The harness checks the ten allocator post-conditions

    Basic-1..6, Zero-Alloc-1..2, Rel-1..2

on pseudo-random feasible histories.  It is sound for rejection (a reported
failure replays from its stored witness) and incomplete for acceptance;
passing means "no violation found in the given trials".
"""

from __future__ import annotations

import itertools
import random
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import Addr, Heap, heap_eq_on, interval

# ---------------------------------------------------------------------------
# Symbolic allocation events


@dataclass(frozen=True)
class SymMalloc:
    """Successful allocation of ``size`` cells."""

    size: int

    def __str__(self) -> str:
        return f"M{self.size}"


@dataclass(frozen=True)
class SymFail:
    """Failed allocation of ``size`` cells."""

    size: int

    def __str__(self) -> str:
        return f"MF{self.size}"


@dataclass(frozen=True)
class SymFree:
    """Frees the allocation made ``back`` successful mallocs earlier."""

    back: int

    def __str__(self) -> str:
        return f"F{self.back}"


SymbolicEvent = SymMalloc | SymFail | SymFree
SymbolicSeq = tuple  # tuple[SymbolicEvent, ...]


def format_symseq(seq: Sequence[SymbolicEvent]) -> str:
    return ",".join(str(e) for e in seq) if seq else "(empty)"


_SYM_TOKEN = re.compile(r"(MF|M|F)([0-9]+)")
_SYM_EVENT = {"MF": SymFail, "M": SymMalloc, "F": SymFree}


def parse_symseq(text: str) -> SymbolicSeq:
    """Parse what :func:`format_symseq` writes, e.g. ``"M8,F0,MF8"`` or
    ``"(empty)"``; anything else raises ``ValueError``."""
    if text == "(empty)":
        return ()
    events = []
    for tok in text.split(","):
        match = _SYM_TOKEN.fullmatch(tok)
        if match is None:
            raise ValueError(f"bad symbolic event {tok!r}")
        events.append(_SYM_EVENT[match[1]](int(match[2])))
    return tuple(events)


def free_index(seq: Sequence[SymbolicEvent], back: int) -> Optional[int]:
    """1-based index of the ``back``-th successful malloc counting backwards.

    ``None`` when the recursion bottoms out (not enough mallocs).
    """
    z = back
    for n in range(len(seq), 0, -1):
        if isinstance(seq[n - 1], SymMalloc):
            if z == 0:
                return n
            z -= 1
    return None


def back_index(seq: Sequence[SymbolicEvent], i: int) -> int:
    """The ``back`` with which a free appended to ``seq`` releases position ``i``.

    Counts the successful mallocs after the 1-based position ``i``; the
    inverse of :func:`free_index`.
    """
    return sum(1 for p in range(i, len(seq)) if isinstance(seq[p], SymMalloc))


def symseq_well_formed(seq: Sequence[SymbolicEvent]) -> bool:
    """No double frees, and every free resolves to some malloc."""
    matched = []
    for j, ev in enumerate(seq, start=1):
        if isinstance(ev, SymFree):
            i = free_index(seq[: j - 1], ev.back)
            if i is None:
                return False
            matched.append(i)
    return len(matched) == len(set(matched))


# ---------------------------------------------------------------------------
# Allocation maps


@dataclass(frozen=True)
class AllocEntry:
    """A live allocation: address, size, and 1-based sequence position."""

    addr: Addr
    size: int
    index: int


AllocationMap = frozenset  # frozenset[AllocEntry]


def addresses_of(m: Iterable[AllocEntry]) -> frozenset:
    """Union of the intervals [addr, addr+size) over all entries."""
    out: set[int] = set()
    for e in m:
        out.update(interval(e.addr, e.addr + e.size))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Strategy interface


class Strategy(ABC):
    """An allocator: null/init/malloc/free over (heap, opaque state).

    Implementations must be deterministic (identical inputs give identical
    outputs; the Rel-1 replay check relies on this) and value-like: an
    instance holds configuration only, never run state.  Run state is the
    value threaded through ``init``/``malloc``/``free``.  ``null`` takes the
    state because the null allocator fixes its null address at init time.
    A malloc failed when it returned the null of the state it started from.

    ``malloc`` and ``free`` return either the heap they were given or a new
    one, and keep no reference to either: the interpreter and the
    well-formedness harness write client cells into the heap they pass in
    place.
    """

    name: str = "strategy"

    @abstractmethod
    def init(self, heap: Heap) -> tuple[Heap, object]: ...

    @abstractmethod
    def null(self, state: object) -> Addr: ...

    @abstractmethod
    def malloc(self, heap: Heap, state: object, size: int) -> tuple[Heap, object, Addr]: ...

    @abstractmethod
    def free(self, heap: Heap, state: object, addr: Addr) -> tuple[Heap, object]: ...

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Infeasible(Exception):
    """The strategy's actual behavior contradicts the symbolic event."""

    def __init__(self, reason: str, position: int = 0):
        super().__init__(reason)
        self.reason = reason
        self.position = position


# ---------------------------------------------------------------------------
# Feasibility relations


def play_step(
    strategy: Strategy,
    m: AllocationMap,
    heap: Heap,
    state: object,
    prefix: SymbolicSeq,
    ev: SymbolicEvent,
) -> tuple[Heap, object, AllocationMap]:
    """One step of the play relation: realize ``ev`` after ``prefix``.

    Raises :class:`Infeasible` when the strategy cannot produce the event.
    """
    pos = len(prefix) + 1
    if isinstance(ev, SymFree):
        i = free_index(prefix, ev.back)
        if i is None:
            raise Infeasible(f"free {ev} has no matching malloc", pos)
        entry = next((e for e in m if e.index == i), None)
        if entry is None:
            raise Infeasible(f"free {ev} targets a non-live allocation (index {i})", pos)
        h2, st2 = strategy.free(heap, state, entry.addr)
        return h2, st2, m - {entry}
    if not isinstance(ev, (SymMalloc, SymFail)):
        raise TypeError(f"not a symbolic event: {ev!r}")
    null = strategy.null(state)
    h2, st2, a = strategy.malloc(heap, state, ev.size)
    if isinstance(ev, SymMalloc):
        if a == null:
            raise Infeasible(f"malloc({ev.size}) failed where success was demanded", pos)
        return h2, st2, m | {AllocEntry(a, ev.size, pos)}
    if a != null:
        raise Infeasible(f"malloc({ev.size}) succeeded where failure was demanded", pos)
    return h2, st2, m


@dataclass(frozen=True)
class ClientUpdate:
    """Slot-indexed writes into the sorted allowed address set.

    Slot indexing keeps the same abstract update applicable to different
    concrete address sets across Rel-1 replays.
    """

    writes: tuple  # tuple[tuple[int, int], ...] of (slot, value)

    def apply(self, heap: Heap, allowed: Iterable[Addr]) -> None:
        """Make the writes in ``heap`` itself, which the caller owns; a later
        write to a slot's cell wins."""
        cells = sorted(allowed)
        if cells and self.writes:
            heap.define_in_place({cells[slot % len(cells)]: value for slot, value in self.writes})


NO_UPDATE = ClientUpdate(())


def feasible_run(
    strategy: Strategy,
    reserved: frozenset,
    heap: Heap,
    state: object,
    updates: Sequence[ClientUpdate],
    seq: Sequence[SymbolicEvent],
) -> tuple[Heap, object, AllocationMap]:
    """Fold the fast-forward relation over ``seq``.

    Before each event the matching client update runs over
    ``addresses_of(m) | reserved``.  ``heap`` is left unchanged: the run
    copies it once and writes the updates into that copy in place.  The
    copy shares ``heap``'s base and copies only its overlay (see
    :mod:`gai_lab.core`), so it costs the cells changed since that base was
    built, not the size of the heap.  Raises
    :class:`Infeasible` when a step cannot be realized, ``ValueError`` on a
    length mismatch.
    """
    if len(updates) != len(seq):
        raise ValueError(f"{len(updates)} updates for {len(seq)} events")
    heap = heap.copy()
    m: AllocationMap = frozenset()
    for i, (upd, ev) in enumerate(zip(updates, seq)):
        upd.apply(heap, addresses_of(m) | reserved)
        heap, state, m = play_step(strategy, m, heap, state, tuple(seq[:i]), ev)
    return heap, state, m


# ---------------------------------------------------------------------------
# Well-formedness clauses

WF_CLAUSES = (
    "Basic-1",
    "Basic-2",
    "Basic-3",
    "Basic-4",
    "Basic-5",
    "Basic-6",
    "Zero-Alloc-1",
    "Zero-Alloc-2",
    "Rel-1",
    "Rel-2",
)


@dataclass
class WfWitness:
    """Everything needed to replay a clause violation."""

    sigma: SymbolicSeq
    updates1: tuple  # tuple[ClientUpdate, ...]
    updates2: tuple
    detail: str

    def describe(self) -> str:
        return (
            f"    sigma    = {format_symseq(self.sigma)}\n"
            f"    updates1 = {[u.writes for u in self.updates1]}\n"
            f"    updates2 = {[u.writes for u in self.updates2]}\n"
            f"    detail   = {self.detail}"
        )


@dataclass
class WfReport:
    strategy_name: str
    clause: str
    passed: bool
    seed: int
    trials: int
    failed_trial: Optional[int] = None
    witness: Optional[WfWitness] = None

    def format_line(self) -> str:
        status = "pass" if self.passed else "fail"
        trial = self.trials if self.passed else self.failed_trial
        line = f"clause={self.clause} status={status} seed={self.seed} trial={trial}"
        if self.witness is not None:
            line += "\n" + self.witness.describe()
        return line


def _single_exec_violations(
    strategy: Strategy,
    state: object,
    m: AllocationMap,
    heap: Heap,
    reserved: frozenset,
) -> list[tuple[str, str]]:
    """Per-state checks of Basic-1/2/5/6 and Zero-Alloc-1/2."""
    out = []
    entries = sorted(m, key=lambda e: e.index)
    client = addresses_of(m)
    for a, b in itertools.combinations(entries, 2):
        if max(a.addr, b.addr) < min(a.addr + a.size, b.addr + b.size):
            out.append(("Basic-1", f"allocations {a} and {b} overlap"))
        if a.addr == b.addr:
            out.append(("Zero-Alloc-1", f"address {a.addr} reused ({a} vs {b})"))
    missing = [a for a in client | reserved if a not in heap]
    if missing:
        out.append(("Basic-2", f"client-accessible addresses missing from heap: {sorted(missing)[:8]}"))
    if client & reserved:
        out.append(("Basic-5", f"allocations overlap reserved memory: {sorted(client & reserved)[:8]}"))
    null = strategy.null(state)
    if null in client or null in reserved:
        out.append(("Basic-6", f"null address {null} is client-accessible"))
    for e in entries:
        if e.size == 0 and (e.addr in client or e.addr in reserved):
            out.append(("Zero-Alloc-2", f"zero-sized allocation {e} inside client memory"))
    return out


def check_history(
    strategy: Strategy,
    reserved: frozenset,
    heap: Heap,
    sigma: SymbolicSeq,
    updates1: Sequence[ClientUpdate],
    updates2: Sequence[ClientUpdate],
) -> dict:
    """Replay one history from ``strategy.init(heap)`` and evaluate all ten
    clauses on it.

    Returns ``{clause: detail}`` for violated clauses (empty dict = clean).
    The single-execution clauses are checked after every step, which only
    instantiates the definition at each feasible prefix.
    """
    return _check_from(strategy, reserved, heap, strategy.init(heap), sigma, updates1, updates2)


def _check_from(
    strategy: Strategy,
    reserved: frozenset,
    heap: Heap,
    start: tuple,
    sigma: SymbolicSeq,
    updates1: Sequence[ClientUpdate],
    updates2: Sequence[ClientUpdate],
) -> dict:
    """:func:`check_history` with ``start = strategy.init(heap)`` given.

    Both runs start from ``start`` and leave it unchanged.
    """
    violations: dict[str, str] = {}

    def record(clause: str, detail: str) -> None:
        violations.setdefault(clause, detail)

    h0, st0 = start
    if not heap_eq_on(heap, h0, reserved):
        diff = [a for a in sorted(reserved) if heap.read(a) != h0.read(a)]
        record("Basic-3", f"init changed reserved cells {diff[:8]}")

    m: AllocationMap = frozenset()
    h, state = h0.copy(), st0
    for i, (upd, ev) in enumerate(zip(updates1, sigma)):
        upd.apply(h, addresses_of(m) | reserved)
        try:
            h_post, state, m_post = play_step(strategy, m, h, state, tuple(sigma[:i]), ev)
        except Infeasible as exc:
            # The generator only proposes feasible histories; a mismatch on
            # replay means the strategy is not deterministic.
            record("Rel-1", f"replay of generating run infeasible at step {i + 1}: {exc.reason}")
            return violations
        basis = m_post if isinstance(ev, SymFree) else m
        window = addresses_of(basis) | reserved
        if not heap_eq_on(h, h_post, window):
            diff = [a for a in sorted(window) if h.read(a) != h_post.read(a)]
            record("Basic-4", f"step {i + 1} ({ev}) modified client cells {diff[:8]}")
        m, h = m_post, h_post
        for clause, detail in _single_exec_violations(strategy, state, m, h, reserved):
            record(clause, f"after step {i + 1} ({ev}): {detail}")

    # Relational clauses: deterministic replay with the alternate updates.
    try:
        _, _, m2 = feasible_run(strategy, reserved, h0, st0, updates2, sigma)
    except Infeasible as exc:
        record("Rel-1", f"alternate updates made the sequence infeasible: {exc.reason}")
        return violations
    pairs1 = {(e.size, e.index) for e in m}
    pairs2 = {(e.size, e.index) for e in m2}
    if not pairs1 <= pairs2:
        record("Rel-2", f"final allocation maps disagree: {sorted(pairs1 - pairs2)}")
    return violations


# ---------------------------------------------------------------------------
# History generation

_SIZES = (0, 1, 2, 3, 5, 8)
_HUGE = 10**6


def _gen_update(rng: random.Random) -> ClientUpdate:
    writes = tuple(
        (rng.randrange(0, 64), rng.randint(-9, 9))
        for _ in range(rng.randrange(0, 3))
    )
    return ClientUpdate(writes)


def _gen_feasible_history(
    strategy: Strategy,
    reserved: frozenset,
    start: tuple,
    rng: random.Random,
    max_len: int,
) -> tuple[SymbolicSeq, tuple]:
    """Generate a feasible history by running the strategy in the loop from
    ``start``, the ``(heap, state)`` of its ``init``, which stays unchanged.

    Malloc attempts are recorded as M_k or MF_k according to what the
    strategy actually did, and frees only target live allocations, so the
    resulting (sigma, updates) pair is feasible by construction.
    """
    h, state = start
    h = h.copy()
    m: AllocationMap = frozenset()
    sigma: list[SymbolicEvent] = []
    updates: list[ClientUpdate] = []
    for _ in range(rng.randint(0, max_len)):
        upd = _gen_update(rng)
        upd.apply(h, addresses_of(m) | reserved)
        if m and rng.random() < 0.4:
            entry = rng.choice(sorted(m, key=lambda e: e.index))
            h, state = strategy.free(h, state, entry.addr)
            m = m - {entry}
            sigma.append(SymFree(back_index(sigma, entry.index)))
        else:
            size = _HUGE if rng.random() < 0.12 else rng.choice(_SIZES)
            null = strategy.null(state)
            h, state, a = strategy.malloc(h, state, size)
            if a == null:
                sigma.append(SymFail(size))
            else:
                sigma.append(SymMalloc(size))
                m = m | {AllocEntry(a, size, len(sigma))}
        updates.append(upd)
    assert symseq_well_formed(tuple(sigma))
    return tuple(sigma), tuple(updates)


def wf_check(
    strategy: Strategy,
    reserved: frozenset,
    heap: Heap,
    trials: int = 200,
    seed: int = 0,
    max_len: int = 12,
) -> list[WfReport]:
    """Randomized allocator well-formedness check: one report per clause.

    ``strategy.init(heap)`` is called once per call; every trial generates
    its history and replays both of its runs from that one result, which is
    exact because strategies are deterministic.  Basic-3 is still judged on
    every trial, against that ``init``.

    Rejection-sound: a failing report carries a witness that
    :func:`check_history` reproduces; each is replayed, from a fresh
    ``init``, before it is reported, and ``RuntimeError`` is raised when one
    does not reproduce, which would mean a nondeterministic strategy.
    Acceptance is bounded by ``trials``.
    """
    if any(a not in heap for a in reserved):
        raise ValueError("reserved memory must be inside the heap domain")
    start = strategy.init(heap)
    failures: dict[str, tuple[int, WfWitness]] = {}
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        sigma, updates1 = _gen_feasible_history(strategy, reserved, start, rng, max_len)
        updates2 = tuple(_gen_update(rng) for _ in sigma)
        for clause, detail in _check_from(
            strategy, reserved, heap, start, sigma, updates1, updates2
        ).items():
            if clause not in failures:
                failures[clause] = (trial, WfWitness(sigma, updates1, updates2, detail))
    reports = []
    for clause in WF_CLAUSES:
        if clause in failures:
            trial, witness = failures[clause]
            report = WfReport(strategy.name, clause, False, seed, trials, trial, witness)
            if not replay_wf_witness(strategy, reserved, heap, report):
                raise RuntimeError(f"{strategy.name}: {clause} failure of trial {trial} does not replay")
            reports.append(report)
        else:
            reports.append(WfReport(strategy.name, clause, True, seed, trials))
    return reports


def replay_wf_witness(
    strategy: Strategy, reserved: frozenset, heap: Heap, report: WfReport
) -> bool:
    """Re-run a failure witness; True iff the violation reproduces."""
    if report.passed or report.witness is None:
        return False
    w = report.witness
    violations = check_history(strategy, reserved, heap, w.sigma, w.updates1, w.updates2)
    return report.clause in violations
