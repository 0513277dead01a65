"""Allocator formalism: strategies, symbolic allocation sequences, the
step/run feasibility relations, and the randomized well-formedness harness.

A strategy exposes ``null``/``init``/``malloc``/``free`` over a heap and an
opaque state.  Symbolic sequences abstract the malloc/free history: a free
names the malloc it releases by counting successful mallocs backwards.
Each symbolic event class declares its tag (``M``, ``MF``, ``F``) once, and
printing and parsing a sequence such as ``M8,F0,MF8`` read it from there.
The feasibility relations replay a symbolic sequence against a concrete
strategy, interleaved with client updates of the allocated memory.

The harness checks the ten allocator post-conditions

    Basic-1..6, Zero-Alloc-1..2, Rel-1..2

on pseudo-random feasible histories, two runs per trial (see
:func:`wf_check`).  One walker is the only loop over the steps of a
history and the only place that realizes a symbolic event; it draws or
replays a history, may judge it as it goes, and carries its facts from
step to step, so a step costs one strategy call (see :func:`_walk`).
Draws go through :func:`_below`, which consumes a trial's
``random.Random`` exactly as ``randrange`` would.  The harness is sound
for rejection (a reported failure replays from its stored witness) and
incomplete for acceptance; passing means "no violation found in the given
trials".  The play relation by its definition is the test oracle
``tests/wf_oracle.py``.
"""

from __future__ import annotations

import itertools
import random
import re
from abc import ABC, abstractmethod
from typing import Iterable, Optional, Sequence

from .core import H_MAX_DEFAULT, Addr, Heap, InaccessibleWrite, Record

# ---------------------------------------------------------------------------
# Symbolic allocation events


class _SymEvent:
    """Symbolic events: ``tag`` names the event in a written sequence, and
    ``str`` prints the tag and the one field, as in ``M8``."""

    def __str__(self) -> str:
        return f"{self.tag}{getattr(self, self._fields[0])}"


class SymMalloc(_SymEvent, Record, frozen=True):
    """Successful allocation of ``size`` cells."""

    tag = "M"
    size: int

    def __init__(self, size: int):
        object.__setattr__(self, "size", size)


class SymFail(_SymEvent, Record, frozen=True):
    """Failed allocation of ``size`` cells."""

    tag = "MF"
    size: int

    def __init__(self, size: int):
        object.__setattr__(self, "size", size)


class SymFree(_SymEvent, Record, frozen=True):
    """Frees the allocation made ``back`` successful mallocs earlier."""

    tag = "F"
    back: int

    def __init__(self, back: int):
        object.__setattr__(self, "back", back)


SymbolicEvent = SymMalloc | SymFail | SymFree
SymbolicSeq = tuple  # tuple[SymbolicEvent, ...]


def format_symseq(seq: Sequence[SymbolicEvent]) -> str:
    return ",".join(str(e) for e in seq) if seq else "(empty)"


# ``MF`` is tried before ``M``.
_SYM_TOKEN = re.compile(r"(MF|M|F)([0-9]+)")
_SYM_EVENT = {cls.tag: cls for cls in (SymMalloc, SymFail, SymFree)}


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


def back_index(seq: Sequence[SymbolicEvent], i: int) -> int:
    """The ``back`` with which a free appended to ``seq`` releases position ``i``.

    Counts the successful mallocs after the 1-based position ``i``: a free
    with that ``back`` names the ``back``-th successful malloc counting
    backwards from the end of ``seq``.
    """
    return sum(1 for p in range(i, len(seq)) if isinstance(seq[p], SymMalloc))


# ---------------------------------------------------------------------------
# Allocation maps


class AllocEntry(Record, frozen=True):
    """A live allocation: address, size, and 1-based sequence position."""

    addr: Addr
    size: int
    index: int

    def __init__(self, addr: Addr, size: int, index: int):
        object.__setattr__(self, "addr", addr)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "index", index)


AllocationMap = frozenset  # frozenset[AllocEntry]


def addresses_of(m: Iterable[AllocEntry]) -> frozenset:
    """Union of the intervals [addr, addr+size) over all entries."""
    out: set[int] = set()
    for e in m:
        out.update(range(e.addr, e.addr + e.size))
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

    ``init``, ``malloc`` and ``free`` change the heap they are given and
    return it, and keep no reference to it: the heap belongs to the caller,
    which writes client cells into it between calls (see
    :mod:`gai_lab.core`).  They change it through ``define``, ``undefine``
    and ``fill_undefined``, each over one ascending unit-step ``range``.
    """

    name: str = "strategy"
    window: Optional[tuple] = None  # cells [lo, hi) left to the client, if any; see gai.variable_base

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


class ClientUpdate(Record, frozen=True):
    """Slot-indexed writes into the sorted allowed address set.

    Slot indexing keeps the same abstract update applicable to different
    concrete address sets across Rel-1 replays.
    """

    writes: tuple  # tuple[tuple[int, int], ...] of (slot, value)

    def __init__(self, writes: tuple):
        object.__setattr__(self, "writes", writes)

    def apply(self, heap: Heap, cells: Sequence[Addr]) -> None:
        """Make the writes in ``heap`` into ``cells``, the sorted allowed
        cells; a later write to a slot's cell wins.  A cell that a broken
        strategy left undefined gets defined rather than raising."""
        for slot, value in self.writes if cells else ():
            cell = cells[slot % len(cells)]
            try:
                heap.write(cell, value)
            except InaccessibleWrite:
                heap.define(range(cell, cell + 1), value)


NO_UPDATE = ClientUpdate(())


def feasible_run(
    strategy: Strategy,
    reserved: frozenset,
    heap: Heap,
    state: object,
    updates: Sequence[ClientUpdate],
    seq: Sequence[SymbolicEvent],
) -> tuple[Heap, object, AllocationMap]:
    """Fold the fast-forward relation over ``seq``: an unjudged
    :func:`_walk` from ``(heap, state)``, left unchanged: the walk copies it.

    Before each event the matching client update runs over
    ``addresses_of(m) | reserved``.  Raises :class:`Infeasible` when a step
    cannot be realized, ``ValueError`` on a length mismatch.
    """
    return _walk(strategy, reserved, (heap, state), _replay(updates, seq))[:3]


def _replay(updates: Sequence[ClientUpdate], seq: Sequence[SymbolicEvent]):
    """The plan that demands ``seq[i]`` after ``updates[i]``."""
    if len(updates) != len(seq):
        raise ValueError(f"{len(updates)} updates for {len(seq)} events")
    return lambda live, sigma: (updates[len(sigma)], seq[len(sigma)]) if len(sigma) < len(seq) else None


def _walk(strategy: Strategy, reserved: frozenset, start: tuple, plan, judge: Optional[dict] = None) -> tuple:
    """The one loop over the steps of a history, and the only place that
    realizes a symbolic event; returns ``(heap, state, m, sigma, updates)``.

    ``plan(live, sigma)`` gives each step's ``(update, request)``, or
    ``None`` at the end; ``live`` holds the live entries in index order.
    A request is a symbolic event, or a size: a malloc realized as M if it
    succeeds and as MF if it fails.  The walk copies ``start``'s heap once,
    sharing its filled intervals (see :mod:`gai_lab.core`), and the updates
    and the strategy change that copy.  It carries the live map (index ->
    entry), the 1-based positions of the successful mallocs, where a free
    ``F_back`` finds its index at ``[-1 - back]``, and the allowed set
    ``addresses_of(m) | reserved`` with its sorted cells: a malloc adds its
    block, a free recomputes the set.  ``m`` is built only to be returned.
    Raises :class:`Infeasible` when the strategy cannot produce a demanded
    event, ``TypeError`` on a request that is not one.

    A ``judge`` dict gets each clause's first violation.  Basic-4 and
    Basic-2 come from reads of the allowed cells before and after each
    strategy step, plus the new block's cells.  Basic-1, Zero-Alloc-1 and
    Basic-5 compare only a new entry with the live ones and the reserved
    cells, which is exact because a walk starts from an empty map and
    entries never change.  Basic-6 and Zero-Alloc-2 are judged in full.
    A drawn block holds at most 8 cells; only an explicit history, such as
    one passed to :func:`check_history`, can hand the walk a bigger one.
    """
    heap, state = start[0].copy(), start[1]
    live, mallocs = {}, []  # live: index -> entry, in index order; mallocs: positions of the Ms
    entries = live.values()
    allowed, cells = reserved, sorted(reserved)  # allowed is addresses_of(m) | reserved
    sigma, updates = [], []
    while (step := plan(entries, sigma)) is not None:
        upd, ev = step
        if upd.writes:  # an update without writes needs no allowed cells
            upd.apply(heap, cells)
        if judge is not None:
            before = heap.read_many(cells)
        pos = len(sigma) + 1
        new, fresh, allowed2 = None, (), allowed  # fresh: new cells outside allowed
        if isinstance(ev, SymFree):
            if not 0 <= ev.back < len(mallocs):
                raise Infeasible(f"free {ev} has no matching malloc", pos)
            i = mallocs[-1 - ev.back]
            if i not in live:
                raise Infeasible(f"free {ev} targets a non-live allocation (index {i})", pos)
            state = strategy.free(heap, state, live.pop(i).addr)[1]
            allowed2 = addresses_of(entries) | reserved
        elif isinstance(ev, (SymMalloc, SymFail, int)):
            size = ev if isinstance(ev, int) else ev.size
            null = strategy.null(state)
            _, state, a = strategy.malloc(heap, state, size)
            if a == null:
                if isinstance(ev, SymMalloc):
                    raise Infeasible(f"malloc({size}) failed where success was demanded", pos)
            elif isinstance(ev, SymFail):
                raise Infeasible(f"malloc({size}) succeeded where failure was demanded", pos)
            else:
                new = live[pos] = AllocEntry(a, size, pos)
                mallocs.append(pos)
                block = range(a, a + size)
                if fresh := frozenset(block) - allowed:
                    allowed2 = allowed | fresh
            if isinstance(ev, int):
                ev = SymFail(size) if new is None else SymMalloc(size)
        else:
            raise TypeError(f"not a symbolic event: {ev!r}")
        sigma.append(ev)
        updates.append(upd)
        if judge is not None:  # messages are formatted only on a violation
            after = heap.read_many(cells)
            if after != before:
                window = allowed2 if isinstance(ev, SymFree) else allowed
                if diff := [a for a, x, y in zip(cells, before, after) if x != y and a in window]:
                    judge.setdefault("Basic-4", f"step {pos} ({ev}) modified client cells {diff[:8]}")
            found = []
            if new is not None:
                for e in itertools.islice(entries, len(live) - 1):  # the entries before new
                    if max(e.addr, new.addr) < min(e.addr + e.size, new.addr + new.size):
                        found.append(("Basic-1", f"allocations {e} and {new} overlap"))
                    if e.addr == new.addr:
                        found.append(("Zero-Alloc-1", f"address {e.addr} reused ({e} vs {new})"))
            missing = [a for a, x in zip(cells, after) if x is None and a in allowed2] if None in after else []
            if fresh:
                missing += [a for a, x in zip(fresh, heap.read_many(fresh)) if x is None]
            if missing:
                found.append(("Basic-2", f"client-accessible addresses missing from heap: {sorted(missing)[:8]}"))
            if new is not None and (hit := reserved.intersection(block)):
                found.append(("Basic-5", f"allocations overlap reserved memory: {sorted(hit)[:8]}"))
            if (null := strategy.null(state)) in allowed2:
                found.append(("Basic-6", f"null address {null} is client-accessible"))
            if zero := next((e for e in entries if e.size == 0 and e.addr in allowed2), None):
                found.append(("Zero-Alloc-2", f"zero-sized allocation {zero} inside client memory"))
            for clause, detail in found:
                judge.setdefault(clause, f"after step {pos} ({ev}): {detail}")
        if allowed2 is not allowed:
            allowed, cells = allowed2, sorted(allowed2)
    return heap, state, frozenset(entries), tuple(sigma), tuple(updates)


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


class WfWitness(Record):
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


class WfReport(Record):
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


def _init_violations(heap: Heap, h0: Heap, reserved: frozenset) -> dict:
    """Basic-3 for ``h0``, what ``init`` made of a copy of ``heap``, as ``{clause: detail}``."""
    diff = [a for a in reserved if heap.read(a) != h0.read(a)]
    return {"Basic-3": f"init changed reserved cells {sorted(diff)[:8]}"} if diff else {}


def _judge_relational(strategy: Strategy, reserved: frozenset, start: tuple, sigma: SymbolicSeq,
                      m: AllocationMap, updates2: Sequence[ClientUpdate], violations: dict) -> None:
    """Rel-1/Rel-2: replay ``sigma`` from ``start`` with the alternate
    updates and compare with ``m``, the final map of the first run.  Rel-2
    can only fail with Rel-1: a feasible replay of ``sigma`` fixes the
    ``{(size, index)}`` of its final map, and addresses are not compared."""
    try:
        m2 = feasible_run(strategy, reserved, *start, updates2, sigma)[2]
    except Infeasible as exc:
        violations.setdefault("Rel-1", f"alternate updates made the sequence infeasible: {exc.reason}")
        return
    lost = {(e.size, e.index) for e in m} - {(e.size, e.index) for e in m2}
    if lost:
        violations.setdefault("Rel-2", f"final allocation maps disagree: {sorted(lost)}")


def check_history(
    strategy: Strategy,
    reserved: frozenset,
    heap: Heap,
    sigma: SymbolicSeq,
    updates1: Sequence[ClientUpdate],
    updates2: Sequence[ClientUpdate],
) -> dict:
    """Replay one history from ``init`` on a copy of ``heap`` and evaluate
    all ten clauses on it.

    Returns ``{clause: detail}`` for violated clauses (empty dict = clean).
    The single-execution clauses are checked after every step, which only
    instantiates the definition at each feasible prefix.
    """
    start = strategy.init(heap.copy())
    violations = _init_violations(heap, start[0], reserved)
    try:
        m = _walk(strategy, reserved, start, _replay(updates1, sigma), violations)[2]
    except Infeasible as exc:
        # wf_check draws its histories by running the strategy; a replay of
        # one that fails means the strategy is not deterministic.
        violations["Rel-1"] = f"replay of generating run infeasible at step {exc.position}: {exc.reason}"
        return violations
    _judge_relational(strategy, reserved, start, sigma, m, updates2, violations)
    return violations


# ---------------------------------------------------------------------------
# History generation

_SIZES = (0, 1, 2, 3, 5, 8)
# More cells than there are addresses, so every strategy must fail it, and a
# drawn block holds at most max(_SIZES) = 8 cells.
_HUGE = H_MAX_DEFAULT + 1


def _below(bits, n: int) -> int:
    """A draw from ``range(n)`` by ``bits``, a ``getrandbits``, made as
    CPython's ``randrange``, ``randint`` and ``choice`` make it
    (``Random._randbelow_with_getrandbits``), so it consumes the same bits."""
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _gen_update(rng: random.Random) -> ClientUpdate:
    """Up to two slot writes, each to a slot below 64 of a value in -9..9;
    :data:`NO_UPDATE` when it draws none."""
    bits = rng.getrandbits
    n = _below(bits, 3)
    return ClientUpdate(tuple([(_below(bits, 64), _below(bits, 19) - 9) for _ in range(n)])) if n else NO_UPDATE


def _draw(rng: random.Random, max_len: int):
    """The plan of a random history: a length up to ``max_len``, then per
    step an update and a free of a live allocation or a malloc whose
    outcome is recorded; a drawn block holds at most 8 cells."""
    bits = rng.getrandbits
    n = _below(bits, max_len + 1)

    def plan(live, sigma: list):
        if len(sigma) == n:
            return None
        upd = _gen_update(rng)
        if live and rng.random() < 0.4:
            entry = list(live)[_below(bits, len(live))]
            return upd, SymFree(back_index(sigma, entry.index))
        return upd, _HUGE if rng.random() < 0.12 else _SIZES[_below(bits, len(_SIZES))]

    return plan


WF_TRIALS = 200  # the default trials of a well-formedness check
WF_MAX_LEN = 12  # the default bound on the length of a trial's history


def check_wf_args(reserved: frozenset, heap: Heap, trials: int, max_len: int = WF_MAX_LEN) -> None:
    """Raise ``ValueError`` on arguments :func:`wf_check` cannot run with:
    a negative ``trials`` or ``max_len``, or a reserved cell outside ``heap``."""
    if trials < 0:
        raise ValueError(f"trials must not be negative, got {trials}")
    if max_len < 0:
        raise ValueError(f"max_len must not be negative, got {max_len}")
    if any(a not in heap for a in reserved):
        raise ValueError("reserved memory must be inside the heap domain")


def wf_check(
    strategy: Strategy,
    reserved: frozenset,
    heap: Heap,
    trials: int = WF_TRIALS,
    seed: int = 0,
    max_len: int = WF_MAX_LEN,
) -> list[WfReport]:
    """Randomized allocator well-formedness check: one report per clause.

    ``init`` is called once per call, on a copy of ``heap``, which stays
    unchanged; Basic-3 is judged on it, and each trial makes two runs from
    it.  The first draws the history and is judged as it goes.  That is
    exact: strategies are deterministic, so the judged replay of
    :func:`check_history` would repeat it step for step.  The second
    replays the history with alternate updates for Rel-1/Rel-2.
    Rejection-sound: a failing report carries a witness that
    :func:`check_history` reproduces; each is replayed, from a fresh
    ``init``, before it is reported, and ``RuntimeError`` is raised when one
    does not reproduce, which would mean a nondeterministic strategy.
    Acceptance is bounded by ``trials``; bad arguments raise ``ValueError``
    (:func:`check_wf_args`).
    """
    check_wf_args(reserved, heap, trials, max_len)
    start = strategy.init(heap.copy())
    init_violations = _init_violations(heap, start[0], reserved)
    failures: dict[str, tuple[int, WfWitness]] = {}
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        violations = dict(init_violations)
        _, _, m, sigma, updates1 = _walk(strategy, reserved, start, _draw(rng, max_len), violations)
        updates2 = tuple(_gen_update(rng) for _ in sigma)
        _judge_relational(strategy, reserved, start, sigma, m, updates2, violations)
        for clause, detail in violations.items():
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
