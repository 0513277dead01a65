"""Bounded differential checking of gradual allocator independence.

The property: an allocator may influence a program's observable behavior
only through checked allocation failure and through explicit casts.  The
checker approximates the quantification over all well-formed allocators
with a finite family of strategies whose behaviors cover the classic
rejection arguments (null-protecting vs not, adjacent vs guarded blocks,
freed-memory-protecting vs not, always-failing, client-dependent
placement).  The verdict is rejection-sound: a reported violation replays;
a pass means "no violation found within this family and fuel".

For every producer run, at every event, the allocators whose runs have a
prefix similar to the current trace must be able to reach the event's
downgrading class: the exact event for frees and observes, any same-size
allocation outcome for malloc/mfail, any cast for casts.

The event belongs to its class, so reach at position ``j`` is impact at
``j + 1`` unless another class member (the other allocation outcome,
another cast value) extends the prefix.  A malloc's address does not matter
there: it ends the extended trace, where no free follows that could pass on
it.  Only prefixes of equal length can be similar, and one search per pair
of distinct producer and member traces (``similar_prefixes``) decides them
all, so it gives impact at every position, and with it reach, but for the
other class members: each of those takes one more search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import allocators
from .alloc_model import Strategy, wf_check
from .core import Heap
from .filtering import prefixes_similar_to, similar_prefixes
from .notac import (
    CastEv,
    Event,
    MallocEv,
    MallocFailEv,
    Outcome,
    Program,
    Trace,
    event_to_json,
    format_trace,
    run,
)

# ---------------------------------------------------------------------------
# Downgrading characterization


@dataclass(frozen=True)
class AllocClass:
    """All malloc/mfail events of one size."""

    size: int


@dataclass(frozen=True)
class CastClass:
    """All cast events."""


@dataclass(frozen=True)
class Singleton:
    """Exactly one event: no downgrading."""

    event: Event


EventClass = AllocClass | CastClass | Singleton


def dchar(ev: Event) -> EventClass:
    """Per-event bound on the allocator information the event may release."""
    if isinstance(ev, (MallocEv, MallocFailEv)):
        return AllocClass(ev.size)
    if isinstance(ev, CastEv):
        return CastClass()
    return Singleton(ev)


def clause_name(cls: EventClass) -> str:
    if isinstance(cls, AllocClass):
        return "malloc-progress"
    if isinstance(cls, CastClass):
        return "cast-progress"
    return "noninterference"


# ---------------------------------------------------------------------------
# Impact approximations


def _class_candidates(cls: EventClass, probe_trace: Trace) -> list:
    """Finite candidate events for the existential over the class.

    A candidate ends the extended trace, where no free follows that could
    pass on a malloc's address, so one successful malloc drawn from the
    probe stands for every address; cast and singleton events are matched
    by exact value, so only values the probe actually produced can work.
    """
    if isinstance(cls, AllocClass):
        cands: list = [MallocFailEv(cls.size)]
        for ev in probe_trace:
            if isinstance(ev, MallocEv) and ev.size == cls.size:
                cands.append(ev)
                break
        return cands
    if isinstance(cls, CastClass):
        seen, cands = set(), []
        for ev in probe_trace:
            if isinstance(ev, CastEv) and ev.val not in seen:
                seen.add(ev.val)
                cands.append(ev)
        return cands
    return [cls.event]


def _reached_by_another(t: Trace, ev: Event, probe: Trace) -> bool:
    """Does a prefix of ``probe`` realize ``t`` extended by a member of ``ev``'s
    class other than ``ev``?  Mallocs of one size count as one (see above)."""
    return any(
        prefixes_similar_to(t + (c,), probe)
        for c in _class_candidates(dchar(ev), probe)
        if c != ev and not (isinstance(c, MallocEv) and isinstance(ev, MallocEv))
    )


# ---------------------------------------------------------------------------
# The differential check


class FamilyNotWellFormed(Exception):
    def __init__(self, strategy_name: str, failures: list):
        lines = "; ".join(f"{r.clause}: {r.witness.detail if r.witness else ''}" for r in failures)
        super().__init__(f"family member {strategy_name} failed well-formedness: {lines}")
        self.strategy_name = strategy_name
        self.failures = failures


@dataclass
class Violation:
    producer: str
    witness_member: str
    position: int
    clause: str  # noninterference | malloc-progress | cast-progress
    prefix: Trace
    event: Event
    producer_trace: Trace
    witness_trace: Trace

    def describe(self) -> str:
        return (
            f"violation at event #{self.position + 1} of {self.producer}: "
            f"{self.clause} fails for {self.witness_member}\n"
            f"  prefix        = {format_trace(self.prefix)}\n"
            f"  next event    = {self.event}\n"
            f"  producer run  = {format_trace(self.producer_trace)}\n"
            f"  witness run   = {format_trace(self.witness_trace)}"
        )


@dataclass
class GaiReport:
    verdict: str  # "pass" | "violation" | "inconclusive"
    violation: Optional[Violation] = None
    inconclusive: tuple = ()  # names of fuel-exhausted probes involved in failures
    outcomes: dict = field(default_factory=dict)  # member name -> its run's Outcome

    @property
    def runs(self) -> dict:
        """Member name -> (outcome kind, trace)."""
        return {name: (o.kind, o.trace) for name, o in self.outcomes.items()}

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "violation": 1, "inconclusive": 2}[self.verdict]

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "runs": {
                name: {"outcome": kind, "trace": [event_to_json(e) for e in trace]}
                for name, (kind, trace) in self.runs.items()
            },
        }
        if self.violation is not None:
            v = self.violation
            out["violation"] = {
                "producer": v.producer,
                "witness_member": v.witness_member,
                "position": v.position,
                "clause": v.clause,
                "prefix": [event_to_json(e) for e in v.prefix],
                "event": event_to_json(v.event),
            }
        if self.inconclusive:
            out["inconclusive_probes"] = list(self.inconclusive)
        return out


def default_family() -> list[Strategy]:
    """Discriminating strategies for programs laid out by ``default_env``.

    The bump window is deliberately small (capacity 63) so that large
    requests fail in-family while moderate ones succeed; the curious world
    sits below the variable block; eager/guarded share a roomy segment.
    """
    return [
        allocators.eager(*DEFAULT_EAGER_SEGMENT),
        allocators.guarded_eager(*DEFAULT_EAGER_SEGMENT),
        allocators.bump(*DEFAULT_BUMP_SEGMENT),
        allocators.lenient_bump(*DEFAULT_BUMP_SEGMENT),
        allocators.curious(*DEFAULT_CURIOUS),
        allocators.null_alloc(),
        allocators.no_zero(allocators.bump(*DEFAULT_BUMP_SEGMENT)),
    ]


DEFAULT_CURIOUS = (9, 2047)  # semispaces [1,256]/[257,512], first region [513,2047]
DEFAULT_ENV_BASE = 2048  # variables live just above the curious world
DEFAULT_EAGER_SEGMENT = (2048, 2112, 6208)
DEFAULT_BUMP_SEGMENT = (2048, 2112, 2176)


def check_family_wf(
    family: Sequence[Strategy],
    reserved: frozenset,
    heap: Heap,
    trials: int = 25,
    seed: int = 0,
) -> None:
    """Raise :class:`FamilyNotWellFormed` if any member flunks a clause."""
    for strategy in family:
        failures = [r for r in wf_check(strategy, reserved, heap, trials, seed) if not r.passed]
        if failures:
            raise FamilyNotWellFormed(strategy.name, failures)


def gai_check(
    program: Program,
    env: dict,
    heap: Heap,
    family: Optional[Sequence[Strategy]] = None,
    fuel: int = 100_000,
    wf_trials: int = 25,
    wf_seed: int = 0,
) -> GaiReport:
    """Differential GAI verdict for one program under one family.

    For each producer run and event position: every family member whose run
    has a prefix similar to the position's trace prefix must reach the
    event's downgrading class.  The first failure (producers in family
    order, positions ascending, witnesses in family order) is reported.  A
    reaching-check that fails against a fuel-exhausted probe is recorded as
    inconclusive, never as a violation.

    One search per distinct pair of producer trace ``u`` and member trace
    ``v`` gives the row ``{i : u[:i] is similar to v[:i]}``: the members
    that ran ``v`` are in the impact of ``u[:j]`` when ``j`` is in the row,
    and reach ``u[j]`` itself when ``j + 1`` is;
    ``_reached_by_another`` tries the rest of the class.  Raises
    ``ValueError`` on an empty family, and :class:`FamilyNotWellFormed` when
    a member fails the well-formedness check.
    """
    family = list(default_family() if family is None else family)
    if not family:
        raise ValueError("the family is empty")
    check_family_wf(family, frozenset(env.values()), heap, wf_trials, wf_seed)

    outcomes: list[tuple[Strategy, Outcome]] = [
        (beta, run(env, beta, program, heap, fuel)) for beta in family
    ]
    by_name = {beta.name: o for beta, o in outcomes}
    index: dict = {}  # distinct trace -> its position in ``traces``
    member_trace = [index.setdefault(o.trace, len(index)) for _, o in outcomes]
    traces = list(index)
    rows: dict = {}  # a producer's distinct trace -> its row against each of ``traces``
    inconclusive: list[str] = []

    for (alpha, out_a), a in zip(outcomes, member_trace):
        u = out_a.trace
        if a not in rows:
            rows[a] = [similar_prefixes(u, v) for v in traces]
        for j, ev in enumerate(u):
            unreached = [
                j in row and j + 1 not in row and not _reached_by_another(u[:j], ev, v)
                for row, v in zip(rows[a], traces)
            ]
            for (beta, out_b), d in zip(outcomes, member_trace):
                if not unreached[d]:
                    continue
                if out_b.kind == "out-of-fuel":
                    inconclusive.append(
                        f"{beta.name} ran out of fuel while checking event #{j + 1} of {alpha.name}"
                    )
                    continue
                violation = Violation(
                    producer=alpha.name,
                    witness_member=beta.name,
                    position=j,
                    clause=clause_name(dchar(ev)),
                    prefix=u[:j],
                    event=ev,
                    producer_trace=u,
                    witness_trace=out_b.trace,
                )
                return GaiReport("violation", violation, tuple(inconclusive), by_name)
    if inconclusive:
        return GaiReport("inconclusive", None, tuple(inconclusive), by_name)
    return GaiReport("pass", None, (), by_name)
