"""Bounded differential checking of gradual allocator independence.

The property: an allocator may influence a program's observable behavior
only through checked allocation failure and through explicit casts.  The
checker approximates the quantification over all well-formed allocators
with a finite family of strategies whose behaviors cover the classic
rejection arguments (null-protecting vs not, adjacent vs guarded blocks,
freed-memory-protecting vs not, always-failing, client-dependent
placement).  The verdict is rejection-sound: a reported violation replays;
a pass means "no violation found within this family and fuel", and that no
member ran out of fuel.

For every producer run ``u``, at every event ``u[j]``, each member whose run
``v`` has a prefix similar to ``u[:j]`` must reach the event's downgrading
class: some event ``c`` of the class must make ``u[:j] + (c,)`` similar to
a prefix of ``v``.  The class of a malloc or mfail is every malloc and mfail
of its size, that of a cast is every cast, and a free or an observe is alone
in its class.  Only prefixes of equal length can be similar, so one search
per pair of distinct traces (``similar_prefixes``) gives the row
``{i : u[:i] is similar to v[:i]}``, and reach needs nothing more: when
``j`` is in the row, ``v`` reaches ``u[j]``'s class exactly when ``j + 1`` is
in the row or ``v[j]`` lies in that class.

Why this is exact.  Every alloc event consumes one filter item; observes
and casts never consume one and always land in the residue.  So similar
traces have equal numbers of alloc events, and equal numbers of observes
plus casts.  Let ``u[:j]`` be similar to ``v[:j]`` and ``c`` lie in
``u[j]``'s class.

* Alloc class of size ``s``.  If ``u[:j] + (c,)`` is similar to ``v[:j+1]``,
  then ``v[j]`` is an alloc event; both ``c`` and ``v[j]`` are last events,
  so both consume the filter's last item: same kind, same size.
  Conversely, if ``v[j]`` is an alloc of size ``s``, take ``c`` with
  ``v[j]``'s item and append that item to the filter of ``u[:j]``.  No free
  follows, so a malloc's address cannot matter.
* Cast class.  ``v[j]`` must be an observe or a cast, and the residues end
  in ``c`` and in ``v[j]``, so ``v[j] = c``.  Conversely, ``c = v[j]`` joins
  both residues.
* Observe and free.  The class has no other member, and an equal last
  event joins both residues, so reach is ``j + 1`` in the row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import allocators
from .alloc_model import Strategy, wf_check
from .core import Heap
from .filtering import similar_prefixes
from .notac import (
    DEFAULT_FUEL,
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
# Downgrading classes


def same_class(a: Event, b: Event) -> bool:
    """Do ``a`` and ``b`` lie in one downgrading class (module docstring)?"""
    if isinstance(a, (MallocEv, MallocFailEv)):
        return isinstance(b, (MallocEv, MallocFailEv)) and a.size == b.size
    if isinstance(a, CastEv):
        return isinstance(b, CastEv)
    return a == b


def clause_name(ev: Event) -> str:
    """The clause a member fails when it cannot reach ``ev``'s class."""
    if isinstance(ev, (MallocEv, MallocFailEv)):
        return "malloc-progress"
    if isinstance(ev, CastEv):
        return "cast-progress"
    return "noninterference"


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
    inconclusive: tuple = ()  # entries naming the members that ran out of fuel
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
    fuel: int = DEFAULT_FUEL,
    wf_trials: int = 25,
    wf_seed: int = 0,
) -> GaiReport:
    """Differential GAI verdict for one program under one family.

    For each producer run and event position: every family member whose run
    has a prefix similar to the position's trace prefix must reach the
    event's downgrading class.  The first failure (producers in family
    order, positions ascending, witnesses in family order) is reported.  A
    reaching-check that fails against a fuel-exhausted probe is recorded as
    inconclusive, never as a violation; when no check fails, a member that
    ran out of fuel still makes the verdict inconclusive.

    One search per pair of distinct producer trace ``u`` and member trace
    ``v`` gives the row ``{i : u[:i] is similar to v[:i]}``, and the row and
    ``v[j]`` decide reach at ``j`` (module docstring).  A trace's row
    against itself is every length and rows are symmetric, so a passing
    check runs d * (d - 1) / 2 searches for d distinct traces.  Raises
    ``ValueError`` on an empty family or a negative ``wf_trials``, and
    :class:`FamilyNotWellFormed` when a member flunks well-formedness.
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
        if a not in rows:  # rows are symmetric, and a trace is similar to itself everywhere
            rows[a] = [rows[b][a] if b in rows else set(range(len(u) + 1)) if b == a else similar_prefixes(u, v)
                       for b, v in enumerate(traces)]
        for j, ev in enumerate(u):
            unreached = [
                j in row and j + 1 not in row and not (j < len(v) and same_class(v[j], ev))
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
                    clause=clause_name(ev),
                    prefix=u[:j],
                    event=ev,
                    producer_trace=u,
                    witness_trace=out_b.trace,
                )
                return GaiReport("violation", violation, tuple(inconclusive), by_name)
    if not inconclusive:
        inconclusive = [
            f"{beta.name} ran out of fuel ({fuel} steps)" for beta, o in outcomes if o.kind == "out-of-fuel"
        ]
    return GaiReport("inconclusive" if inconclusive else "pass", None, tuple(inconclusive), by_name)
