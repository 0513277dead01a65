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

Well-formedness is checked only where a verdict rests on it.  The property
quantifies over well-formed allocators, and every obligation the check
tests names one producer, one witness and one position; a family's
obligations include those of each of its subfamilies.  So a pass over the
family is a pass over its well-formed members, and needs no well-formedness
check.  A violation must come from two well-formed members, so the
producer and the witness of the first failing obligation are checked just
before it is reported, and :class:`FamilyNotWellFormed` names the first of
them that flunks.

For every producer run ``u``, at every event ``u[j]``, each member whose run
``v`` has a prefix similar to ``u[:j]`` must reach the event's downgrading
class: some event ``c`` of the class must make ``u[:j] + (c,)`` similar to
a prefix of ``v``.  The class of a malloc or mfail is every malloc and mfail
of its size, that of a cast is every cast, and a free or an observe is alone
in its class.  Only prefixes of equal length can be similar, so one search
per pair of distinct traces (``similar_prefixes``) gives the row
``{i : u[:i] is similar to v[:i]}``, and reach needs nothing more: when
``j`` is in the row, ``v`` reaches ``u[j]``'s class exactly when ``j + 1`` is
in the row or ``v[j]`` lies in that class.  So each pair of distinct traces
gives its unreached positions once, and a producer member visits only
those, in (position, member) order, the order in which reports are made.

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

from typing import Optional, Sequence

from . import allocators
from .alloc_model import Strategy, check_wf_args, wf_check
from .core import H_MAX_DEFAULT, Heap, Record
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


class Violation(Record):
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


class GaiReport(Record):
    verdict: str  # "pass" | "violation" | "inconclusive"
    violation: Optional[Violation]
    inconclusive: tuple  # entries naming the members that ran out of fuel
    outcomes: dict  # member name, ``name#k`` for its k-th copy -> its run's Outcome

    @property
    def runs(self) -> dict:
        """Member name, as in ``outcomes`` -> (outcome kind, trace)."""
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
    """Discriminating strategies; ``variable_base`` puts variables in their shared window.

    The bump window is deliberately small (capacity 63) so that large
    requests fail in-family while moderate ones succeed; the curious world
    sits below the variable block; eager/guarded share a roomy segment.
    """
    return [
        allocators.EagerAlloc(*DEFAULT_EAGER_SEGMENT),
        allocators.GuardedEagerAlloc(*DEFAULT_EAGER_SEGMENT),
        allocators.BumpAlloc(*DEFAULT_BUMP_SEGMENT),
        allocators.LenientBumpAlloc(*DEFAULT_BUMP_SEGMENT),
        allocators.CuriousAlloc(*DEFAULT_CURIOUS),
        allocators.NullAlloc(),
        allocators.NoZeroAlloc(allocators.BumpAlloc(*DEFAULT_BUMP_SEGMENT)),
    ]


DEFAULT_CURIOUS = (9, 2047)  # semispaces [1,256]/[257,512], first region [513,2047]
DEFAULT_ENV_BASE = 2048  # variables live just above the curious world
DEFAULT_EAGER_SEGMENT = (2048, 2112, 6208)
DEFAULT_BUMP_SEGMENT = (2048, 2112, 2176)
DEFAULT_WF_TRIALS = 25  # well-formedness trials per member a violation rests on


def variable_base(family: Sequence[Strategy], count: int) -> int:
    """Where ``count`` variables start: at the start of the window that every
    member's ``window`` shares, or ``DEFAULT_ENV_BASE`` (the default family's
    start) when none names one.  ``ValueError`` when that window is too small."""
    windows = [s.window for s in family if s.window] or [(DEFAULT_ENV_BASE, H_MAX_DEFAULT)]
    base = max(lo for lo, _ in windows)
    hi = max(base, min(hi for _, hi in windows))
    if hi - base < count:
        raise ValueError(f"the reserved window [{base}, {hi}) holds {hi - base} cells,"
                         f" fewer than the program's {count} variables")
    return base


def check_family_wf(
    family: Sequence[Strategy],
    reserved: frozenset,
    heap: Heap,
    trials: int = DEFAULT_WF_TRIALS,
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
    wf_trials: int = DEFAULT_WF_TRIALS,
    wf_seed: int = 0,
) -> GaiReport:
    """Differential GAI verdict for one program under one family.

    For each producer run and event position: every family member whose run
    has a prefix similar to the position's trace prefix must reach the
    event's downgrading class, and the first failure is reported.  A
    reaching-check that fails against a fuel-exhausted probe is recorded as
    inconclusive, never as a violation; when no check fails, a member that
    ran out of fuel still makes the verdict inconclusive.

    One search per pair of distinct producer trace ``u`` and member trace
    ``v`` gives the row ``{i : u[:i] is similar to v[:i]}``, and the row and
    ``v[j]`` give, once per pair, the positions ``j`` that ``v`` fails to
    reach (module docstring).  Producers go in family order, and each visits
    only those positions, in (position, member) order: the order in which
    reports and probes are made.  A trace reaches itself everywhere and rows
    are symmetric, so a passing check runs d * (d - 1) / 2 searches for d
    distinct traces.

    A pass or an inconclusive verdict runs no well-formedness check (module
    docstring): only the producer and the witness of a violation are
    checked, with ``wf_trials`` and ``wf_seed``, and
    :class:`FamilyNotWellFormed` is raised when either flunks.  The report
    names the k-th copy of a member name (k >= 2) ``name#k``, so it keeps
    every run; a copy never fails first, as its earlier copy fails there too.
    Raises ``ValueError`` before any run on an empty family, a negative
    ``wf_trials`` or a variable cell outside ``heap``.
    """
    family = list(default_family() if family is None else family)
    if not family:
        raise ValueError("the family is empty")
    reserved = frozenset(env.values())
    check_wf_args(reserved, heap, wf_trials)

    names = [beta.name for beta in family]
    labels = [f"{n}#{k}" if (k := names[: i + 1].count(n)) > 1 else n for i, n in enumerate(names)]
    outcomes: list[tuple[Strategy, Outcome]] = [
        (beta, run(env, beta, program, heap, fuel)) for beta in family
    ]
    by_label = {label: o for label, (_, o) in zip(labels, outcomes)}
    index: dict = {}  # distinct trace -> its position in ``traces``
    member_trace = [index.setdefault(o.trace, len(index)) for _, o in outcomes]
    traces = list(index)
    rows: dict = {}  # a producer's distinct trace -> its row against each of ``traces``
    unreached: dict = {}  # a producer's distinct trace -> the positions each of ``traces`` fails to reach
    inconclusive: list[str] = []

    for (alpha, out_a), a, alpha_label in zip(outcomes, member_trace, labels):
        u = out_a.trace
        if a not in rows:  # rows are symmetric, and a trace reaches itself everywhere
            rows[a] = [rows[b][a] if b in rows else similar_prefixes(u, v) if b != a else None
                       for b, v in enumerate(traces)]
            unreached[a] = [[j for j in row if j < len(u) and j + 1 not in row
                             and not (j < len(v) and same_class(v[j], u[j]))] if b != a else []
                            for b, (row, v) in enumerate(zip(rows[a], traces))]
        for j, i in sorted((j, i) for i, b in enumerate(member_trace) for j in unreached[a][b]):
            (beta, out_b), beta_label = outcomes[i], labels[i]
            if out_b.kind == "out-of-fuel":
                inconclusive.append(f"{beta_label} ran out of fuel while checking event #{j + 1} of {alpha_label}")
                continue
            check_family_wf([alpha, beta], reserved, heap, wf_trials, wf_seed)
            violation = Violation(
                producer=alpha_label,
                witness_member=beta_label,
                position=j,
                clause=clause_name(u[j]),
                prefix=u[:j],
                event=u[j],
                producer_trace=u,
                witness_trace=out_b.trace,
            )
            return GaiReport("violation", violation, tuple(inconclusive), by_label)
    if not inconclusive:
        inconclusive = [
            f"{label} ran out of fuel ({fuel} steps)" for label, o in by_label.items() if o.kind == "out-of-fuel"
        ]
    return GaiReport("inconclusive" if inconclusive else "pass", None, tuple(inconclusive), by_label)
