"""The differential GAI checker."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gai_lab.allocators import (
    BumpAlloc as bump,
    EagerAlloc as eager,
    LenientBumpAlloc as lenient_bump,
    NullAlloc as null_alloc,
)
from gai_lab.corpus import CASES, prepare_case, xor_script
from gai_lab.filtering import prefixes_similar_to, similar_prefixes
from gai_lab.gai import (
    DEFAULT_ENV_BASE,
    FamilyNotWellFormed,
    check_family_wf,
    default_family,
    gai_check,
    same_class,
)
from gai_lab.notac import CastEv, FreeEv, MallocEv, MallocFailEv, ObsEv, make_env, parse, run
from test_gai_oracle import bruteforce_prefixes_similar, bruteforce_reaches, class_members


def prepared(src, base=DEFAULT_ENV_BASE, inits=None):
    prog = parse(src)
    env, heap, _ = make_env(prog, base, inits or {})
    return prog, env, heap


def corpus_case(name):
    return prepare_case(next(case for case in CASES if case.name == name), default_family())


class TestClauseName:
    def test_placement_feeding_a_malloc_size_fails_malloc_progress(self):
        report = gai_check(*corpus_case("technical-feedback"), wf_trials=5)
        assert report.verdict == "violation"
        assert report.violation.clause == "malloc-progress"

    def test_placement_feeding_a_cast_fails_cast_progress(self):
        src = "p = malloc(8); q = malloc(8); if (p < q) { x = cast(p); } else { observe(1); }"
        report = gai_check(*prepared(src), wf_trials=5)
        assert report.verdict == "violation"
        assert report.violation.clause == "cast-progress"


def trace_of(strategy, prog, env, heap):
    return run(env, strategy, prog, heap).trace


def reaches(t, ev, probe):
    """Some prefix of ``probe`` is similar to ``t`` extended by a member of
    ``ev``'s class, as the oracle enumerates the class."""
    return any(prefixes_similar_to(t + (c,), probe) for c in class_members(ev, (t + (ev,), probe)))


class TestImpactMember:
    # A member is in the impact of t when some prefix of its run is similar to t.
    def test_own_trace_is_in_impact(self):
        prog, env, heap = prepared("p = malloc(8); observe(1);")
        trace = trace_of(eager(2048, 2112, 6208), prog, env, heap)
        hits = prefixes_similar_to(trace, trace)
        assert hits and hits[0] == len(trace)

    def test_null_alloc_outside_impact_of_success(self):
        prog, env, heap = prepared("p = malloc(8); observe(1);")
        t = (MallocEv(8, 2113),)
        assert prefixes_similar_to(t, trace_of(null_alloc(), prog, env, heap)) == []

    def test_empty_trace_hits_everyone(self):
        prog, env, heap = prepared("p = malloc(8);")
        assert prefixes_similar_to((), trace_of(null_alloc(), prog, env, heap))


class TestReachesClass:
    def test_alloc_class_reached_by_success_and_failure(self):
        prog, env, heap = prepared("p = malloc(8);")
        for strategy in (eager(2048, 2112, 6208), null_alloc()):
            assert reaches((), MallocFailEv(8), trace_of(strategy, prog, env, heap))

    def test_singleton_unreached_when_stuck(self):
        prog, env, heap = prepared("p = malloc(87); *(p) = 42; observe(42);")
        strict = bump(2048, 2112, 2176)  # malloc(87) fails, null protected
        ev = ObsEv(42)
        t = (MallocFailEv(87),)
        assert not reaches(t, ev, trace_of(strict, prog, env, heap))
        lenient = lenient_bump(2048, 2112, 2176)
        assert reaches(t, ev, trace_of(lenient, prog, env, heap))

    def test_cast_class_needs_a_cast(self):
        prog, env, heap = prepared("p = malloc(8); observe(1);")
        trace = trace_of(eager(2048, 2112, 6208), prog, env, heap)
        assert not reaches((), CastEv(0), trace)

    def test_singleton_equals_impact_of_extension(self):
        prog, env, heap = prepared("p = malloc(8); free(p); observe(3);")
        trace = trace_of(eager(2048, 2112, 6208), prog, env, heap)
        t = (MallocEv(8, 2113), FreeEv(2113))
        ev = ObsEv(3)
        in_impact = bool(prefixes_similar_to(t + (ev,), trace))
        assert class_members(ev, (trace,)) == [ev]
        assert reaches(t, ev, trace) == in_impact

    def test_malloc_address_never_matters_at_the_end(self):
        prog, env, heap = prepared("p = malloc(8); free(p); q = malloc(8);")
        trace = trace_of(eager(2048, 2112, 6208), prog, env, heap)
        t = (MallocEv(8, 2113), FreeEv(2113))
        assert trace[2] == MallocEv(8, 2113)  # eager reuses the freed block
        for addr in (2113, 3000):  # the probe's address and another one
            assert prefixes_similar_to(t + (MallocEv(8, addr),), trace) == [3]
        # so a malloc at 3000 is reached, as the probe's next event is in its class
        assert same_class(trace[2], MallocEv(8, 3000))
        assert reaches(t, MallocEv(8, 3000), trace)


class VarSmasher(bump):
    """init tramples the first program variable: flunks Basic-3."""

    def init(self, heap):
        h, st = super().init(heap)
        h.define(range(DEFAULT_ENV_BASE, DEFAULT_ENV_BASE + 1), 99)
        return h, st


class TestGaiCheck:
    def test_family_of_one_always_passes(self):
        prog, env, heap = prepared("p = malloc(87); *(p) = 42; observe(*(p));")
        report = gai_check(prog, env, heap, family=[eager(2048, 2112, 6208)], wf_trials=5)
        assert report.verdict == "pass"

    def test_null_deref_violation_and_witness(self):
        prog, env, heap = prepared("p = malloc(87); *(p) = 42; observe(*(p));")
        report = gai_check(prog, env, heap, wf_trials=5)
        assert report.verdict == "violation"
        v = report.violation
        assert v.clause == "noninterference"
        # the report is replayable: rerunning both allocators reproduces the
        # recorded traces and the failed reachability
        from gai_lab.allocators import parse_alloc_spec

        producer = parse_alloc_spec(v.producer)
        witness = parse_alloc_spec(v.witness_member)
        out_p = run(env, producer, prog, heap)
        out_w = run(env, witness, prog, heap)
        assert out_p.trace == v.producer_trace
        assert out_w.trace == v.witness_trace
        assert out_p.trace[: v.position] == v.prefix
        assert not reaches(v.prefix, v.event, out_w.trace)

    def test_null_checked_passes(self):
        prog, env, heap = prepared("p = malloc(87); if (p != NULL) { *(p) = 42; observe(*(p)); }")
        report = gai_check(prog, env, heap, wf_trials=5)
        assert report.verdict == "pass"

    def test_cast_then_observe_passes(self):
        prog, env, heap = prepared("p = malloc(8); x = cast(p); observe(x);")
        report = gai_check(prog, env, heap, wf_trials=5)
        assert report.verdict == "pass"

    def test_enlarging_family_never_unflips_violation(self):
        prog, env, heap = prepared("p = malloc(87); *(p) = 42; observe(*(p));")
        small = default_family()
        big = small + [eager(2048, 2112, 9000)]
        assert gai_check(prog, env, heap, small, wf_trials=5).verdict == "violation"
        assert gai_check(prog, env, heap, big, wf_trials=5).verdict == "violation"

    def test_wf_precondition_enforced(self):
        # The smashed variable is observed, so a violation rests on the
        # ill-formed member, as producer or as witness.
        prog, env, heap = prepared("observe(x);")
        bad = VarSmasher(2048, 2112, 2176)
        for family in ([bad, eager(2048, 2112, 6208)], [eager(2048, 2112, 6208), bad]):
            with pytest.raises(FamilyNotWellFormed) as info:
                gai_check(prog, env, heap, family=family, wf_trials=20)
            assert info.value.strategy_name == bad.name
            assert [r.clause for r in info.value.failures] == ["Basic-3"]

    def test_an_ill_formed_member_alone_passes(self):
        # A family of one has no obligation that can fail, so nothing rests
        # on its member's well-formedness.
        prog, env, heap = prepared("observe(x);")
        assert gai_check(prog, env, heap, family=[VarSmasher(2048, 2112, 2176)], wf_trials=20).verdict == "pass"

    def test_inconclusive_on_fuel_exhaustion(self):
        src = "p = malloc(8); observe(1); i = 0; while (i < p - 2110) { i = i + 1; } observe(2);"
        prog, env, heap = prepared(src)
        fast = bump(2048, 2112, 2176)  # p = 2113 -> 3 iterations
        slow = bump(2048, 2200, 2400)  # p = 2201 -> 91 iterations
        report = gai_check(prog, env, heap, family=[fast, slow], fuel=120, wf_trials=5)
        assert report.verdict == "inconclusive"
        assert report.inconclusive

    def test_fuel_bound_hit_without_a_violation_is_inconclusive(self):
        report = gai_check(*corpus_case("use-after-free"), fuel=3, wf_trials=5)
        assert report.verdict == "inconclusive" and report.violation is None
        spent = [name for name, (kind, _) in report.runs.items() if kind == "out-of-fuel"]
        assert (len(report.runs), len(spent)) == (7, 6)
        assert list(report.inconclusive) == [f"{name} ran out of fuel (3 steps)" for name in spent]

    def test_endless_observe_loop_is_inconclusive(self):
        report = gai_check(*prepared("while (1) { observe(1); }"), fuel=50, wf_trials=5)
        assert report.verdict == "inconclusive" and report.exit_code == 2
        names = [s.name for s in default_family()]
        assert list(report.inconclusive) == [f"{name} ran out of fuel (50 steps)" for name in names]

    @staticmethod
    def count_searches(monkeypatch, src):
        """``gai_check`` on ``src``, its number of distinct member traces, and
        its number of ``_lockstep`` searches."""
        from gai_lab import filtering

        searches = []
        real_search = filtering._lockstep

        def counting_search(t1, t2):
            searches.append(1)
            return real_search(t1, t2)

        monkeypatch.setattr(filtering, "_lockstep", counting_search)
        report = gai_check(*prepared(src), wf_trials=5)
        distinct = len({trace for _, trace in report.runs.values()})
        return report, distinct, len(searches)

    def test_alloc_free_loop_k8_passes(self, monkeypatch):
        """Eight and 32 iterations under an allocator that reuses one address
        and one that bumps.  One search per unordered pair of distinct
        traces gives every row, and the rows decide reach, so the count does
        not grow with the loop; the per-position prefix scans made 1,701
        calls at k = 32, and the reach-by-another searches made it 25."""
        for k in (8, 32):
            report, distinct, searches = self.count_searches(
                monkeypatch,
                f"i = 0; while (i < {k}) {{ p = malloc(1); if (p != NULL) {{ *(p) = i; free(p); }} "
                "i = i + 1; } observe(i);",
            )
            assert report.verdict == "pass"
            longest = max(len(trace) for _, trace in report.runs.values())
            assert (len(report.runs), distinct, longest) == (7, 4, 2 * k + 1)
            assert searches == distinct * (distinct - 1) // 2 == 6

    def test_similarity_calls_grow_linearly_in_trace_length(self, monkeypatch):
        """On the 16-node XOR list, ``_lockstep`` runs once per unordered pair
        of distinct traces, whatever the trace length; an all-prefix scan makes
        33,220 ``similar`` calls."""
        from gai_lab.corpus import xor_script

        ops = [("new", 1)] + [("push", v) for v in range(2, 17)] + [("get", 3), ("get", 0), ("get", 15)]
        report, distinct, searches = self.count_searches(monkeypatch, xor_script(ops))
        assert report.verdict == "pass"
        longest = max(len(trace) for _, trace in report.runs.values())
        assert len(report.runs) == 7 and longest == 19
        assert searches == distinct * (distinct - 1) // 2 == 6

    def test_observe_loop_search_is_linear(self, monkeypatch):
        """Every member observes 0 .. n - 1, so the one search of the one
        distinct trace against itself takes each observe of one trace and
        then of the other: 2n + 1 states."""
        from gai_lab import filtering

        n, states = 400, []
        real_search = filtering._lockstep

        def counting_search(t1, t2):
            for step in real_search(t1, t2):
                states.append(1)
                yield step

        monkeypatch.setattr(filtering, "_lockstep", counting_search)
        src = f"i = 0; while (i < {n}) {{ observe(i); i = i + 1; }}"
        report = gai_check(*prepared(src), wf_trials=5)
        assert report.verdict == "pass"
        assert {len(trace) for _, trace in report.runs.values()} == {n}
        assert len(states) <= 2 * n + 1

    def test_inconclusive_entries_name_every_member_sharing_a_trace(self):
        src = "p = malloc(8); observe(1); i = 0; while (i < p - 2110) { i = i + 1; } observe(2);"
        prog, env, heap = prepared(src)
        fast = bump(2048, 2112, 2176)
        slow, slow_lenient = bump(2048, 2200, 2400), lenient_bump(2048, 2200, 2400)
        family = [slow, fast, slow_lenient, null_alloc()]
        report = gai_check(prog, env, heap, family=family, fuel=120, wf_trials=5)
        assert report.runs[slow.name] == report.runs[slow_lenient.name]
        assert report.runs[slow.name][0] == "out-of-fuel"
        assert report.verdict == "inconclusive"
        # only the producer that observes 2 finds the slow runs stuck
        assert list(report.inconclusive) == [
            f"{slow.name} ran out of fuel while checking event #3 of {fast.name}",
            f"{slow_lenient.name} ran out of fuel while checking event #3 of {fast.name}",
        ]

    def test_report_json_shape(self):
        prog, env, heap = prepared("p = malloc(87); *(p) = 42; observe(*(p));")
        report = gai_check(prog, env, heap, wf_trials=5)
        data = report.to_json()
        assert data["verdict"] == "violation"
        assert data["violation"]["clause"] == "noninterference"
        assert set(data["runs"]) == {s.name for s in default_family()}


def test_default_family_well_formed_for_default_layout():
    prog, env, heap = prepared("p = malloc(8); q = p; r = 0;")
    check_family_wf(default_family(), frozenset(env.values()), heap, trials=60, seed=1)


def test_corpus_violations_survive_family_enlargement():
    from gai_lab.corpus import run_corpus

    extra = default_family() + [eager(2048, 2112, 9000)]
    plain = {r.case.name: r.actual for r in run_corpus(wf_trials=5)}
    enlarged = {r.case.name: r.actual for r in run_corpus(family=extra, wf_trials=5)}
    for name, verdict in plain.items():
        if verdict == "UNSAFE":
            assert enlarged[name] == "UNSAFE", name


# --- reach at j: j + 1 is in the row, or the probe's next event is in the class

_ADDRS = (100, 101, 200)
_ALPHABET = (
    [MallocEv(s, a) for s in (1, 8) for a in _ADDRS]
    + [MallocFailEv(s) for s in (1, 8)]
    + [FreeEv(a) for a in _ADDRS] * 2
    + [ObsEv(v) for v in (0, 1)]
    + [CastEv(v) for v in (0, 1)]
)


@st.composite
def producer_and_probe(draw):
    """A probe run, and a producer run drawn near it: the probe itself with
    malloc addresses moved and events dropped, or an unrelated run."""
    events = st.sampled_from(_ALPHABET)
    probe = tuple(draw(st.lists(events, max_size=6)))
    near = []
    for ev in probe:
        if draw(st.integers(0, 4)) == 0:
            continue
        if isinstance(ev, MallocEv):
            ev = MallocEv(ev.size, draw(st.sampled_from(_ADDRS)))
        near.append(ev)
    if draw(st.booleans()):
        near.append(draw(events))
    producer = draw(st.sampled_from([tuple(near), tuple(draw(st.lists(events, max_size=6)))]))
    return producer, probe


M1, M2, F1 = MallocEv(8, 100), MallocEv(8, 200), FreeEv(100)


def reaches_in_closed_form(u, v, row, j):
    """Reach of ``u[j]``'s class by ``v`` when ``j`` is in the row of ``u``
    against ``v``, as ``gai_check`` decides it."""
    return j + 1 in row or (j < len(v) and same_class(v[j], u[j]))


@settings(max_examples=250, deadline=None)
@given(producer_and_probe())
@example(((M1,), (M2,)))  # the probe's malloc returned another address
@example(((M1, F1, M1), (M1, F1, M2)))
@example(((MallocFailEv(8),), (M1,)))  # the other allocation outcome reaches
@example(((CastEv(0),), (CastEv(1),)))  # another cast value reaches
def test_reach_is_impact_of_the_next_prefix_or_another_candidate(pair):
    u, v = pair
    row = similar_prefixes(u, v)
    for j, ev in enumerate(u):
        assert (j in row) == bool(bruteforce_prefixes_similar(u[:j], v))
        if j in row:
            reach = bruteforce_reaches(u[:j], class_members(ev, (u, v)), v)
            assert reach == reaches_in_closed_form(u, v, row, j)


def test_closed_form_on_every_pair_of_short_traces():
    """Every pair of traces of at most two events over the alphabet, at every
    position inside the row: the closed form is brute-force reach over the
    oracle's class members.  Reach at ``j`` depends only on ``u[:j + 1]``
    and ``v[:j + 1]``, so each pair of similar prefixes of at most one event
    is extended by one event of ``u`` and by none or one of ``v``."""
    events = tuple(dict.fromkeys(_ALPHABET))
    prefixes = [((), ())] + [((e,), (f,)) for e in events for f in events]
    positions = 0
    for p, q in prefixes:
        j = len(p)
        if j not in similar_prefixes(p, q):
            continue
        for e in events:
            for v in [q] + [q + (f,) for f in events]:
                u, row = p + (e,), similar_prefixes(p + (e,), v)
                positions += 1
                reach = bruteforce_reaches(p, class_members(e, (u, v)), v)
                assert reach == reaches_in_closed_form(u, v, row, j), (u, v)
    assert positions == (1 + 27) * len(events) * (1 + len(events))  # 27 similar pairs of events


def test_empty_family_is_rejected():
    prog, env, heap = prepared("p = malloc(8); observe(1);")
    with pytest.raises(ValueError, match="empty"):
        gai_check(prog, env, heap, family=[], wf_trials=5)


def test_an_unknown_xor_list_op_raises():
    with pytest.raises(ValueError, match=r"^unknown list op \('bogus',\)$"):
        xor_script([("bogus",)])
