"""The differential GAI checker."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gai_lab import gai
from gai_lab.allocators import bump, eager, lenient_bump, null_alloc
from gai_lab.filtering import prefixes_similar_to
from gai_lab.gai import (
    AllocClass,
    CastClass,
    DEFAULT_ENV_BASE,
    FamilyNotWellFormed,
    Singleton,
    _class_candidates,
    _reached_by_another,
    check_family_wf,
    dchar,
    default_family,
    gai_check,
)
from gai_lab.notac import CastEv, FreeEv, MallocEv, MallocFailEv, ObsEv, make_env, parse, run
from test_gai_oracle import bruteforce_prefixes_similar, bruteforce_reaches, class_members


def prepared(src, base=DEFAULT_ENV_BASE, inits=None):
    prog = parse(src)
    env, heap, _ = make_env(prog, base, inits or {})
    return prog, env, heap


class TestDchar:
    def test_alloc_events(self):
        assert dchar(MallocEv(8, 0x1000)) == AllocClass(8)
        assert dchar(MallocFailEv(8)) == AllocClass(8)

    def test_cast(self):
        assert dchar(CastEv(42)) == CastClass()

    def test_singletons(self):
        assert dchar(ObsEv(7)) == Singleton(ObsEv(7))
        assert dchar(FreeEv(3)) == Singleton(FreeEv(3))


def trace_of(strategy, prog, env, heap):
    return run(env, strategy, prog, heap).trace


def reaches(t, cls, probe):
    """Some prefix of ``probe`` is similar to ``t`` extended by a candidate of ``cls``."""
    return any(prefixes_similar_to(t + (c,), probe) for c in _class_candidates(cls, probe))


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
            assert reaches((), AllocClass(8), trace_of(strategy, prog, env, heap))

    def test_singleton_unreached_when_stuck(self):
        prog, env, heap = prepared("p = malloc(87); *(p) = 42; observe(42);")
        strict = bump(2048, 2112, 2176)  # malloc(87) fails, null protected
        cls = Singleton(ObsEv(42))
        t = (MallocFailEv(87),)
        assert not reaches(t, cls, trace_of(strict, prog, env, heap))
        lenient = lenient_bump(2048, 2112, 2176)
        assert reaches(t, cls, trace_of(lenient, prog, env, heap))

    def test_cast_class_needs_a_cast(self):
        prog, env, heap = prepared("p = malloc(8); observe(1);")
        trace = trace_of(eager(2048, 2112, 6208), prog, env, heap)
        assert not reaches((), CastClass(), trace)

    def test_singleton_equals_impact_of_extension(self):
        prog, env, heap = prepared("p = malloc(8); free(p); observe(3);")
        trace = trace_of(eager(2048, 2112, 6208), prog, env, heap)
        t = (MallocEv(8, 2113), FreeEv(2113))
        ev = ObsEv(3)
        in_impact = bool(prefixes_similar_to(t + (ev,), trace))
        assert _class_candidates(Singleton(ev), trace) == [ev]
        assert reaches(t, Singleton(ev), trace) == in_impact

    def test_malloc_address_never_matters_at_the_end(self):
        prog, env, heap = prepared("p = malloc(8); free(p); q = malloc(8);")
        trace = trace_of(eager(2048, 2112, 6208), prog, env, heap)
        t = (MallocEv(8, 2113), FreeEv(2113))
        assert trace[2] == MallocEv(8, 2113)  # eager reuses the freed block
        for addr in (2113, 3000):  # the probe's address and another one
            assert prefixes_similar_to(t + (MallocEv(8, addr),), trace) == [3]
        # so the probe's own malloc is no other candidate for a malloc at 3000
        assert not _reached_by_another(t, MallocEv(8, 3000), trace)
        assert reaches(t, AllocClass(8), trace)


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
        assert not reaches(v.prefix, dchar(v.event), out_w.trace)

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
        prog, env, heap = prepared("p = malloc(8);")
        from gai_lab.allocators import BumpAlloc, SegmentParams

        class VarSmasher(BumpAlloc):
            # init tramples a program variable: flunks Basic-3
            def init(self, heap):
                h, st = super().init(heap)
                h.define([DEFAULT_ENV_BASE], 99)
                return h, st

        bad = VarSmasher(SegmentParams(2048, 2112, 2176))
        with pytest.raises(FamilyNotWellFormed):
            gai_check(prog, env, heap, family=[bad], wf_trials=20)

    def test_inconclusive_on_fuel_exhaustion(self):
        src = "p = malloc(8); observe(1); i = 0; while (i < p - 2110) { i = i + 1; } observe(2);"
        prog, env, heap = prepared(src)
        fast = bump(2048, 2112, 2176)  # p = 2113 -> 3 iterations
        slow = bump(2048, 2200, 2400)  # p = 2201 -> 91 iterations
        report = gai_check(prog, env, heap, family=[fast, slow], fuel=120, wf_trials=5)
        assert report.verdict == "inconclusive"
        assert report.inconclusive

    @staticmethod
    def count_searches(monkeypatch, src):
        """``gai_check`` on ``src``, with its ``_lockstep`` searches counted, and
        the class candidates offered to each reach-by-another check."""
        from gai_lab import filtering

        searches, extensions = [], []
        real_search, real_reach = filtering._lockstep, gai._reached_by_another

        def counting_search(t1, t2):
            searches.append(1)
            return real_search(t1, t2)

        def counting_reach(t, ev, probe):
            extensions.append(len(_class_candidates(dchar(ev), probe)))
            return real_reach(t, ev, probe)

        with monkeypatch.context() as patch:
            patch.setattr(filtering, "_lockstep", counting_search)
            patch.setattr(gai, "_reached_by_another", counting_reach)
            report = gai_check(*prepared(src), wf_trials=5)
        distinct = len({trace for _, trace in report.runs.values()})
        return report, distinct, len(searches), sum(extensions)

    def test_alloc_free_loop_k8_passes(self, monkeypatch):
        """Eight and 32 iterations under an allocator that reuses one address
        and one that bumps.  One search per pair of distinct traces gives
        every impact row, and reach needs one more per extension candidate,
        so the count does not grow with the loop; the per-position prefix
        scans made 1,701 calls at k = 32."""
        counts = []
        for k in (8, 32):
            report, distinct, searches, extensions = self.count_searches(
                monkeypatch,
                f"i = 0; while (i < {k}) {{ p = malloc(1); if (p != NULL) {{ *(p) = i; free(p); }} "
                "i = i + 1; } observe(i);",
            )
            assert report.verdict == "pass"
            longest = max(len(trace) for _, trace in report.runs.values())
            assert (len(report.runs), distinct, longest) == (7, 4, 2 * k + 1)
            assert searches <= distinct**2 + extensions
            counts.append(searches)
        assert counts[0] == counts[1]

    def test_similarity_calls_grow_linearly_in_trace_length(self, monkeypatch):
        """On the 16-node XOR list, ``_lockstep`` runs once per pair of
        distinct traces and once per reach-extension candidate, whatever the
        trace length; an all-prefix scan makes 33,220 ``similar`` calls."""
        from gai_lab.corpus import xor_script

        ops = [("new", 1)] + [("push", v) for v in range(2, 17)] + [("get", 3), ("get", 0), ("get", 15)]
        report, distinct, searches, extensions = self.count_searches(monkeypatch, xor_script(ops))
        assert report.verdict == "pass"
        longest = max(len(trace) for _, trace in report.runs.values())
        assert len(report.runs) == 7 and longest == 19
        assert searches <= distinct**2 + extensions

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


# --- reach at j is impact at j + 1, up to the other class members ----------

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


@settings(max_examples=250, deadline=None)
@given(producer_and_probe())
@example(((M1,), (M2,)))  # the probe's malloc returned another address
@example(((M1, F1, M1), (M1, F1, M2)))
@example(((MallocFailEv(8),), (M1,)))  # the other allocation outcome reaches
@example(((CastEv(0),), (CastEv(1),)))  # another cast value reaches
def test_reach_is_impact_of_the_next_prefix_or_another_candidate(pair):
    u, v = pair
    for j, ev in enumerate(u):
        t = u[:j]
        reach = bruteforce_reaches(t, class_members(ev, (u, v)), v)
        if prefixes_similar_to(u[: j + 1], v):
            assert reach
        assert reach == (bool(bruteforce_prefixes_similar(u[: j + 1], v)) or _reached_by_another(t, ev, v))


def test_empty_family_is_rejected():
    prog, env, heap = prepared("p = malloc(8); observe(1);")
    with pytest.raises(ValueError, match="empty"):
        gai_check(prog, env, heap, family=[], wf_trials=5)
