"""Cross-validation of the differential checker against a slow mirror.

The mirror re-implements the check directly on top of the brute-force
similarity oracle, looping over every producer, position and member:
impact membership and class reachability are decided only with
``similar_bruteforce``, each event's class is enumerated here, not taken
from ``gai``, and so are the clause names.  It returns the verdict, the
first violation and the ``inconclusive`` probes, so the order in which
``gai_check`` makes its reports is checked too.  Corpus traces are short
enough for exhaustive labeling enumeration, so agreement here checks the
whole pipeline (runs, impact sets, candidate instantiation, clause
selection), not just the similarity decision.
"""

from gai_lab import corpus, notac
from gai_lab.allocators import parse_alloc_spec
from gai_lab.gai import default_family, gai_check, variable_base
from gai_lab.notac import DEFAULT_FUEL, CastEv, MallocEv, MallocFailEv
from similarity_oracle import similar_bruteforce


def bruteforce_prefixes_similar(t, run_trace):
    return [p for p in range(len(run_trace) + 1) if similar_bruteforce(t, run_trace[:p])]


def class_members(ev, traces):
    """The members of ``ev``'s downgrading class that a prefix of one of
    ``traces`` could match, enumerated here rather than taken from ``gai``:
    for a malloc, the failed malloc, a malloc at every address any trace
    returned, and one fresh address; for a cast, every cast value seen in
    any trace; otherwise ``ev`` itself."""
    events = [e for t in traces for e in t]
    if isinstance(ev, (MallocEv, MallocFailEv)):
        addrs = {e.addr for e in events if isinstance(e, MallocEv)}
        fresh = max(addrs, default=0) + 1
        return [MallocFailEv(ev.size)] + [MallocEv(ev.size, a) for a in sorted(addrs | {fresh})]
    if isinstance(ev, CastEv):
        return [CastEv(v) for v in sorted({e.val for e in events if isinstance(e, CastEv)})]
    return [ev]


def bruteforce_reaches(t, members, probe):
    for cand in members:
        extended = t + (cand,)
        for p in range(len(probe) + 1):
            if similar_bruteforce(extended, probe[:p]):
                return True
    return False


CLAUSES = {MallocEv: "malloc-progress", MallocFailEv: "malloc-progress", CastEv: "cast-progress"}


def gai_report_oracle(program, env, heap, family, fuel=DEFAULT_FUEL):
    """``(verdict, first violation, inconclusive)`` of the check, the
    violation as ``(producer, witness, position, clause)`` or ``None``.  The
    k-th copy of a member name (k >= 2) is labeled ``name#k``; a failed
    reaching-check against a run that ran out of fuel is a probe, and with
    no violation and no probe each run that ran out of fuel is listed."""
    labels, copies = [], {}
    for beta in family:
        copies[beta.name] = k = copies.get(beta.name, 0) + 1
        labels.append(beta.name if k == 1 else f"{beta.name}#{k}")
    outcomes = [notac.run(env, beta, program, heap, fuel) for beta in family]
    traces = [out.trace for out in outcomes]
    probes = []
    for alpha_label, out_a in zip(labels, outcomes):
        u = out_a.trace
        for j in range(len(u)):
            t, members = u[:j], class_members(u[j], traces)
            for beta_label, out_b in zip(labels, outcomes):
                if not bruteforce_prefixes_similar(t, out_b.trace) or bruteforce_reaches(t, members, out_b.trace):
                    continue
                if out_b.kind == "out-of-fuel":
                    probes.append(f"{beta_label} ran out of fuel while checking event #{j + 1} of {alpha_label}")
                    continue
                clause = CLAUSES.get(type(u[j]), "noninterference")
                return "violation", (alpha_label, beta_label, j, clause), tuple(probes)
    if not probes:
        probes = [f"{label} ran out of fuel ({fuel} steps)" for label, out in zip(labels, outcomes)
                  if out.kind == "out-of-fuel"]
    return "inconclusive" if probes else "pass", None, tuple(probes)


def fast_report(program, env, heap, family, fuel=DEFAULT_FUEL):
    """``gai_check``'s report in the oracle's shape."""
    report = gai_check(program, env, heap, family, fuel, wf_trials=5)
    v = report.violation
    first = None if v is None else (v.producer, v.witness_member, v.position, v.clause)
    return report.verdict, first, report.inconclusive


def test_oracle_agrees_on_every_corpus_case():
    family = default_family()
    for case in corpus.CASES:
        program, env, heap = corpus.prepare_case(case, family)
        slow = gai_report_oracle(program, env, heap, family)
        assert fast_report(program, env, heap, family) == slow, case.name
        assert {"violation": "UNSAFE", "pass": "SAFE"}[slow[0]] == case.expected, case.name


def test_oracle_agrees_on_xor_script():
    family = default_family()
    ops = corpus.XOR_SCRIPTS["push-pop"]
    program = notac.parse(corpus.xor_script(ops))
    env, heap, _ = notac.make_env(program, 2048)
    slow = gai_report_oracle(program, env, heap, family)
    assert fast_report(program, env, heap, family) == slow == ("pass", None, ())


def family_of(spec: str) -> list:
    return [parse_alloc_spec(s) for s in spec.split(";")]


EAGER, BUMP, CURIOUS = "eager:2048,2112,6208", "bump:2048,2112,2176", "curious:9,2047"
COPIES = family_of(f"null;{EAGER};{EAGER};{BUMP}")
# Eager's run observes 1 first, as its NULL is not the initial 0, and
# guarded-eager's second block lies apart from eager's, so against eager,
# curious fails at event #1 and guarded-eager, earlier in the family, at #4.
ORDER = "if (p != NULL) { observe(1); } p = malloc(1); q = malloc(1); observe(q);"
SPIN = " while (1) { skip; }"
OBSERVE_AND_SPIN = "p = malloc(1); observe(p);" + SPIN
REPORT_CASES = [(case.source, case.init, COPIES, fuel) for case in corpus.CASES for fuel in (5, 12, 40, DEFAULT_FUEL)]
REPORT_CASES += [
    (OBSERVE_AND_SPIN, {}, family_of(f"{CURIOUS};{EAGER};{EAGER};{BUMP}"), 15),
    (ORDER, {}, default_family(), DEFAULT_FUEL),
    (ORDER + SPIN, {}, default_family(), 40),
]


def report_case(source, init, family, fuel):
    program = notac.parse(source)
    env, heap, _ = notac.make_env(program, variable_base(family, len(program.variables)), init)
    return program, env, heap, family, fuel


def test_oracle_agrees_on_the_reports_of_fuel_limits_and_copies():
    """Verdict, first violation and probes, in report order, under families
    with a copy of eager and with runs cut short by fuel."""
    for source, init, family, fuel in REPORT_CASES:
        args = report_case(source, init, family, fuel)
        assert fast_report(*args) == gai_report_oracle(*args), (source, fuel)


def test_the_report_cases_gate_the_report_order():
    """The cases above include a violation and probes made while checking,
    among them a copy's and ones whose (position, member) order is not
    their (member, position) order."""
    reports = {(c[0], c[3]): fast_report(*report_case(*c)) for c in REPORT_CASES}
    assert any(verdict == "violation" for verdict, _, _ in reports.values())
    assert f"{EAGER}#2 ran out of fuel while checking event #2 of {CURIOUS}" in reports[OBSERVE_AND_SPIN, 15][2]
    assert reports[ORDER, DEFAULT_FUEL] == ("violation", (EAGER, CURIOUS, 0, "noninterference"), ())
    assert reports[ORDER + SPIN, 40][2][:4] == tuple(
        f"{member} ran out of fuel while checking event #{j} of {EAGER}"
        for member, j in ((CURIOUS, 1), ("null", 1), ("guarded-eager:2048,2112,6208", 4), (CURIOUS, 4))
    )
