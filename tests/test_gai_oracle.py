"""Cross-validation of the differential checker against a slow mirror.

The mirror re-implements the verdict loop directly on top of the
brute-force similarity oracle: impact membership and class reachability
are decided only with ``similar_bruteforce``, and each event's class is
enumerated here, not taken from ``gai``.  Corpus traces are short enough
for exhaustive labeling enumeration, so agreement here checks the whole
pipeline (runs, impact sets, candidate instantiation, clause selection),
not just the similarity decision.
"""

from gai_lab import corpus, notac
from gai_lab.gai import default_family, gai_check
from gai_lab.notac import CastEv, MallocEv, MallocFailEv
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


def gai_verdict_oracle(program, env, heap, family, fuel=100_000):
    outcomes = [(beta, notac.run(env, beta, program, heap, fuel)) for beta in family]
    traces = [out.trace for _, out in outcomes]
    for alpha, out_a in outcomes:
        u = out_a.trace
        for j in range(len(u)):
            t, members = u[:j], class_members(u[j], traces)
            for beta, out_b in outcomes:
                if not bruteforce_prefixes_similar(t, out_b.trace):
                    continue
                if not bruteforce_reaches(t, members, out_b.trace):
                    return "violation"
    return "pass"


def test_oracle_agrees_on_every_corpus_case():
    family = default_family()
    for case in corpus.CASES:
        program, env, heap = corpus.prepare_case(case, family)
        fast = corpus.run_corpus(names=[case.name], wf_trials=5)[0].report.verdict
        slow = gai_verdict_oracle(program, env, heap, family)
        assert fast == slow, case.name
        assert {"violation": "UNSAFE", "pass": "SAFE"}[slow] == case.expected, case.name


def test_oracle_agrees_on_xor_script():
    family = default_family()
    ops = corpus.XOR_SCRIPTS["push-pop"]
    program = notac.parse(corpus.xor_script(ops))
    env, heap, _ = notac.make_env(program, 2048)
    fast = gai_check(program, env, heap, family, wf_trials=5).verdict
    slow = gai_verdict_oracle(program, env, heap, family)
    assert fast == slow == "pass"
