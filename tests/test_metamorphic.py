"""Metamorphic relations of the differential check.

The brute-force oracle of ``tests/test_gai_oracle.py`` stops at short
traces, so loops and XOR lists are checked only against relations between
runs of the checker itself, which hold at any size (Chen, Cheung & Yiu,
HKUST-CS98-01, 1998):

* a permutation of the family keeps the verdict;
* appending a copy of one member keeps the verdict;
* wrapping the program in ``if (1) { ... }`` keeps the verdict and every
  member's outcome and trace;
* unrolling the first loop once, ``while (c) B`` to
  ``if (c) { B while (c) B }``, keeps the verdict and every member's
  outcome and trace;
* dropping one member keeps a pass a pass, and a violation of the
  subfamily is a violation of the family: each obligation of the subfamily
  is one of the family's.

The first three and the subfamily relation run on every corpus case and
every XOR script; unrolling runs on every one of those with a loop and on
the loop and XOR-list sources of the benchmark's ``scaling`` workload.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from gai_lab import corpus, notac
from gai_lab.allocators import parse_alloc_spec
from gai_lab.gai import default_family, gai_check

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

PROGRAMS = {
    **{case.name: case for case in corpus.CASES},
    **{f"xor/{name}": corpus.CorpusCase(f"xor/{name}", "SAFE", corpus.xor_script(ops))
       for name, ops in corpus.XOR_SCRIPTS.items()},
}
WF_TRIALS = 5


def check(case, family):
    return gai_check(*corpus.prepare_case(case, family), family, wf_trials=WF_TRIALS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_verdict_keeps_its_relations(name):
    case, family = PROGRAMS[name], default_family()
    rng = random.Random(name)
    report = check(case, family)

    shuffled = family[:]
    rng.shuffle(shuffled)
    assert check(case, shuffled).verdict == report.verdict, [s.name for s in shuffled]

    copied = family + [parse_alloc_spec(rng.choice(family).name)]
    assert check(case, copied).verdict == report.verdict, copied[-1].name

    wrapped = corpus.CorpusCase(name, case.expected, f"if (1) {{\n{case.source}\n}}", case.init)
    wrapped_report = check(wrapped, family)
    assert wrapped_report.verdict == report.verdict
    assert wrapped_report.runs == report.runs


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_dropping_a_member_keeps_a_pass_and_no_new_violation(name):
    """The variables stay where the whole family puts them, so each
    subfamily checks the same program, environment and heap."""
    case, family = PROGRAMS[name], default_family()
    inputs = corpus.prepare_case(case, family)
    verdict = gai_check(*inputs, family, wf_trials=WF_TRIALS).verdict
    for i in range(len(family)):
        subfamily = family[:i] + family[i + 1:]
        sub_verdict = gai_check(*inputs, subfamily, wf_trials=WF_TRIALS).verdict
        if verdict == "pass":
            assert sub_verdict == "pass", family[i].name
        if sub_verdict == "violation":
            assert verdict == "violation", family[i].name


SCALING = {
    f"scaling/{item['name']}": corpus.CorpusCase(
        f"scaling/{item['name']}", "SAFE", item["args"].get("source") or corpus.xor_script(item["args"]["ops"]))
    for item in workloads.build("scaling", 0)
    if item["kind"] == "gai"
}


def unroll_first_loop(source: str):
    """``source`` with its first ``while (c) B`` rewritten as
    ``if (c) { B while (c) B }``, or ``None`` when it has no loop."""
    toks = notac._Parser(source).toks
    loops = [i for i, tok in enumerate(toks) if tok[1] == "while"]
    if not loops:
        return None

    def closing(j: int) -> int:
        """The index of the token that closes the bracket at ``toks[j]``."""
        depth = 0
        for k in range(j, len(toks)):
            depth += {"(": 1, "{": 1, ")": -1, "}": -1}.get(toks[k][1], 0)
            if depth == 0:
                return k
        raise ValueError("unbalanced brackets")

    start = loops[0]
    cond_end = closing(start + 1)
    body_end = closing(cond_end + 1)
    cond = source[toks[start + 1][2]:toks[cond_end][2] + 1]
    body = source[toks[cond_end + 1][2] + 1:toks[body_end][2]]
    loop = source[toks[start][2]:toks[body_end][2] + 1]
    return f"{source[:toks[start][2]]}if {cond} {{{body}\n{loop}\n}}{source[toks[body_end][2] + 1:]}"


def test_unroll_first_loop_rewrites_only_the_first():
    assert unroll_first_loop("i = 0; while (i < (2)) { i = i + 1; } while (1) { skip; }") == (
        "i = 0; if (i < (2)) { i = i + 1; \nwhile (i < (2)) { i = i + 1; }\n} while (1) { skip; }")
    assert unroll_first_loop("observe(1);") is None


LOOP_PROGRAMS = {
    name: case for name, case in {**PROGRAMS, **SCALING}.items() if unroll_first_loop(case.source) is not None
}


def test_the_unroll_relation_covers_every_program_with_a_loop():
    assert len(LOOP_PROGRAMS) == 14 and len(SCALING) == 10


@pytest.mark.parametrize("name", sorted(LOOP_PROGRAMS))
def test_unrolling_the_first_loop_keeps_every_run(name):
    case, family = LOOP_PROGRAMS[name], default_family()
    report = check(case, family)
    unrolled = corpus.CorpusCase(name, case.expected, unroll_first_loop(case.source), case.init)
    unrolled_report = check(unrolled, family)
    assert unrolled_report.verdict == report.verdict
    assert unrolled_report.runs == report.runs
