"""Metamorphic relations of the differential check.

The brute-force oracle of ``tests/test_gai_oracle.py`` stops at short
traces, so loops and XOR lists are checked only against relations between
runs of the checker itself, which hold at any size (Chen, Cheung & Yiu,
HKUST-CS98-01, 1998):

* a permutation of the family keeps the verdict;
* appending a copy of one member keeps the verdict;
* wrapping the program in ``if (1) { ... }`` keeps the verdict and every
  member's outcome and trace.

Each runs on every corpus case and every XOR script.
"""

import random

import pytest

from gai_lab import corpus
from gai_lab.allocators import parse_alloc_spec
from gai_lab.gai import default_family, gai_check

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
