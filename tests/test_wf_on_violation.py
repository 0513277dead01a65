"""Well-formedness is checked only where a verdict rests on it.

A pass over a family is a pass over each of its subfamilies, so it needs no
well-formedness check; a violation checks its producer and its witness.
The programs are the corpus cases, the corpus XOR scripts, the Memsafe
differential programs, and the loop and XOR-list sources of the benchmark's
workloads.
"""

import functools
import importlib.util
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gai_lab import corpus, gai, memsafe
from gai_lab.gai import DEFAULT_ENV_BASE, default_family, gai_check
from gai_lab.notac import make_env, parse

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _workload_sources(workload: str, seed: int) -> dict:
    """Name -> source of every ``gai`` item of a benchmark workload."""
    return {
        f"{workload}/{item['name']}": item["args"].get("source") or corpus.xor_script(item["args"]["ops"])
        for item in workloads.build(workload, seed)
        if item["kind"] == "gai"
    }


SOURCES = {
    **{f"corpus/{case.name}": case for case in corpus.CASES},
    **{f"xor/{name}": corpus.xor_script(ops) for name, ops in corpus.XOR_SCRIPTS.items()},
    **_workload_sources("suite", 0),
    **_workload_sources("scaling", 0),
}


def prepared(name):
    source = SOURCES[name]
    if isinstance(source, corpus.CorpusCase):
        return corpus.prepare_case(source, default_family())
    program = parse(source)
    env, heap, _ = make_env(program, DEFAULT_ENV_BASE)
    return program, env, heap


@functools.cache
def default_verdict(name):
    return gai_check(*prepared(name)).verdict


@pytest.fixture
def wf_calls(monkeypatch):
    """The names of the members ``gai`` checks for well-formedness, in order."""
    calls = []
    real = gai.wf_check

    def counting(strategy, *args, **kwargs):
        calls.append(strategy.name)
        return real(strategy, *args, **kwargs)

    monkeypatch.setattr(gai, "wf_check", counting)
    return calls


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(SOURCES)),
       members=st.sets(st.integers(0, len(default_family()) - 1), min_size=1))
def test_a_pass_over_the_default_family_is_a_pass_over_each_subfamily(name, members):
    assume(default_verdict(name) == "pass")
    family = default_family()
    subfamily = [family[i] for i in sorted(members)]
    assert gai_check(*prepared(name), family=subfamily).verdict == "pass"


@pytest.mark.parametrize("case", corpus.CASES, ids=lambda c: c.name)
def test_a_corpus_case_checks_only_its_violation_producer_and_witness(case, wf_calls):
    (result,) = corpus.run_corpus(names=[case.name])
    assert result.matches
    violation = result.report.violation
    if case.expected == "SAFE":
        assert wf_calls == []
    else:
        assert wf_calls == [violation.producer, violation.witness_member]


@pytest.mark.parametrize("name", sorted(n for n in SOURCES if not n.startswith("corpus/")))
def test_a_passing_xor_or_loop_script_checks_no_member(name, wf_calls):
    assert gai_check(*prepared(name)).verdict == "pass"
    assert wf_calls == []


def test_a_passing_memsafe_differential_checks_no_member(wf_calls):
    for source, store in workloads.MEMSAFE_PROGRAMS:
        report = memsafe.differential_check(memsafe.ms_parse(source), initial_store=store)
        assert report.ok, source
    assert wf_calls == []
