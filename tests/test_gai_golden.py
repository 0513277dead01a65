"""A golden file that pins the checker's verdicts and reports.

``tests/data/gai_reports.txt`` holds one line per ``gai_check`` report: its
verdict, its first violation as ``(producer, witness, position, clause)``,
its count of inconclusive probes and the SHA-256 of its
``json.dumps(report.to_json(), sort_keys=True)``.  The reports come from
the corpus under three families at four fuels, every ``gai`` item of the
benchmark's ``suite`` and ``scaling`` workloads at seeds 0 and 3, and the
20 Memsafe differential programs, whose ``DiffReport.describe()`` is kept
whole.  The file ends with the output and exit code of ``gai-lab corpus``,
plain and ``--json``.  A change that is meant to move a verdict, a witness
or a report must regenerate the file openly, from the root of a checkout:

    PYTHONPATH=src:tests python3 tests/test_gai_golden.py
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from click.testing import CliRunner

from gai_lab import corpus, notac
from gai_lab.allocators import parse_alloc_spec
from gai_lab.cli import main
from gai_lab.gai import DEFAULT_ENV_BASE, default_family, gai_check
from gai_lab.memsafe import differential_check, ms_parse

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "gai_reports.txt"

FAMILIES = (
    "default",
    "null;eager:2048,2112,6208;eager:2048,2112,6208;bump:2048,2112,2176",
    "curious:9,2047;eager:2048,2112,6208;eager:2048,2112,6208;bump:2048,2112,2176",
)
FUELS = (5, 12, 40, notac.DEFAULT_FUEL)
SEEDS = (0, 3)


def workloads():
    """The benchmark's workload module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_line(report) -> str:
    v = report.violation
    first = "-" if v is None else f"({v.producer}, {v.witness_member}, {v.position}, {v.clause})"
    digest = hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()
    return f"{report.verdict} {first} probes={len(report.inconclusive)} sha256={digest}"


def corpus_lines() -> list[str]:
    lines = []
    for spec in FAMILIES:
        family = default_family() if spec == "default" else [parse_alloc_spec(s) for s in spec.split(";")]
        for fuel in FUELS:
            for case in sorted(corpus.CASES, key=lambda c: c.name):
                program, env, heap = corpus.prepare_case(case, family)
                report = gai_check(program, env, heap, family, fuel, wf_trials=corpus.CORPUS_WF_TRIALS)
                lines.append(f"corpus {spec} fuel={fuel} {case.name}: {report_line(report)}")
    return lines


def bench_lines() -> list[str]:
    """The ``gai`` items as the benchmark worker checks them."""
    bench = workloads()
    lines = []
    for workload in ("suite", "scaling"):
        for seed in SEEDS:
            for item in bench.build(workload, seed):
                if item["kind"] != "gai":
                    continue
                args = item["args"]
                program = notac.parse(args.get("source") or corpus.xor_script(args["ops"]))
                env, heap, _ = notac.make_env(program, DEFAULT_ENV_BASE)
                report = gai_check(program, env, heap, wf_seed=args["wf_seed"])
                lines.append(f"{workload} seed={seed} {item['name']}: {report_line(report)}")
    return lines


def memsafe_lines() -> list[str]:
    lines = []
    for k, (source, store) in enumerate(workloads().MEMSAFE_PROGRAMS):
        rep = differential_check(ms_parse(source), initial_store=store, wf_trials=8)
        lines += [f"memsafe/{k:02d}: {report_line(rep.gai_report)}", *rep.describe().splitlines()]
    return lines


def cli_lines() -> list[str]:
    lines = []
    for args in (["corpus"], ["corpus", "--json"]):
        res = CliRunner().invoke(main, args)
        lines += [f"$ gai-lab {' '.join(args)} (exit {res.exit_code})", *res.output.splitlines()]
    return lines


def golden_lines() -> list[str]:
    return corpus_lines() + bench_lines() + memsafe_lines() + cli_lines()


def test_every_report_is_the_committed_one():
    want = GOLDEN.read_text().splitlines()
    got = golden_lines()
    bad = [(k, g, w) for k, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, f"{len(bad)} lines differ; the first: {bad[0]}"
    assert len(got) == len(want)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
