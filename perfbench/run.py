"""Checker benchmark: time to verdict of gai-lab on three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

``--workload`` is ``suite``, ``scaling``, ``arena`` (see ``workloads.py``)
or ``all``, which runs the three in turn.  One closed-loop client runs one
item at a time; every item runs cold in a fresh process (``worker.py``), so
no memo state carries over from another item or pass.  A pass runs every
item of the workload once.  ``--seconds`` fixes the number of passes
(``PASSES_PER_25S``), so that two versions of the program are measured on
the same work.

``--trace 0`` reports the end-to-end metrics, built from each item's median
over the passes: the sum of item times, set-up time, peak RSS, and the share
of items that finished inside their budget with the expected output.  Times
are scaled to a nominal machine speed (see ``REFERENCE_NOMINAL_S``).  The
median and tail item times are printed in the ``info`` line.  ``--trace 1``
runs one untraced pass and two traced passes over the items that finished,
reports per-layer spans and counts and the tracing overhead, and checks
that tracing changes no output and that the exact counts repeat.

Lines before the last are per-item rows (``{"row": ...}``), an ``info``
object (item-time median and tail with its rank, unscaled times, ``src/``
line count, notes) and a table of the metrics.  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  A timeout counts
against ``ok_ratio`` but not as failed; a crash or a wrong output is failed
and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Passes per 25 seconds of ``--seconds``.  A pass takes about 6 s on
# ``suite``, 15 s on ``scaling`` and 8.5 s on ``arena`` at the seed on a
# 2-core machine.  ``arena`` gets more passes than its share, because two
# long items make most of its time and each varies by 30% from pass to pass.
PASSES_PER_25S = {"suite": 3, "scaling": 3, "arena": 5}
# At least three passes, so that medians over passes are not means and
# every workload has at least 20 item times, which the tail needs.
MIN_PASSES = 3
TRACED_PASSES = 2
TRACE_SLACK = 4.0  # budget multiplier under tracing, so tracing cuts no item
KILL_GRACE_S = 30.0  # the parent kills a worker this long after its budget
RUN_LIMIT_S = 150.0  # no pass starts that would end after this
TAIL_BEYOND = 10  # the tail is the highest percentile with this many items beyond it

CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

# A machine whose cores and memory are shared with other tenants drifts in
# speed by 20% and more within minutes.  Before every item the benchmark
# times a fixed workload of its own (dict copies, tuples and sets), in this
# process, which never imports the program.  End-to-end times are scaled by
# the nominal time of that workload over its median time in the run, so
# that they read as on a machine at the nominal speed.  The ``info`` line
# keeps the unscaled values.
REFERENCE_NOMINAL_S = 0.0032


def _reference_once() -> float:
    start = time.perf_counter()
    base = {i: i for i in range(2000)}
    acc = 0
    for r in range(200):
        copy = dict(base)
        copy[r] = -r
        items = tuple(range(r, r + 100))
        acc += len(frozenset(items) | {r}) + sum(items) + len(copy)
    return time.perf_counter() - start


def reference_s() -> float:
    """Median time of five runs of the fixed reference workload."""
    return statistics.median(_reference_once() for _ in range(5))


def run_item(item: dict, traced: bool) -> dict:
    """Run one item in a fresh worker process and check its output."""
    budget = item["budget_s"] * (TRACE_SLACK if traced else 1.0)
    request = json.dumps({"item": item, "trace": traced, "budget_s": budget})
    row = {"item": item["name"], "traced": traced}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=request, capture_output=True, text=True,
            timeout=budget + KILL_GRACE_S, cwd=ROOT, env=CHILD_ENV,
        )
    except subprocess.TimeoutExpired:
        return {**row, "status": "timeout", "time_s": budget, "detail": "worker killed"}
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        detail = f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return {**row, "status": "error", "time_s": 0.0, "detail": detail}
    row.update(time_s=res["time_s"], setup_s=res["setup_s"], rss_mb=res["rss_kb"] / 1024)
    if res["status"] == "done":
        reason = workloads.check(item, res["output"])
        row["status"] = "ok" if reason is None else "wrong"
        if reason is not None:
            row["detail"] = reason
        row["output"] = res["output"]
    else:
        row["status"] = res["status"]
        if "error" in res:
            row["detail"] = res["error"]
    if "trace" in res:
        row["trace"] = res["trace"]
    return row


def run_pass(items: list, traced: bool, index: int) -> list:
    rows = []
    for item in items:
        ref = reference_s()
        row = run_item(item, traced)
        row["pass"] = index
        row["ref_s"] = ref
        shown = {k: v for k, v in row.items() if k not in ("output", "trace")}
        print(json.dumps({"row": shown}), flush=True)
        rows.append(row)
    return rows


def end_to_end(passes: list, info: dict) -> dict:
    """End-to-end metrics from untraced passes (lists of rows, one per item).

    Each item's time and set-up time is its median over the passes, after
    scaling to the nominal speed, so that one slow pass of one item moves no
    metric.
    """
    by_item = list(zip(*passes))
    n = len(by_item) * len(passes)

    reference = statistics.median(r["ref_s"] for runs in by_item for r in runs)
    speed = REFERENCE_NOMINAL_S / reference

    def per_item(key, scaled=True):
        # A timeout reads as its budget, which is wall-clock time: not scaled.
        return [
            statistics.median(
                r.get(key, 0.0) * speed
                if scaled and not (key == "time_s" and r["status"] == "timeout") else r.get(key, 0.0)
                for r in runs
            )
            for runs in by_item
        ]

    times = sorted(per_item("time_s"))
    metrics = {
        "wall_s": sum(times),
        "ok_ratio": sum(r["status"] == "ok" for runs in by_item for r in runs) / n,
        "setup_s": sum(per_item("setup_s")),
    }
    # Items cut at their budget stop at a time-dependent size, so only
    # items that finished count towards the peak.
    rss = [
        statistics.median(r["rss_mb"] for r in runs)
        for runs in by_item if all(r["status"] == "ok" for r in runs)
    ]
    if rss:
        metrics["peak_rss_mb"] = max(rss)
    info["unscaled"] = {"wall_s": sum(per_item("time_s", scaled=False)),
                        "setup_s": sum(per_item("setup_s", scaled=False))}
    info["reference_s"] = reference
    # The median and tail of single items' times: printed, not bounded,
    # because each rests on one or two items (see README).
    item_s = {"p50": statistics.median(times), "unit": "s", "count": n}
    if n >= 2 * TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        item_s.update(tail=times[math.ceil(rank / len(passes)) - 1], tail_rank=rank,
                      tail_percentile=100.0 * rank / n)
    info["item_s"] = item_s
    return metrics


def aggregate(rows: list) -> dict:
    """Sum the trace exports of one traced pass."""
    agg = {"spans": {}, "under": {}, "counts": {}, "installed": None, "notes": []}
    for row in rows:
        t = row.get("trace")
        if t is None:
            continue
        for name, (calls, total, own) in t["spans"].items():
            s = agg["spans"].setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += own
        for key, value in t["under"].items():
            agg["under"][key] = agg["under"].get(key, 0.0) + value
        for key, value in t["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
        installed = set(t["installed"])
        agg["installed"] = installed if agg["installed"] is None else agg["installed"] & installed
        agg["notes"].extend(note for note in t["notes"] if note not in agg["notes"])
    agg["installed"] = agg["installed"] or set()
    return agg


def exact_counts(agg: dict) -> dict:
    counts = {f"{name}.calls": s[0] for name, s in agg["spans"].items()}
    counts.update(agg["counts"])
    return counts


def layer_metrics(agg: dict) -> dict:
    """Per-layer metrics of one traced pass; a metric whose span or count
    could not be installed is left out."""
    spans, under, counts, have = agg["spans"], agg["under"], agg["counts"], agg["installed"]

    def span(name, i):
        return spans.get(name, [0, 0.0, 0.0])[i]

    def ratio(a, b):
        return a / b if b else 0.0

    defs = {
        "core.heap_mut.calls": (["core.heap_mut"], lambda: span("core.heap_mut", 0)),
        "core.heap_mut.cells": (["core.heap_mut.cells"], lambda: counts.get("core.heap_mut.cells", 0)),
        "core.heap_mut.self_s": (["core.heap_mut"], lambda: span("core.heap_mut", 2)),
        "allocators.malloc.calls": (["allocators.malloc"], lambda: span("allocators.malloc", 0)),
        "allocators.malloc.fail_ratio": (
            ["allocators.malloc", "allocators.malloc.fail"],
            lambda: ratio(counts.get("allocators.malloc.fail", 0), span("allocators.malloc", 0)),
        ),
        "allocators.malloc.self_s": (["allocators.malloc"], lambda: span("allocators.malloc", 2)),
        "allocators.init.self_s": (["allocators.init"], lambda: span("allocators.init", 2)),
        "alloc_model.wf_check.calls": (["alloc_model.wf_check"], lambda: span("alloc_model.wf_check", 0)),
        "alloc_model.wf_check.trials": (
            ["alloc_model.wf_check.trials"], lambda: counts.get("alloc_model.wf_check.trials", 0)),
        "alloc_model.wf_check.self_s": (["alloc_model.wf_check"], lambda: span("alloc_model.wf_check", 2)),
        "alloc_model.trials_per_s": (
            ["alloc_model.wf_check", "alloc_model.wf_check.trials"],
            lambda: ratio(counts.get("alloc_model.wf_check.trials", 0), span("alloc_model.wf_check", 1)),
        ),
        "notac.run.calls": (["notac.run"], lambda: span("notac.run", 0)),
        "notac.run.steps": (["notac.step"], lambda: counts.get("notac.step", 0)),
        "notac.run.self_s": (["notac.run"], lambda: span("notac.run", 2)),
        "notac.steps_per_s": (
            ["notac.run", "notac.step"],
            lambda: ratio(counts.get("notac.step", 0), span("notac.run", 1)),
        ),
        "notac.parse.self_s": (["notac.parse"], lambda: span("notac.parse", 2)),
        "filtering.similar.calls": (["filtering.similar"], lambda: span("filtering.similar", 0)),
        "filtering.similar.true_ratio": (
            ["filtering.similar", "filtering.similar.true"],
            lambda: ratio(counts.get("filtering.similar.true", 0), span("filtering.similar", 0)),
        ),
        "filtering.similar.self_s": (["filtering.similar"], lambda: span("filtering.similar", 2)),
        "filtering.prefixes_similar_to.calls": (
            ["filtering.prefixes_similar_to"], lambda: span("filtering.prefixes_similar_to", 0)),
        "filtering.prefixes_similar_to.self_s": (
            ["filtering.prefixes_similar_to"], lambda: span("filtering.prefixes_similar_to", 2)),
        "gai.gai_check.calls": (["gai.gai_check"], lambda: span("gai.gai_check", 0)),
        "gai.wf_phase_s": (
            ["gai.gai_check", "gai.check_family_wf"],
            lambda: under.get("gai.gai_check>gai.check_family_wf", 0.0),
        ),
        "gai.run_phase_s": (
            ["gai.gai_check", "notac.run"], lambda: under.get("gai.gai_check>notac.run", 0.0)),
        "gai.impact_phase_s": (
            ["gai.gai_check", "filtering.similar"],
            lambda: under.get("gai.gai_check>filtering.similar", 0.0)
            + under.get("gai.gai_check>filtering.prefixes_similar_to", 0.0),
        ),
        "gai.gai_check.self_s": (["gai.gai_check"], lambda: span("gai.gai_check", 2)),
        "memsafe.ms_run.self_s": (["memsafe.ms_run"], lambda: span("memsafe.ms_run", 2)),
        "memsafe.translate.self_s": (["memsafe.translate"], lambda: span("memsafe.translate", 2)),
        "memsafe.differential_check.self_s": (
            ["memsafe.differential_check"], lambda: span("memsafe.differential_check", 2)),
    }
    return {name: value() for name, (needs, value) in defs.items() if all(n in have for n in needs)}


def traced_metrics(items: list, plain: list, info: dict, units: dict) -> tuple[dict, list, bool]:
    """Two traced passes over the items the untraced pass finished.

    Returns (per-layer metrics, traced rows, self-check passed)."""
    done = [(item, row) for item, row in zip(items, plain) if "output" in row]
    skipped = [row["item"] for row in plain if "output" not in row]
    if skipped:
        info["notes"].append(f"not traced (no output untraced): {skipped}")
    passes = [run_pass([item for item, _ in done], True, p) for p in range(TRACED_PASSES)]
    consistent = True
    for rows in passes:
        for (item, base), row in zip(done, rows):
            if row.get("output") != base["output"]:
                consistent = False
                info["notes"].append(f"traced output of {item['name']} differs ({row['status']})")
    aggs = [aggregate(rows) for rows in passes]
    counts = [exact_counts(agg) for agg in aggs]
    if any(c != counts[0] for c in counts[1:]):
        consistent = False
        diff = sorted(k for k in counts[0].keys() | counts[1].keys() if counts[0].get(k) != counts[1].get(k))
        info["notes"].append(f"exact counts differ between traced passes: {diff}")
    info["notes"].extend(note for note in aggs[0]["notes"] if note not in info["notes"])
    per_pass = [layer_metrics(agg) for agg in aggs]
    # Counts repeat exactly across passes; times are medians over them.
    metrics = {
        name: value if units[name] == "count" else statistics.median(m[name] for m in per_pass)
        for name, value in per_pass[0].items()
    }
    plain_wall = sum(row["time_s"] for _, row in done)
    traced_wall = statistics.median(sum(r["time_s"] for r in rows) for rows in passes)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    info["trace"] = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return metrics, [r for rows in passes for r in rows], consistent


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / 25 * PASSES_PER_25S[workload]))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """Run one workload; ``units`` maps the metric names to report to their units."""
    items = workloads.build(workload, seed)
    info = {"workload": workload, "seed": seed, "items": len(items),
            "budget_s": workloads.BUDGET_S[workload], "src_lines": src_lines(), "notes": []}
    started = time.monotonic()
    passes = []
    planned = 1 if trace else pass_count(workload, seconds)
    for p in range(planned):
        pass_started = time.monotonic()
        passes.append(run_pass(items, False, p))
        took = time.monotonic() - pass_started
        if p + 1 < planned and time.monotonic() - started + took > RUN_LIMIT_S:
            info["notes"].append(f"stopped after {p + 1} of {planned} passes to end in time")
            break
    info["passes"] = len(passes)
    rows = [r for rows in passes for r in rows]
    consistent = True
    if trace:
        metrics, traced_rows, consistent = traced_metrics(items, passes[0], info, units)
        rows += traced_rows
    else:
        metrics = end_to_end(passes, info)
    missing = [name for name in units if name not in metrics]
    if missing:
        info["notes"].append(f"metrics absent: {missing}")
    failed = sum(r["status"] in ("wrong", "error") for r in rows)
    print(json.dumps({"info": info}))
    for name, value in metrics.items():
        print(f"# {workload} {name} = {value} {units[name]}")
    return {
        "correct": failed == 0 and consistent,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gai_lab" / "__init__.py").is_file():
        print(f"error: no gai_lab sources under {SRC}", file=sys.stderr)
        return 2
    # Compile once, so that no item's set-up time includes compiling.
    compileall.compile_dir(str(SRC), quiet=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), units) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
