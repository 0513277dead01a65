"""Run one benchmark item in this fresh process and print its result as JSON.

Reads ``{"item": {...}, "trace": bool, "budget_s": float}`` on stdin.  The
process starts cold: nothing the checker memoizes can survive from another
item.  Set-up (imports, parsing, building environments and allocators) is
timed apart from the item's call into the checker, and the call is cut at
the budget by a timer signal and reported as ``timeout``.

Usage: python3 perfbench/worker.py < item.json
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


class ItemTimeout(BaseException):
    """Raised by the timer inside the checker; not an ``Exception`` so that
    no handler in the code under test can swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def _observed(trace) -> list:
    from gai_lab.notac import ObsEv

    return [ev.val for ev in trace if isinstance(ev, ObsEv)]


def prepare(kind: str, args: dict):
    """Build the item's inputs; returns (call into the checker, output digest)."""
    if kind == "corpus":
        from gai_lab import corpus

        def corpus_output(results):
            return {"verdicts": {r.case.name: r.actual for r in results}}

        return (lambda: corpus.run_corpus(names=[args["case"]])), corpus_output
    if kind == "gai":
        from gai_lab import corpus, gai, notac

        source = args.get("source") or corpus.xor_script(args["ops"])
        program = notac.parse(source)
        env, heap, _reserved = notac.make_env(program, gai.DEFAULT_ENV_BASE)

        def gai_output(report):
            runs = {
                name: {"outcome": kind, "events": len(trace), "observed": _observed(trace)}
                for name, (kind, trace) in report.runs.items()
            }
            return {"verdict": report.verdict, "runs": runs}

        return (lambda: gai.gai_check(program, env, heap, wf_seed=args["wf_seed"])), gai_output
    if kind == "memsafe":
        from gai_lab import memsafe

        cmd = memsafe.ms_parse(args["source"])

        def memsafe_output(rep):
            verdict = rep.gai_report.verdict if rep.gai_report is not None else None
            runs = {name: [kind, oom] for name, (kind, oom) in rep.runs.items()}
            return {"ok": rep.ok, "gai": verdict, "runs": runs}

        call = lambda: memsafe.differential_check(cmd, initial_store=args["store"], wf_trials=8)  # noqa: E731
        return call, memsafe_output
    if kind == "run":
        from gai_lab import allocators, notac

        program = notac.parse(args["source"])
        env, heap, _reserved = notac.make_env(program, args["base"])
        strategy = allocators.parse_alloc_spec(args["alloc"])

        def run_output(out):
            return {"outcome": out.kind, "events": len(out.trace), "observed": _observed(out.trace)}

        return (lambda: notac.run(env, strategy, program, heap)), run_output
    if kind == "wf":
        from gai_lab import alloc_model, allocators, core

        strategy = allocators.parse_alloc_spec(args["alloc"])
        reserved = frozenset(range(args["reserved"]))
        heap = core.Heap({a: 0 for a in reserved})

        def wf_output(reports):
            return {"clauses": [r.clause for r in reports],
                    "failed": [r.clause for r in reports if not r.passed]}

        call = lambda: alloc_model.wf_check(  # noqa: E731
            strategy, reserved, heap, trials=args["trials"], seed=args["seed"])
        return call, wf_output
    raise ValueError(f"unknown item kind {kind!r}")


def main() -> int:
    request = json.load(sys.stdin)
    item = request["item"]
    result = {"status": "done", "time_s": 0.0, "setup_s": 0.0}
    start = time.perf_counter()
    tracer = None
    try:
        import gai_lab.corpus  # noqa: F401 - imports the whole checker
        import gai_lab.memsafe  # noqa: F401

        if request["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        call, digest = prepare(item["kind"], item["args"])
        ready = time.perf_counter()
        result["setup_s"] = ready - start
        signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, request["budget_s"])
            try:
                value = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                result["time_s"] = time.perf_counter() - t0
        except ItemTimeout:
            result["status"] = "timeout"
        else:
            result["output"] = digest(value)
    except Exception as exc:  # noqa: BLE001 - a crash is this item's result
        result["status"] = "error"
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.export()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
