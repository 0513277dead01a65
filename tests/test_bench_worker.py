"""The benchmark worker, traced, on one interpreter item.

The tracer wraps ``notac.run`` and counts ``notac.step`` calls through the
module global, so a change to the interpreter can silently drop those
metrics or break the worker's result line; this runs the worker as the
benchmark does and reads only its output.
"""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_traced_run_item_ends_with_its_result_line():
    source = "i = 0; while (i < 3) { p = malloc(2); free(p); i = i + 1; } observe(i);"
    request = {
        "item": {"kind": "run", "args": {"source": source, "alloc": "eager:0,8,72", "base": 0}},
        "trace": True,
        "budget_s": 60,
    }
    proc = subprocess.run(
        [sys.executable, "-B", str(WORKER)],
        input=json.dumps(request), capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == "done", result
    assert result["output"] == {"outcome": "terminated", "events": 7, "observed": [3]}
    trace = result["trace"]
    assert trace["notes"] == []  # no span or count was dropped or left unwrapped
    # one step for i = 0, five per iteration, three for the exit, one observe,
    # and the call that finds nothing left to run
    assert trace["counts"]["notac.step"] == 1 + 5 * 3 + 3 + 1 + 1
    assert trace["spans"]["notac.run"][0] == 1
