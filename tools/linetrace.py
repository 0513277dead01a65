"""List the ``src/gai_lab`` statements that a pytest run never executes.

A statement-coverage check that needs only the standard library: the run is
traced with :func:`sys.settrace`, which records every line executed in a
``src/gai_lab`` frame, and :mod:`ast` names the statements of each module.
A simple statement counts as reached when any of its lines ran; a compound
statement (``if``, ``while``, ``def``, ...) when a line of its header or of
its decorators ran.  Docstrings are not statements here.  Code run in a
subprocess is not seen.

Run from the repository root (it is not part of the test suite; pytest
arguments after ``--`` are passed on)::

    python3 tools/linetrace.py -- -q -p no:cacheprovider

Tracing makes the run several times slower: about two and a half minutes
for the whole suite on a 2-core machine.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gai_lab"


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """``(first line, the lines whose execution reaches it)`` for each
    statement of the module at ``path``, docstrings left out."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:  # compound: its header and decorators
            lines = set(range(node.lineno, body[0].lineno))
            lines.update(d.lineno for d in getattr(node, "decorator_list", ()))
        else:
            lines = set(range(node.lineno, node.end_lineno + 1))
        found.append((node.lineno, lines))
    return sorted(found, key=lambda f: f[0])


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in this process under the tracer: its exit code, and
    filename -> the lines executed in that ``src/gai_lab`` file."""
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    import pytest

    sys.settrace(global_)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), executed


def main(argv: list[str]) -> int:
    pytest_args = argv[argv.index("--") + 1:] if "--" in argv else ["-q"]
    sys.path.insert(0, str(ROOT / "src"))
    code, executed = traced_run(pytest_args)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        source = path.read_text().splitlines()
        for first, lines in statements(path):
            if not lines & ran:
                missed.append(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"\n{len(missed)} statements never executed (pytest exit code {code})")
    print("\n".join(missed))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
