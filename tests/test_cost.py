"""Cost contracts: how the work of a layer grows with the size of its input.

A contract names a workload, a size axis and a deterministic counter, so it
holds exactly and cannot flake on a loaded machine.

* Parser, program length: a straight-line program's tokens and its calls of
  ``expr`` double exactly when its statements double.  ``expr`` runs once
  per expression and once per binary operator, not once per operator level.
"""

import pytest

from gai_lab import notac


@pytest.fixture
def expr_calls(monkeypatch):
    """A one-element list holding the number of ``_Parser.expr`` calls so far."""
    calls = [0]
    inner = notac._Parser.expr

    def expr(self, level=0):
        calls[0] += 1
        return inner(self, level)

    monkeypatch.setattr(notac._Parser, "expr", expr)
    return calls


def test_expr_runs_once_per_expression_and_once_per_binary_operator(expr_calls):
    prog = notac.parse("observe(1 + 2 * 3 - 4);")
    assert notac.to_source(prog.body) == "observe(((1 + (2 * 3)) - 4));"
    assert expr_calls[0] == 4


def straight_line(n: int) -> str:
    return "".join(f"x = x * {k % 7} + y - {k};\nobserve(x ^ (y < 3));\n" for k in range(n))


def test_parser_work_doubles_with_program_length(expr_calls):
    tokens, calls = [], []
    for n in (250, 500, 1000):
        src = straight_line(n)
        tokens.append(len(notac._Parser(src).toks) - 1)  # not the end-of-input token
        expr_calls[0] = 0
        notac.parse(src)
        calls.append(expr_calls[0])
    assert tokens == [tokens[0], 2 * tokens[0], 4 * tokens[0]]
    assert calls == [calls[0], 2 * calls[0], 4 * calls[0]]
    # Per statement pair: three expressions, one of them in parentheses, and
    # their five binary operators.
    assert calls[0] == 250 * 8
