"""Cost contracts: how the work of a layer grows with the size of its input.

A contract names a workload, a size axis and a deterministic counter, so it
holds exactly and cannot flake on a loaded machine.

* Parser, program length: a straight-line program's tokens and its calls of
  ``expr`` double exactly when its statements double.  ``expr`` runs once
  per expression and once per binary operator, not once per operator level.
* First fit, live blocks: the heap membership tests of a malloc of eager,
  guarded-eager and curious do not grow with the blocks already live.  A
  cell-by-cell scan made 41 / 73 / 137 (eager and curious) and 62.5 / 110.5
  / 206.5 (guarded-eager) per malloc at 16 / 32 / 64 live blocks.
"""

import pytest

from gai_lab import notac
from gai_lab.allocators import CuriousAlloc, EagerAlloc, GuardedEagerAlloc
from gai_lab.core import Heap
from gai_lab.gai import DEFAULT_CURIOUS, DEFAULT_EAGER_SEGMENT


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


@pytest.fixture
def contains_calls(monkeypatch):
    """A one-element list holding the number of ``Heap.__contains__`` calls so far."""
    calls = [0]
    inner = Heap.__contains__

    def contains(self, a):
        calls[0] += 1
        return inner(self, a)

    monkeypatch.setattr(Heap, "__contains__", contains)
    return calls


def live_blocks(strategy, n: int):
    """``(heap, state)`` after ``n`` live 2-cell blocks; for curious, ``n``
    of them in the committed semispace, after its first block."""
    heap, state = strategy.init(Heap())
    for _ in range(n + isinstance(strategy, CuriousAlloc)):
        heap, state, _a = strategy.malloc(heap, state, 2)
    return heap, state


@pytest.mark.parametrize("strategy", [
    EagerAlloc(*DEFAULT_EAGER_SEGMENT),
    GuardedEagerAlloc(*DEFAULT_EAGER_SEGMENT),
    CuriousAlloc(*DEFAULT_CURIOUS),
], ids=lambda s: s.name)
def test_first_fit_work_does_not_grow_with_live_blocks(strategy, contains_calls):
    per_malloc = []
    for n in (16, 32, 64):
        heap, state = live_blocks(strategy, n)
        contains_calls[0] = 0
        for _ in range(8):
            heap, state, a = strategy.malloc(heap, state, 2)
            assert a != strategy.null(state)
        per_malloc.append(contains_calls[0] / 8)
    # One window of two cells, and one guard cell on each side of it.
    assert per_malloc == [2 + 2 * getattr(strategy, "guard", 0)] * 3


def test_a_failing_curious_malloc_on_a_full_semispace_is_cheap(contains_calls):
    strategy = CuriousAlloc(*DEFAULT_CURIOUS)
    heap, state = live_blocks(strategy, strategy.lower_max // 2)  # [1, lower_max] is full
    span = 2
    contains_calls[0] = 0
    _heap, _state, a = strategy.malloc(heap, state, span)
    assert a == strategy.null(state)
    assert contains_calls[0] <= span + 2
