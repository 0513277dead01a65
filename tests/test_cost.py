"""Cost contracts: how the work of a layer grows with the size of its input.

A contract names a workload, a size axis and a deterministic counter, so it
holds exactly and cannot flake on a loaded machine.

* Parser, program length: a straight-line program's tokens and its calls of
  ``expr`` double exactly when its statements double.  ``expr`` runs once
  per expression and once per binary operator, not once per operator level.
* Interpreter, program length: a straight-line program of n increments
  and observes takes 2n + 2 ``notac.step`` calls (2,002 / 4,002 / 8,002 at
  n = 1,000 / 2,000 / 4,000), exponent 1, and a step is never passed a
  stack longer than 1, exponent 0.  A loop of 4 iterations over an ``if``
  block of B statements takes 279 / 535 / 1,047 steps at B = 64 / 128 /
  256 and a longest stack of 4.  Pushing every sequence flat onto the
  stack read longest stacks of 2,000 / 4,000 / 8,000 and 66 / 130 / 258.
  A stack's depth is the ``(head, rest)`` pairs walked to ``None``.
* Interpreter, sequence nesting: a hand-built left-nested chain of 100,000
  ``Seq`` levels runs to ``terminated``, and every step returns a stack
  that reaches, by identity, the ``rest`` of the stack it was given
  after only the pairs it pushed: 100,000 in the whole run, one per
  level.  So no step copies the stack below its head.  The run is also
  bounded in wall time, under 5 s, a margin of more than 10 times; this
  is the one wall-time contract.  A stack kept as a tuple, sliced at
  every step and copied at every push, cost O(d^2) to unfold d levels
  and ran out of the default fuel after 64 s.
* First fit, live blocks: the heap membership tests of a malloc of eager,
  guarded-eager and curious do not grow with the blocks already live.  A
  cell-by-cell scan made 41 / 73 / 137 (eager and curious) and 62.5 / 110.5
  / 206.5 (guarded-eager) per malloc at 16 / 32 / 64 live blocks.
* The whole check, loop iterations: ``gai_check`` of an alloc/free loop
  under the default family makes interpreter steps, heap membership tests
  and ``_lockstep`` states linear in the iterations, exponent 1.
* Similarity, trace length: ``similar_prefixes`` of two equal runs of n
  observes takes 2n + 1 ``_lockstep`` states, exponent 1.  Without the
  search's rule 1 it took (n + 1)^2, 10,201 at n = 100.
* Distinct traces d: a family of d eager members with d distinct traces
  makes d(d - 1) / 2 ``similar_prefixes`` calls, 6 / 28 / 120 at
  d = 4 / 8 / 16, exponent 2.
* Family size: ``gai_check`` of a 64-iteration alloc/free loop under
  ``default_family() * k`` makes 6 ``similar_prefixes`` and 10
  ``same_class`` calls at k = 1 / 2 / 4, exponent 0.  A per-position loop
  over every member made 18 / 36 / 72 class tests.
* Similarity, alloc-loop length: the same check of the loop searches its
  pairs in 775 ``_lockstep`` states at k = 512 / 1,024 / 2,048,
  exponent 0, because every pair of its traces parts by event #515.
* Well-formedness, trials and history length: the allocator calls of
  ``wf_check`` of eager grow linearly in ``trials`` (1,120 / 2,284 / 4,572
  at 100 / 200 / 400) and in ``max_len`` (1,120 / 2,284 / 4,514 at
  12 / 24 / 48), exponent 1.
* Arena size: the heap membership tests of a malloc do not grow with the
  segment, exponent 0, for every default-family kind (eager 2,
  guarded-eager 4, curious 2, the others 0).  Nor do the cells ``init``
  builds into the heap, for every kind: a bump kind adds its segment as
  one filled interval.  A bump ``init`` that built each cell of its
  segment made 4,103 / 8,199 / 16,391 cells at 4,096 / 8,192 / 16,384.
* Well-formedness walker, block size: a judged ``check_history`` of
  ``(M n, M 1)`` with no updates under ``bump:0,8,n+10`` asks
  ``Heap.read_many`` for 3n + 33 cells (3,105 / 6,177 / 12,321 at n =
  1,024 / 2,048 / 4,096), since it reads every allowed cell before and
  after each step.  A judged step should read what it changes, exponent
  0 (ROADMAP item 13, ``xfail``).
"""

import time

import pytest

from gai_lab import alloc_model, filtering, gai, notac
from gai_lab.alloc_model import NO_UPDATE, SymMalloc, check_history
from gai_lab.allocators import BumpAlloc, CuriousAlloc, EagerAlloc, GuardedEagerAlloc, parse_alloc_spec
from gai_lab.core import Heap
from gai_lab.gai import DEFAULT_CURIOUS, DEFAULT_EAGER_SEGMENT, DEFAULT_ENV_BASE, gai_check, variable_base


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


@pytest.fixture
def step_and_state_counts(monkeypatch):
    """The ``notac.step`` calls and ``_lockstep`` states so far, read by
    wrapping the module globals."""
    counts = {"steps": 0, "states": 0}
    step, lockstep = notac.step, filtering._lockstep

    def counted_step(*args):
        counts["steps"] += 1
        return step(*args)

    def counted_lockstep(*args):
        for state in lockstep(*args):
            counts["states"] += 1
            yield state

    monkeypatch.setattr(notac, "step", counted_step)
    monkeypatch.setattr(filtering, "_lockstep", counted_lockstep)
    return counts


def alloc_free_loop(k: int):
    """``(program, env, heap)`` of k iterations of malloc(1) and free, with
    the variables where the default family puts them."""
    program = notac.parse(f"i = 0; while (i < {k}) {{ p = malloc(1); free(p); i = i + 1; }}")
    env, heap, _ = notac.make_env(program, DEFAULT_ENV_BASE)
    return program, env, heap


def test_check_work_grows_linearly_with_loop_iterations(step_and_state_counts, contains_calls):
    """Measured at k = 64 / 128 / 256: steps 2,275 / 4,515 / 8,995 (35 per
    iteration), membership tests 337 / 657 / 1,297 (5 per iteration) and
    search states 389 / 517 / 773 (2 per iteration).  Each is a positive
    start-up term plus a fixed cost per iteration, so the top doubling at
    most doubles it: the slack is 0.  Work that rescanned the trace or the
    live blocks per iteration would grow 4x."""
    counts = step_and_state_counts
    per_size = []
    for k in (64, 128, 256):
        program, env, heap = alloc_free_loop(k)
        counts.update(steps=0, states=0)
        contains_calls[0] = 0
        assert gai_check(program, env, heap).verdict == "pass"
        per_size.append((counts["steps"], contains_calls[0], counts["states"]))
    slack = 0
    _, middle, top = per_size
    for counter, mid, hi in zip(("steps", "contains", "states"), middle, top):
        assert mid < hi <= 2 * mid + slack, (counter, per_size)


def test_similarity_work_grows_linearly_with_trace_length(step_and_state_counts):
    states = []
    for n in (100, 200, 400):
        trace = tuple(notac.ObsEv(k) for k in range(n))
        step_and_state_counts["states"] = 0
        assert filtering.similar_prefixes(trace, trace) == set(range(n + 1))
        states.append(step_and_state_counts["states"])
    assert states == [201, 401, 801]  # 2n + 1 by rule 1
    assert states[2] <= 2 * states[1]


def stack_depth(stack) -> int:
    """The number of commands on a stack of ``(head, rest)`` pairs: the pairs walked to ``None``."""
    depth = 0
    while stack is not None:
        depth, stack = depth + 1, stack[1]
    return depth


@pytest.fixture
def step_stacks(monkeypatch):
    """The depth of the stack passed to each ``notac.step`` call so far, read
    by wrapping the module global."""
    lengths = []
    step = notac.step

    def counted_step(env, strategy, heap, stack, state):
        lengths.append(stack_depth(stack))
        return step(env, strategy, heap, stack, state)

    monkeypatch.setattr(notac, "step", counted_step)
    return lengths


def straight_increments(n: int) -> str:
    return "x = 0;\n" + "x = x + 1; observe(x);\n" * n


def looped_block(b: int) -> str:
    return "i = 0; x = 0; while (i < 4) { if (1) { " + "x = x + 1; " * b + "} i = i + 1; } observe(x);"


@pytest.mark.parametrize("source, sizes, expected_steps, longest", [
    (straight_increments, (1000, 2000, 4000), [2002, 4002, 8002], 1),
    (looped_block, (64, 128, 256), [279, 535, 1047], 4),
], ids=["straight-line", "block"])
def test_interpreter_work_grows_linearly_with_program_length(step_stacks, source, sizes, expected_steps, longest):
    """A block's statements unfold one at a time at the head of the stack,
    so the stack does not grow with the block (see the module docstring)."""
    steps, stacks = [], []
    for n in sizes:
        program = notac.parse(source(n))
        env, heap, _ = notac.make_env(program, DEFAULT_ENV_BASE)
        step_stacks.clear()
        assert notac.run(env, parse_alloc_spec("null"), program, heap).terminated
        steps.append(len(step_stacks))
        stacks.append(max(step_stacks))
    assert steps == expected_steps
    assert stacks == [longest] * 3


def test_a_deep_left_nested_chain_runs_in_linear_time(monkeypatch):
    """100,000 levels of ``Seq(Seq(..., Skip()), Skip())``, built by hand (the
    parser nests to the right).  Every step receives ``None`` or one
    ``(head, rest)`` pair and returns a stack that shares that ``rest``:
    the first step pushes one pair per level and every later one pushes
    none.  The run also ends within a wall-time bound (see the module
    docstring)."""
    depth = 100_000
    body = notac.Skip()
    for _ in range(depth):
        body = notac.Seq(body, notac.Skip())
    step = notac.step
    pushed = []

    def checked_step(env, strategy, heap, stack, state):
        assert stack is None or (type(stack) is tuple and len(stack) == 2)
        res = step(env, strategy, heap, stack, state)
        if res is not None:
            tail, count = res[0], 0
            while tail is not stack[1]:
                assert tail is not None, "the next stack does not share the rest"
                tail, count = tail[1], count + 1
            pushed.append(count)
        return res

    monkeypatch.setattr(notac, "step", checked_step)
    start = time.perf_counter()
    out = notac.run({}, parse_alloc_spec("null"), notac.Program(body, ()), Heap(), fuel=200_000)
    elapsed = time.perf_counter() - start
    assert out.terminated
    assert pushed[0] == depth and sum(pushed) == depth
    assert len(pushed) == depth + 1
    assert elapsed < 5.0, elapsed


ARENA_CELLS = (4096, 8192, 16384)
WINDOW_CELLS = 8


def arena_spec(kind: str, cells: int) -> str:
    """A spec of a default-family kind whose segment past an 8-cell window
    at 0 holds ``cells`` cells; for curious, each semispace does."""
    if kind == "curious":
        m = cells.bit_length()  # lower_max = 2 ** (m - 1) = cells
        return f"curious:{m},{2 ** m + WINDOW_CELLS}"
    if kind == "null":
        return "null"
    segment = f"0,{WINDOW_CELLS},{WINDOW_CELLS + cells}"
    return f"nozero(bump:{segment})" if kind == "nozero(bump)" else f"{kind}:{segment}"


def arena_init(kind: str, cells: int):
    """The strategy and its ``init`` of a heap holding its window's cells."""
    strategy = parse_alloc_spec(arena_spec(kind, cells))
    base = variable_base([strategy], WINDOW_CELLS)
    return (strategy, *strategy.init(Heap(dict.fromkeys(range(base, base + WINDOW_CELLS), 0))))


@pytest.mark.parametrize("kind, per_malloc", [
    ("eager", 2), ("guarded-eager", 4), ("curious", 2),
    ("bump", 0), ("lenient-bump", 0), ("nozero(bump)", 0), ("null", 0),
])
def test_malloc_work_does_not_grow_with_the_arena(kind, per_malloc, contains_calls):
    counts = []
    for cells in ARENA_CELLS:
        strategy, heap, state = arena_init(kind, cells)
        contains_calls[0] = 0
        for _ in range(8):
            heap, state, _a = strategy.malloc(heap, state, 2)
        counts.append(contains_calls[0] / 8)
    assert counts == [per_malloc] * 3


@pytest.mark.parametrize("kind", ["eager", "guarded-eager", "curious", "null", "bump", "lenient-bump", "nozero(bump)"])
def test_init_cells_do_not_grow_with_the_arena(kind):
    # The heap's own cells, not ``len``, which also counts filled ones.
    cells = [len(arena_init(kind, n)[1]._cells) for n in ARENA_CELLS]
    assert cells == [cells[0]] * 3, cells


@pytest.mark.xfail(strict=True, reason="the wf walker reads every allowed cell at each step (ROADMAP item 13)")
def test_judged_walker_reads_do_not_grow_with_a_block(monkeypatch):
    """Cells a judged ``check_history`` of ``(M n, M 1)`` reads through
    ``Heap.read_many``, exponent 0 in the block size n."""
    read = [0]
    inner = Heap.read_many

    def read_many(self, addrs):
        read[0] += len(addrs)
        return inner(self, addrs)

    monkeypatch.setattr(Heap, "read_many", read_many)
    reserved = frozenset(range(0, WINDOW_CELLS))
    counts = []
    for n in (1024, 2048, 4096):
        read[0] = 0
        sigma, updates = (SymMalloc(n), SymMalloc(1)), (NO_UPDATE, NO_UPDATE)
        heap = Heap(dict.fromkeys(reserved, 0))
        assert check_history(BumpAlloc(0, WINDOW_CELLS, n + 10), reserved, heap, sigma, updates, updates) == {}
        counts.append(read[0])
    assert counts == [counts[0]] * 3, counts


def counted_gai_global(monkeypatch, name: str) -> list:
    """A one-element list holding the number of calls so far of the ``gai``
    module global ``name``, which is wrapped to count them."""
    calls = [0]
    inner = getattr(gai, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(gai, name, counted)
    return calls


@pytest.fixture
def similar_prefixes_calls(monkeypatch):
    """A one-element list holding the number of ``gai.similar_prefixes`` calls so far."""
    return counted_gai_global(monkeypatch, "similar_prefixes")


@pytest.fixture
def same_class_calls(monkeypatch):
    """A one-element list holding the number of ``gai.same_class`` calls so far."""
    return counted_gai_global(monkeypatch, "same_class")


def test_searches_grow_with_the_pairs_of_distinct_traces(similar_prefixes_calls):
    """A family of d eager members whose segments start one cell apart gives
    d distinct traces, and the check searches each pair once: d(d - 1) / 2
    searches, exponent 2.  At 2d that is 4 times the count at d, plus d, so
    the slack of the top doubling is the middle d."""
    program = notac.parse("p = malloc(1); if (p != NULL) { free(p); } observe(1);")
    calls = []
    for d in (4, 8, 16):
        family = [EagerAlloc(0, 8 + i, 4096) for i in range(d)]
        env, heap, _ = notac.make_env(program, variable_base(family, len(program.variables)))
        similar_prefixes_calls[0] = 0
        report = gai_check(program, env, heap, family)
        assert report.verdict == "pass" and len(set(report.runs.values())) == d
        calls.append(similar_prefixes_calls[0])
    assert calls == [6, 28, 120]
    assert calls[2] <= 4 * calls[1] + 8


def test_judging_work_does_not_grow_with_copies_of_the_family(similar_prefixes_calls, same_class_calls):
    """``default_family() * k`` gives the same 4 distinct traces at every k,
    and reach is judged once per pair of distinct traces, so the searches
    (6) and the class tests (10) do not grow with k, exponent 0.  A loop
    over every position of every member, copies included, made 18 / 36 / 72
    class tests at k = 1 / 2 / 4."""
    program, env, heap = alloc_free_loop(64)
    counts = []
    for k in (1, 2, 4):
        similar_prefixes_calls[0] = same_class_calls[0] = 0
        report = gai_check(program, env, heap, gai.default_family() * k)
        assert report.verdict == "pass" and len(report.runs) == 7 * k
        counts.append((similar_prefixes_calls[0], same_class_calls[0]))
    assert counts == [(6, 10)] * 3


def test_similarity_states_do_not_grow_with_alloc_loop_length(step_and_state_counts, similar_prefixes_calls):
    """The default-family check of the alloc/free loop searches its 6 pairs
    of distinct traces in 775 ``_lockstep`` states at k = 512 / 1,024 /
    2,048 (773 at k = 256), exponent 0, although the traces grow with k:
    a search stops where its pair of traces parts, and the last pair to
    part, eager and curious, parts at event #515, when curious's first
    failed malloc follows its full 256-cell semispace."""
    states = []
    for k in (512, 1024, 2048):
        program, env, heap = alloc_free_loop(k)
        step_and_state_counts["states"] = similar_prefixes_calls[0] = 0
        assert gai_check(program, env, heap).verdict == "pass"
        assert similar_prefixes_calls[0] == 6
        states.append(step_and_state_counts["states"])
    assert states == [775] * 3


class CountingEager(EagerAlloc):
    """The default family's eager member, counting its malloc and free calls."""

    calls = 0

    def malloc(self, heap, state, size):
        self.calls += 1
        return super().malloc(heap, state, size)

    def free(self, heap, state, addr):
        self.calls += 1
        return super().free(heap, state, addr)


def wf_strategy_calls(trials: int, max_len: int) -> int:
    """The malloc and free calls of ``wf_check`` of eager at reserved 2048..2055, seed 0."""
    strategy = CountingEager(*DEFAULT_EAGER_SEGMENT)
    reserved = frozenset(range(2048, 2056))
    reports = alloc_model.wf_check(strategy, reserved, Heap(dict.fromkeys(reserved, 0)), trials, 0, max_len)
    assert all(r.passed for r in reports)
    return strategy.calls


@pytest.mark.parametrize("axis, sizes, expected", [
    ("trials", (100, 200, 400), [1120, 2284, 4572]),
    ("max_len", (12, 24, 48), [1120, 2284, 4514]),
], ids=["trials", "max_len"])
def test_wf_work_grows_linearly_with_trials_and_history_length(axis, sizes, expected):
    """Allocator calls of ``wf_check``, exponent 1 on both axes (``max_len``
    at 100 trials).  Histories are drawn, so a doubling may land a few calls
    above 2x: the slack is 1% of the middle count."""
    calls = [wf_strategy_calls(n, alloc_model.WF_MAX_LEN) if axis == "trials" else wf_strategy_calls(100, n)
             for n in sizes]
    assert calls == expected
    _, mid, top = calls
    assert mid < top <= 2 * mid + mid // 100
