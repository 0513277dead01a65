"""The randomized allocator well-formedness harness."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gai_lab import memsafe, notac
from gai_lab.alloc_model import (
    WF_CLAUSES,
    Strategy,
    SymMalloc,
    _draw,
    _gen_update,
    _replay,
    _walk,
    check_history,
    feasible_run,
    parse_symseq,
    replay_wf_witness,
    wf_check,
)
from gai_lab.allocators import bump, curious, eager, guarded_eager, lenient_bump, no_zero, null_alloc
from gai_lab.core import Heap, InaccessibleWrite
from gai_lab.gai import DEFAULT_EAGER_SEGMENT, DEFAULT_ENV_BASE, FamilyNotWellFormed, default_family, gai_check
from test_core import count_copied_cells
from test_symbolic import gen_update_seq
from wf_oracle import _gen_feasible_history, judged_steps

RESERVED = frozenset(range(0, 8))
HEAP = Heap({a: 0 for a in RESERVED})

SEGMENT_FAMILY = [
    eager(0, 8, 72),
    guarded_eager(0, 8, 72),
    bump(0, 8, 72),
    lenient_bump(0, 8, 72),
    no_zero(bump(0, 8, 72)),
    null_alloc(),
]


@pytest.mark.parametrize("strategy", SEGMENT_FAMILY, ids=lambda s: s.name)
def test_segment_allocators_well_formed(strategy):
    reports = wf_check(strategy, RESERVED, HEAP, trials=150, seed=3)
    assert [r.clause for r in reports] == list(WF_CLAUSES)
    assert all(r.passed for r in reports), [
        (r.clause, r.witness.detail) for r in reports if not r.passed
    ]


def test_curious_well_formed_outside_its_world():
    reserved = frozenset(range(48, 56))
    heap = Heap({a: 0 for a in reserved})
    reports = wf_check(curious(4, 47), reserved, heap, trials=150, seed=3)
    assert all(r.passed for r in reports)


def test_reserved_must_be_in_heap():
    with pytest.raises(ValueError):
        wf_check(bump(0, 8, 72), frozenset({999}), HEAP, trials=1)


@pytest.mark.parametrize("bound", [{"trials": -3}, {"max_len": -1}], ids=["trials", "max_len"])
def test_a_negative_bound_is_rejected_by_name(bound):
    # unchecked, a negative trial count would read as a bound that was
    # checked, and a negative max_len would fail inside the first draw
    (name,) = bound
    with pytest.raises(ValueError, match=f"^{name} must not be negative"):
        wf_check(bump(0, 8, 72), RESERVED, HEAP, **bound)


def test_zero_bounds_check_nothing_or_empty_histories():
    assert all(r.passed and r.trials == 0 for r in wf_check(bump(0, 8, 72), RESERVED, HEAP, trials=0))
    assert all(r.passed for r in wf_check(bump(0, 8, 72), RESERVED, HEAP, trials=20, max_len=0))


def test_gai_check_rejects_negative_wf_trials():
    prog = notac.parse("x = 1; observe(x);")
    env, heap, _ = notac.make_env(prog, DEFAULT_ENV_BASE)
    with pytest.raises(ValueError, match="^trials must not be negative"):
        gai_check(prog, env, heap, wf_trials=-1)


class OverlappingAlloc(Strategy):
    """Deliberately broken: hands out the same address for every request."""

    name = "overlapping"

    def __init__(self):
        self.inner = bump(0, 8, 72)

    def init(self, heap):
        return self.inner.init(heap)

    def null(self, state):
        return self.inner.null(state)

    def malloc(self, heap, state, size):
        if size == 0 or size > 60:
            return self.inner.malloc(heap, state, size)
        heap.define(range(9, 9 + size), 0)
        return heap, state, 9

    def free(self, heap, state, addr):
        return heap, state


class FlakyInit(Strategy):
    """Deliberately nondeterministic: its first ``init`` call tramples a
    reserved cell, later ones do not.  ``wf_check``'s one ``init`` makes
    trial 0 fail Basic-3; the replay of that failure calls ``init`` again
    and comes back clean."""

    name = "flaky-init"

    def __init__(self):
        self.inner = bump(0, 8, 72)
        self.inits = 0

    def init(self, heap):
        self.inits += 1
        if self.inits == 1:
            heap.write(1, 99)
        return self.inner.init(heap)

    def null(self, state):
        return self.inner.null(state)

    def malloc(self, heap, state, size):
        return self.inner.malloc(heap, state, size)

    def free(self, heap, state, addr):
        return self.inner.free(heap, state, addr)


def test_failure_that_does_not_replay_raises():
    with pytest.raises(RuntimeError, match="Basic-3 failure of trial 0 does not replay"):
        wf_check(FlakyInit(), RESERVED, HEAP, trials=1)


def test_broken_allocator_fails_basic_1_with_replayable_witness():
    reports = wf_check(OverlappingAlloc(), RESERVED, HEAP, trials=1000, seed=0)
    basic1 = next(r for r in reports if r.clause == "Basic-1")
    assert not basic1.passed
    assert basic1.witness is not None
    assert replay_wf_witness(OverlappingAlloc(), RESERVED, HEAP, basic1)
    assert "trial" in basic1.format_line() and "status=fail" in basic1.format_line()


class MovingNull(Strategy):
    """Every malloc fails: it returns the null of the state it starts from,
    and the null moves up by one per call."""

    name = "moving-null"

    def init(self, heap):
        return heap, 100

    def null(self, state):
        return state

    def malloc(self, heap, state, size):
        return heap, state + 1, state

    def free(self, heap, state, addr):
        return heap, state


def test_failures_are_judged_by_the_null_of_the_state_before_the_call():
    reports = wf_check(MovingNull(), RESERVED, HEAP, trials=300, seed=0)
    assert all(r.passed for r in reports), [(r.clause, r.witness.detail) for r in reports if not r.passed]
    for trial in range(50):
        sigma, _ = _gen_feasible_history(MovingNull(), RESERVED, MovingNull().init(HEAP.copy()), random.Random(trial), 12)
        assert not any(isinstance(ev, SymMalloc) for ev in sigma)


class ReservedSmasher(Strategy):
    """Broken in a different way: init zeroes a reserved cell."""

    name = "smasher"

    def __init__(self):
        self.inner = bump(0, 8, 72)

    def init(self, heap):
        h, st = self.inner.init(heap)
        h.define([0], 77)
        return h, st

    def null(self, state):
        return self.inner.null(state)

    def malloc(self, heap, state, size):
        return self.inner.malloc(heap, state, size)

    def free(self, heap, state, addr):
        return self.inner.free(heap, state, addr)


def test_reserved_smasher_fails_basic_3():
    reports = wf_check(ReservedSmasher(), RESERVED, HEAP, trials=5, seed=0)
    assert not next(r for r in reports if r.clause == "Basic-3").passed


class ClientPeeker(Strategy):
    """Broken relationally: allocation success depends on client memory."""

    name = "peeker"

    def __init__(self):
        self.inner = bump(0, 8, 72)

    def init(self, heap):
        return self.inner.init(heap)

    def null(self, state):
        return self.inner.null(state)

    def malloc(self, heap, state, size):
        if heap.read(0) not in (0, None):  # reserved cell the client may write
            return heap, state, self.null(state)
        return self.inner.malloc(heap, state, size)

    def free(self, heap, state, addr):
        return self.inner.free(heap, state, addr)


def test_client_peeker_fails_relational_clause():
    reports = wf_check(ClientPeeker(), RESERVED, HEAP, trials=300, seed=0)
    assert not all(r.passed for r in reports if r.clause in ("Rel-1", "Rel-2"))


def test_curious_rel_clauses_with_semispace_flip():
    # alternate client updates flip the chosen semispace: the addresses
    # differ across the replay but feasibility and the (size, index) pairs
    # are preserved, which is exactly what Rel-1/Rel-2 demand
    from gai_lab.alloc_model import NO_UPDATE, ClientUpdate, feasible_run

    strategy = curious(9, 2047)
    reserved = frozenset({3000})
    heap = Heap({3000: 0})
    sigma = parse_symseq("M4,M4")
    positive = (NO_UPDATE, ClientUpdate(((0, 5),)))
    negative = (NO_UPDATE, ClientUpdate(((0, -5),)))
    assert check_history(strategy, reserved, heap, sigma, positive, negative) == {}
    h0, st0 = strategy.init(heap)
    _, _, m_pos = feasible_run(strategy, reserved, h0, st0, positive, sigma)
    h0, st0 = strategy.init(heap)
    _, _, m_neg = feasible_run(strategy, reserved, h0, st0, negative, sigma)
    assert {e.addr for e in m_pos} == {513, 257}
    assert {e.addr for e in m_neg} == {513, 1}
    assert {(e.size, e.index) for e in m_pos} == {(e.size, e.index) for e in m_neg}


class ClientPlaced(Strategy):
    """Bump over a roomy arena whose blocks start one cell further on while
    reserved cell 0 holds an odd value: where a block lands depends on
    client memory, whether a malloc succeeds does not."""

    name = "client-placed"

    def __init__(self):
        self.inner = bump(0, 8, 4000)

    def init(self, heap):
        return self.inner.init(heap)

    def null(self, state):
        return self.inner.null(state)

    def malloc(self, heap, state, size):
        return self.inner.malloc(heap, state + heap.read(0) % 2, size)

    def free(self, heap, state, addr):
        return self.inner.free(heap, state, addr)


def test_rel_2_passes_when_the_replay_places_blocks_elsewhere():
    """Rel-2 compares the (size, index) pairs of the two final maps, which
    ``sigma`` alone fixes once the replay is feasible; the addresses may
    differ (see ``_judge_relational``)."""
    from gai_lab.alloc_model import NO_UPDATE, ClientUpdate

    strategy = ClientPlaced()
    sigma = parse_symseq("M4,M2,F1,M4")
    odd = (ClientUpdate(((0, 1),)), NO_UPDATE, NO_UPDATE, NO_UPDATE)  # slot 0 is reserved cell 0
    even = (ClientUpdate(((0, 2),)), NO_UPDATE, NO_UPDATE, NO_UPDATE)
    assert check_history(strategy, RESERVED, HEAP, sigma, odd, even) == {}
    maps = [feasible_run(strategy, RESERVED, *strategy.init(HEAP.copy()), u, sigma)[2] for u in (odd, even)]
    assert {e.addr for e in maps[0]} == {15, 18} and {e.addr for e in maps[1]} == {13, 15}
    assert {(e.size, e.index) for e in maps[0]} == {(e.size, e.index) for e in maps[1]} == {(2, 2), (4, 4)}
    reports = wf_check(strategy, RESERVED, HEAP, trials=200, seed=0)
    assert all(r.passed for r in reports), [(r.clause, r.witness.detail) for r in reports if not r.passed]


def test_check_history_clean_on_explicit_history():
    e = eager(0, 8, 72)
    sigma = parse_symseq("M4,M0,F1,M5")
    updates1 = gen_update_seq(1, len(sigma))
    updates2 = gen_update_seq(2, len(sigma))
    assert check_history(e, RESERVED, HEAP, sigma, updates1, updates2) == {}


def test_passing_report_lines():
    reports = wf_check(bump(0, 8, 72), RESERVED, HEAP, trials=4, seed=9)
    line = reports[0].format_line()
    assert line == "clause=Basic-1 status=pass seed=9 trial=4"


class MallocWrites(Strategy):
    """Deliberately broken: bump, but once the bump pointer has passed
    ``cell``, every malloc also writes 42 there.  A reserved cell is passed
    from the start; cell 9 is the first cell of the first block."""

    def __init__(self, cell):
        self.inner = bump(0, 8, 72)
        self.cell = cell
        self.name = f"malloc-writes-{cell}"

    def init(self, heap):
        return self.inner.init(heap)

    def null(self, state):
        return self.inner.null(state)

    def malloc(self, heap, state, size):
        heap, bumped, a = self.inner.malloc(heap, state, size)
        if state > self.cell:
            heap.write(self.cell, 42)
        return heap, bumped, a

    def free(self, heap, state, addr):
        return self.inner.free(heap, state, addr)


@pytest.mark.parametrize("cell", [3, 9], ids=["reserved-cell", "live-block-cell"])
def test_malloc_that_writes_a_client_cell_fails_basic_4(cell):
    reports = wf_check(MallocWrites(cell), RESERVED, HEAP, trials=200, seed=0)
    assert [r.clause for r in reports if not r.passed] == ["Basic-4"]
    basic4 = next(r for r in reports if r.clause == "Basic-4")
    assert f"modified client cells [{cell}]" in basic4.witness.detail
    assert replay_wf_witness(MallocWrites(cell), RESERVED, HEAP, basic4)


class InitRecorder(Strategy):
    """Delegates to ``inner`` and keeps each ``init`` result with a snapshot
    of its heap's cells."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.starts = []

    def init(self, heap):
        h, state = self.inner.init(heap)
        self.starts.append((h, state, list(h.items())))
        return h, state

    def null(self, state):
        return self.inner.null(state)

    def malloc(self, heap, state, size):
        return self.inner.malloc(heap, state, size)

    def free(self, heap, state, addr):
        return self.inner.free(heap, state, addr)


VALUE_FAMILY = [bump(0, 8, 72), eager(0, 8, 72), null_alloc(), MovingNull(), MallocWrites(9)]


@pytest.mark.parametrize("inner", VALUE_FAMILY, ids=lambda s: s.name)
def test_harness_leaves_the_callers_heap_and_the_init_result_unchanged(inner):
    # null and moving-null return the caller's heap from init, so every
    # client update of a run lands in that heap unless the run copies it.
    heap = Heap({a: 0 for a in RESERVED})
    before = list(heap.items())
    strategy = InitRecorder(inner)
    wf_check(strategy, RESERVED, heap, trials=40, seed=1)
    for trial in range(20):
        rng = random.Random(trial)
        start = strategy.init(heap.copy())
        sigma, updates1 = _gen_feasible_history(strategy, RESERVED, start, rng, 12)
        updates2 = tuple(_gen_update(rng) for _ in sigma)
        check_history(strategy, RESERVED, heap, sigma, updates1, updates2)
        feasible_run(strategy, RESERVED, *start, updates2, sigma)
    assert list(heap.items()) == before
    assert all(list(h.items()) == cells for h, _, cells in strategy.starts)


def test_wf_check_makes_one_init_per_call_and_one_heap_copy_per_run(monkeypatch):
    copied = []
    real_copy = Heap.copy

    def counting_copy(self):
        copied.append(len(self))
        return real_copy(self)

    monkeypatch.setattr(Heap, "copy", counting_copy)
    strategy = InitRecorder(bump(0, 8, 20000))
    reports = wf_check(strategy, RESERVED, HEAP, trials=200, seed=0)
    assert all(r.passed for r in reports)
    assert len(strategy.starts) == 1
    arena = len(strategy.starts[0][0])  # 19,999 cells: the reserved 8 and the bump span
    assert sum(1 for n in copied if n >= arena) <= 2 * 200


def test_wf_check_copies_no_arena_cells_per_trial(monkeypatch):
    """A bump arena is copied at most a couple of times per call: the cells
    copied grow by at most 2 per arena cell, and 100 more trials add less
    than one arena.  Copying the arena at the start of each run would add
    3 * trials cells per arena cell."""
    copied = count_copied_cells(monkeypatch)

    def cells(n, trials):
        copied.clear()
        reports = wf_check(bump(0, 8, n), RESERVED, HEAP, trials=trials, seed=0)
        assert all(r.passed for r in reports)
        return sum(copied)

    big = cells(20_000, 200)
    assert big - cells(2_000, 200) <= 2 * (20_000 - 2_000)
    assert big - cells(20_000, 100) < 20_000


def test_each_replayed_failure_adds_one_init():
    strategy = InitRecorder(OverlappingAlloc())
    reports = wf_check(strategy, RESERVED, HEAP, trials=300, seed=0)
    failed = [r for r in reports if not r.passed]
    assert failed
    assert len(strategy.starts) == 1 + len(failed)


class EveryThirdMallocFails(Strategy):
    """Deliberately nondeterministic: bump, but every third ``malloc`` call
    on the instance fails, whatever its arguments."""

    name = "every-third-malloc-fails"

    def __init__(self):
        self.inner = bump(0, 8, 72)
        self.calls = 0

    def init(self, heap):
        return self.inner.init(heap)

    def null(self, state):
        return self.inner.null(state)

    def malloc(self, heap, state, size):
        self.calls += 1
        if self.calls % 3 == 0:
            return heap, state, self.null(state)
        return self.inner.malloc(heap, state, size)

    def free(self, heap, state, addr):
        return self.inner.free(heap, state, addr)


@pytest.mark.parametrize("seed", range(5))
def test_nondeterministic_malloc_fails_rel_1_with_a_witness_that_replays(seed):
    strategy = EveryThirdMallocFails()
    reports = wf_check(strategy, RESERVED, HEAP, trials=50, seed=seed)
    rel1 = next(r for r in reports if r.clause == "Rel-1")
    assert not rel1.passed
    assert replay_wf_witness(strategy, RESERVED, HEAP, rel1)


EXACTNESS_FAMILY = [
    *default_family(), OverlappingAlloc(), MovingNull(), ReservedSmasher(), ClientPeeker(),
    MallocWrites(3), MallocWrites(9),
]


@pytest.mark.parametrize("strategy", EXACTNESS_FAMILY, ids=lambda s: s.name)
def test_a_trial_fails_the_clauses_check_history_fails_on_its_history(strategy):
    # wf_check judges the run that draws a trial's history; check_history
    # judges a replay of that history from a fresh init.
    for k in range(30):
        failed = {r.clause for r in wf_check(strategy, RESERVED, HEAP, trials=1, seed=k) if not r.passed}
        rng = random.Random(k * 1_000_003)
        sigma, updates1 = _gen_feasible_history(strategy, RESERVED, strategy.init(HEAP.copy()), rng, 12)
        updates2 = tuple(_gen_update(rng) for _ in sigma)
        assert set(check_history(strategy, RESERVED, HEAP, sigma, updates1, updates2)) == failed, k


OWNERSHIP_CASES = [(s, DEFAULT_ENV_BASE) for s in default_family()] + [
    (s, 0) for s in (OverlappingAlloc(), FlakyInit(), MovingNull(), ReservedSmasher(), ClientPeeker(),
                     MallocWrites(3), MallocWrites(9), EveryThirdMallocFails())
]


@pytest.mark.parametrize("strategy,base", OWNERSHIP_CASES, ids=[s.name for s, _ in OWNERSHIP_CASES])
def test_no_entry_point_changes_the_callers_heap(strategy, base, monkeypatch):
    """A heap belongs to its caller: each entry point that runs a strategy
    copies the heap it is given before anything changes it, whether the
    call returns or raises (a broken strategy may write outside the heap,
    or flunk the family's well-formedness check)."""
    prog = notac.parse("x = 1; p = malloc(2); if (p != NULL) { *p = x; x = *p + 1; free(p); } q = malloc(0); observe(x);")
    env = notac.make_env(prog, base)[0]
    reserved = frozenset(range(base, base + 8))
    heap = Heap(dict.fromkeys(reserved, 0))
    before = list(heap.items())
    sigma = parse_symseq("M2,M0,F1,M5")
    made = []  # the heaps differential_check builds, with their cells
    make_env = notac.make_env

    def recording_make_env(*args, **kwargs):
        out = make_env(*args, **kwargs)
        made.append((out[1], list(out[1].items())))
        return out

    monkeypatch.setattr(notac, "make_env", recording_make_env)
    calls = [
        lambda: notac.run(env, strategy, prog, heap),
        lambda: wf_check(strategy, reserved, heap, trials=20, seed=1),
        lambda: check_history(strategy, reserved, heap, sigma, gen_update_seq(1, 4), gen_update_seq(2, 4)),
        lambda: gai_check(prog, env, heap, [strategy], wf_trials=5),
        lambda: memsafe.differential_check(memsafe.ms_parse("x <- alloc(2); [x] <- 7; y <- [x]"),
                                           family=[strategy], wf_trials=5),
    ]
    for call in calls:
        try:
            call()
        except (RuntimeError, FamilyNotWellFormed, InaccessibleWrite):
            pass
        assert list(heap.items()) == before
    assert len(made) == 1 and list(made[0][0].items()) == made[0][1]


ORACLE_CASES = [(lambda s=s: s, reserved) for s in default_family()
                for reserved in (RESERVED, frozenset(range(DEFAULT_ENV_BASE, DEFAULT_ENV_BASE + 8)))] + [
    (make, RESERVED) for make in (OverlappingAlloc, FlakyInit, MovingNull, ReservedSmasher, ClientPeeker,
                                  lambda: MallocWrites(3), lambda: MallocWrites(9), EveryThirdMallocFails,
                                  ClientPlaced)
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORACLE_CASES), st.integers(0, 2**32), st.integers(0, 12))
def test_the_walker_judges_every_step_as_the_from_scratch_check(case, seed, max_len):
    """The walker judges most clauses only where a step changed something;
    after every step of a drawn history, its first violations (clauses,
    details and order) equal those of the from-scratch check.  Each walk
    gets a fresh strategy, so the nondeterministic ones replay too."""
    make, reserved = case
    heap = Heap(dict.fromkeys(reserved, 0))

    def walk(plan):
        strategy, judge = make(), {}
        sigma, updates = _walk(strategy, reserved, strategy.init(heap.copy()), plan, judge)[3:]
        return list(judge.items()), sigma, updates

    drawn, sigma, updates = walk(_draw(random.Random(seed), max_len))
    strategy = make()
    steps = judged_steps(strategy, reserved, strategy.init(heap.copy()), sigma, updates)
    expected = [list(judge.items()) for judge in steps]
    assert drawn == expected[-1]
    for k in range(len(sigma)):
        assert walk(_replay(updates[:k], sigma[:k]))[0] == expected[k], k


def test_wf_check_walker_cost_per_step(monkeypatch):
    """A step costs what it changed: the walker tests no allowed cell for
    membership in the heap and builds ``addresses_of`` only at a free.  The
    eager strategy's first-fit probes make about 4 membership tests per
    step; testing the allowed cells after every judged step made about 11,
    and building ``addresses_of`` at every malloc and free about 0.9."""
    from gai_lab import alloc_model

    calls = {"contains": 0, "addresses_of": 0, "steps": 0}

    def counted(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(Heap, "__contains__", counted("contains", Heap.__contains__))
    monkeypatch.setattr(alloc_model, "addresses_of", counted("addresses_of", alloc_model.addresses_of))
    real_walk = alloc_model._walk

    def counted_walk(*args):  # a walk makes one strategy step per event of its sigma
        out = real_walk(*args)
        calls["steps"] += len(out[3])
        return out

    monkeypatch.setattr(alloc_model, "_walk", counted_walk)
    reserved = frozenset(range(DEFAULT_ENV_BASE, DEFAULT_ENV_BASE + 8))
    heap = Heap(dict.fromkeys(reserved, 0))
    reports = wf_check(eager(*DEFAULT_EAGER_SEGMENT), reserved, heap, trials=200, seed=0)
    assert all(r.passed for r in reports)
    assert calls["steps"] > 2000
    assert calls["contains"] <= 5 * calls["steps"]
    assert calls["addresses_of"] <= 0.5 * calls["steps"]
