"""The randomized allocator well-formedness harness."""

import random

import pytest

from gai_lab.alloc_model import (
    WF_CLAUSES,
    Strategy,
    SymMalloc,
    _gen_feasible_history,
    check_history,
    parse_symseq,
    replay_wf_witness,
    wf_check,
)
from gai_lab.allocators import bump, curious, eager, guarded_eager, lenient_bump, no_zero, null_alloc
from gai_lab.core import Heap
from test_symbolic import gen_update_seq

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
        return heap.define(range(9, 9 + size), 0), state, 9

    def free(self, heap, state, addr):
        return heap, state


class FlakyInit(Strategy):
    """Deliberately nondeterministic: its first three ``init`` calls trample a
    reserved cell, later ones do not.  One trial's generation and check see
    Basic-3 fail; the replay of that failure comes back clean."""

    name = "flaky-init"

    def __init__(self):
        self.inner = bump(0, 8, 72)
        self.inits = 0

    def init(self, heap):
        self.inits += 1
        h, state = self.inner.init(heap)
        return (h.write(1, 99) if self.inits <= 3 else h), state

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
        sigma, _ = _gen_feasible_history(MovingNull(), RESERVED, HEAP, random.Random(trial), 12)
        assert not any(isinstance(ev, SymMalloc) for ev in sigma)


class ReservedSmasher(Strategy):
    """Broken in a different way: init zeroes a reserved cell."""

    name = "smasher"

    def __init__(self):
        self.inner = bump(0, 8, 72)

    def init(self, heap):
        h, st = self.inner.init(heap)
        return h.define([0], 77), st

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
