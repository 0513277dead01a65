"""The play and fast-forward feasibility relations."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gai_lab.alloc_model import (
    NO_UPDATE,
    AllocEntry,
    ClientUpdate,
    Infeasible,
    SymFail,
    SymFree,
    SymMalloc,
    addresses_of,
    feasible_run,
    parse_symseq,
)
from gai_lab.allocators import bump, eager
from gai_lab.core import Heap
from gai_lab.gai import DEFAULT_ENV_BASE, default_family
from wf_oracle import play_step

RESERVED = frozenset(range(0, 100))


def seeded_heap():
    return Heap({a: 0 for a in RESERVED})


def test_play_step_bump_malloc_ok():
    b = bump(0, 100, 200)
    h0, st = b.init(Heap())
    h1, st1, m1 = play_step(b, frozenset(), h0, st, (), SymMalloc(8))
    assert m1 == {AllocEntry(101, 8, 1)}
    assert st1 == 109


def test_play_step_bump_fail_demanded_but_succeeds():
    b = bump(0, 100, 200)
    h0, st = b.init(Heap())
    with pytest.raises(Infeasible):
        play_step(b, frozenset(), h0, st, (), SymFail(8))


def test_play_step_bump_fail_ok():
    b = bump(0, 100, 104)
    h0, st = b.init(Heap())
    h1, st1, m1 = play_step(b, frozenset(), h0, st, (), SymFail(8))
    assert m1 == frozenset()
    assert (h1, st1) == (h0, st)


def test_play_step_free_removes_entry():
    b = bump(0, 100, 200)
    h0, st = b.init(Heap())
    h1, st1, m1 = play_step(b, frozenset(), h0, st, (), SymMalloc(8))
    prefix = (SymMalloc(8),)
    h2, st2, m2 = play_step(b, m1, h1, st1, prefix, SymFree(0))
    assert m2 == frozenset()


def test_play_step_free_without_live_entry():
    b = bump(0, 100, 200)
    h0, st = b.init(Heap())
    with pytest.raises(Infeasible):
        play_step(b, frozenset(), h0, st, (SymFail(8),), SymFree(0))


def test_play_step_grows_and_shrinks_addresses():
    e = eager(0, 100, 200)
    h0, st = e.init(seeded_heap())
    h1, st1, m1 = play_step(e, frozenset(), h0, st, (), SymMalloc(4))
    entry = next(iter(m1))
    assert addresses_of(m1) == frozenset(range(entry.addr, entry.addr + 4))
    h2, st2, m2 = play_step(e, m1, h1, st1, (SymMalloc(4),), SymFree(0))
    assert addresses_of(m2) == frozenset()


def test_feasible_run_empty():
    e = eager(0, 100, 200)
    h0, st = e.init(seeded_heap())
    assert feasible_run(e, RESERVED, h0, st, (), ()) == (h0, st, frozenset())


def test_feasible_run_eager_picks_min():
    e = eager(0, 100, 200)
    h0, st = e.init(seeded_heap())
    _, _, m = feasible_run(e, RESERVED, h0, st, (NO_UPDATE,), parse_symseq("M4"))
    assert m == {AllocEntry(101, 4, 1)}


def test_feasible_run_eager_free_undefines():
    e = eager(0, 100, 200)
    h0, st = e.init(seeded_heap())
    h, _, m = feasible_run(e, RESERVED, h0, st, (NO_UPDATE, NO_UPDATE), parse_symseq("M4,F0"))
    assert m == frozenset()
    assert all(a not in h for a in range(101, 105))


def test_feasible_run_length_mismatch():
    e = eager(0, 100, 200)
    h0, st = e.init(seeded_heap())
    with pytest.raises(ValueError):
        feasible_run(e, RESERVED, h0, st, (NO_UPDATE,), ())


def test_feasible_run_infeasible_propagates():
    b = bump(0, 100, 104)
    h0, st = b.init(Heap())
    with pytest.raises(Infeasible):
        feasible_run(b, frozenset(), h0, st, (NO_UPDATE,), parse_symseq("M8"))


def test_updates_only_touch_allowed_cells():
    # slot writes land inside addresses_of(m) | reserved and never extend past it
    e = eager(0, 100, 200)
    h0, st = e.init(seeded_heap())
    upd = ClientUpdate(((0, 42), (1, -3)))
    h, _, m = feasible_run(e, RESERVED, h0, st, (NO_UPDATE, upd), parse_symseq("M4,M2"))
    allowed = addresses_of({AllocEntry(101, 4, 1)}) | RESERVED
    changed = {a for a in h.domain() | h0.domain() if h.read(a) != h0.read(a)}
    assert changed - allowed <= addresses_of(m)  # the second malloc's zeroed cells


def test_no_op_updates_match_plain_play():
    e = eager(0, 100, 200)
    h0, st = e.init(seeded_heap())
    seq = parse_symseq("M4,MF1000000,M2,F1")
    via_run = feasible_run(e, RESERVED, h0, st, tuple(NO_UPDATE for _ in seq), seq)
    h, s, m = h0, st, frozenset()
    for i, ev in enumerate(seq):
        h, s, m = play_step(e, m, h, s, seq[:i], ev)
    assert via_run == (h, s, m)


PLAY_CASES = [(s, frozenset(range(DEFAULT_ENV_BASE, DEFAULT_ENV_BASE + 8))) for s in default_family()] + [
    (eager(0, 100, 200), RESERVED), (bump(0, 100, 120), RESERVED)
]
# Weighted towards feasible steps; MF1 and M1000000 are demands that the
# roomy members refuse, and F0..F4 free dead or missing entries as often as
# live ones.
EVENTS = [SymMalloc(n) for n in (0, 1, 2, 3, 5, 8)] * 2 + [SymMalloc(10**6), SymFail(10**6), SymFail(10**6), SymFail(1)] + [
    SymFree(back) for back in (0, 0, 0, 1, 1, 2, 4)
]
UPDATES = st.builds(ClientUpdate, st.lists(st.tuples(st.integers(0, 63), st.integers(-9, 9)), max_size=2).map(tuple))


def fold_play_step(strategy, reserved, heap, state, updates, seq):
    """The fast-forward relation by its definition: before each event the
    update runs over ``addresses_of(m) | reserved``, then one play step."""
    h, s, m = heap.copy(), state, frozenset()
    for i, (upd, ev) in enumerate(zip(updates, seq)):
        upd.apply(h, sorted(addresses_of(m) | reserved))
        h, s, m = play_step(strategy, m, h, s, seq[:i], ev)
    return h, s, m


def outcome(run):
    try:
        h, s, m = run()
    except Infeasible as exc:
        return "infeasible", exc.reason, exc.position
    return "feasible", sorted(h.items()), s, m


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PLAY_CASES), st.lists(st.tuples(UPDATES, st.sampled_from(EVENTS)), max_size=10))
@example(PLAY_CASES[-2], [(NO_UPDATE, SymMalloc(4)), (NO_UPDATE, SymFree(0)), (NO_UPDATE, SymFree(0))])
@example(PLAY_CASES[-2], [(NO_UPDATE, SymFree(-1))])
@example(PLAY_CASES[-2], [(NO_UPDATE, SymFail(1))])
@example(PLAY_CASES[-1], [(NO_UPDATE, SymMalloc(8)), (NO_UPDATE, SymMalloc(8)), (NO_UPDATE, SymMalloc(8))])
def test_feasible_run_is_the_fold_of_play_step(case, steps):
    """The walker resolves a free through its list of malloc positions and
    keeps a live map; the oracle rescans the prefix and rebuilds a set.
    Both reach the same heap, state and map, or the same infeasible step
    for the same reason."""
    strategy, reserved = case
    h0, st0 = strategy.init(Heap(dict.fromkeys(reserved, 0)))
    updates, seq = tuple(u for u, _ in steps), tuple(ev for _, ev in steps)
    walked = outcome(lambda: feasible_run(strategy, reserved, h0, st0, updates, seq))
    assert walked == outcome(lambda: fold_play_step(strategy, reserved, h0, st0, updates, seq))
