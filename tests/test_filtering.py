"""Symbolic filtering and trace similarity, checked against the oracle."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gai_lab import filtering
from gai_lab.alloc_model import (
    NO_UPDATE,
    SymFree,
    SymMalloc,
    feasible_run,
    parse_symseq,
)
from gai_lab.allocators import EagerAlloc as eager
from gai_lab.filtering import (
    prefixes_similar_to,
    similar,
    similar_prefixes,
    sym_filter,
)
from gai_lab.notac import CastEv, FreeEv, MallocEv, MallocFailEv, ObsEv, make_env, parse, run
from similarity_oracle import similar_bruteforce
from wf_oracle import symseq_well_formed


class TestXFilterFree:
    # The filter's free rule: a free passes exactly when the next item is a
    # free naming a malloc of the filter that returned the freed address.
    def test_matching_entry(self):
        t = (MallocEv(8, 0x1000), FreeEv(0x1000))
        assert sym_filter(t, parse_symseq("M8,F0")) == ()

    def test_wrong_address(self):
        t = (MallocEv(8, 0x1000), FreeEv(0x1001))
        assert sym_filter(t, parse_symseq("M8,F0")) is None
        assert sym_filter(t, parse_symseq("M8")) == (FreeEv(0x1001),)

    def test_empty_map(self):
        # the free comes before any malloc, even one returning its address
        t = (FreeEv(5), MallocEv(8, 5))
        assert sym_filter(t, parse_symseq("F0,M8")) is None
        assert sym_filter(t, parse_symseq("M8")) == (FreeEv(5),)

    def test_rest_must_start_with_free(self):
        t = (MallocEv(8, 0x1000), FreeEv(0x1000), MallocEv(4, 0x2000))
        assert sym_filter(t, parse_symseq("M8,M4,F0")) is None
        assert sym_filter(t, parse_symseq("M8,M4")) == (FreeEv(0x1000),)

    def test_back_past_the_mallocs(self):
        t = (MallocEv(8, 5), FreeEv(5))
        assert sym_filter(t, parse_symseq("M8,F1")) is None
        assert sym_filter(t, (SymMalloc(8), SymFree(-1))) is None

    def test_failed_malloc_between_malloc_and_free_is_not_counted(self):
        t = (MallocEv(8, 5), MallocFailEv(4), FreeEv(5))
        assert sym_filter(t, parse_symseq("M8,MF4,F0")) == ()
        assert sym_filter(t, parse_symseq("M8,MF4,F1")) is None
        t2 = (MallocEv(8, 5), MallocEv(4, 6), MallocFailEv(4), FreeEv(5))
        assert sym_filter(t2, parse_symseq("M8,M4,MF4,F1")) == ()
        assert sym_filter(t2, parse_symseq("M8,M4,MF4,F0")) is None


class TestSymFilter:
    def test_clean_malloc_free_pair(self):
        t = (MallocEv(8, 0x1000), FreeEv(0x1000))
        out = sym_filter(t, parse_symseq("M8,F0"))
        assert out == ()

    def test_off_by_one_free_goes_to_residue(self):
        t = (MallocEv(8, 0x1000), FreeEv(0x1001))
        out = sym_filter(t, parse_symseq("M8"))
        assert out == (FreeEv(0x1001),)
        # with a trailing F0 the derivation does not exist: the sequence
        # must be consumed exactly
        assert sym_filter(t, parse_symseq("M8,F0")) is None

    def test_double_free_filters_cleanly(self):
        t = (MallocEv(8, 5), FreeEv(5), FreeEv(5))
        out = sym_filter(t, parse_symseq("M8,F0,F0"))
        assert out == ()  # the map does not shrink on pass

    def test_malloc_must_match(self):
        assert sym_filter((MallocEv(8, 5),), parse_symseq("M4")) is None
        assert sym_filter((MallocEv(8, 5),), parse_symseq("MF8")) is None
        assert sym_filter((MallocFailEv(8),), parse_symseq("M8")) is None
        assert sym_filter((MallocEv(8, 5),), ()) is None

    def test_obs_and_cast_always_residue(self):
        t = (ObsEv(1), CastEv(7))
        assert sym_filter(t, ()) == t

    def test_residue_is_subsequence(self):
        t = (MallocEv(8, 5), ObsEv(1), FreeEv(5), CastEv(2), FreeEv(9))
        out = sym_filter(t, parse_symseq("M8,F0"))
        assert out == (ObsEv(1), CastEv(2), FreeEv(9))


class TestSimilar:
    def test_three_event_prefixes_similar(self):
        t1 = (MallocEv(8, 0x1000), FreeEv(0x1000), ObsEv(1), ObsEv(0x1000))
        t2 = (MallocEv(8, 0x2000), FreeEv(0x2000), ObsEv(1), ObsEv(0x2000))
        ok, sigma = similar(t1[:3], t2[:3])
        assert ok and sigma == parse_symseq("M8,F0")
        assert not similar(t1, t2)[0]  # the last observes disagree

    def test_mixed_labeling_found(self):
        t1 = (MallocEv(8, 100), FreeEv(100))
        t2 = (MallocEv(8, 200), FreeEv(100))
        ok, sigma = similar(t1, t2)
        assert ok and sigma == parse_symseq("M8")

    def test_malloc_vs_fail_not_similar(self):
        assert not similar((MallocEv(8, 7),), (MallocFailEv(8),))[0]

    def test_empty_traces_similar(self):
        assert similar((), ())[0]

    def test_forced_pass_blocks_residue_labeling(self):
        # the first trace cannot leave its first free in the residue while
        # the filter's next event matches it
        t1 = (MallocEv(8, 100), FreeEv(100), ObsEv(1), FreeEv(100))
        t2 = (MallocEv(8, 200), FreeEv(100), ObsEv(1), FreeEv(200))
        assert similar(t1, t2)[0] == similar_bruteforce(t1, t2) == False

    def test_monotone_extension_with_identical_event(self):
        t1 = (MallocEv(8, 100), FreeEv(100), ObsEv(1))
        t2 = (MallocEv(8, 200), FreeEv(200), ObsEv(1))
        assert similar(t1, t2)[0]
        assert similar(t1 + (ObsEv(9),), t2 + (ObsEv(9),))[0]


class TestBruteforce:
    def test_agrees_on_prefix_examples(self):
        t1 = (MallocEv(8, 0x1000), FreeEv(0x1000), ObsEv(1), ObsEv(0x1000))
        t2 = (MallocEv(8, 0x2000), FreeEv(0x2000), ObsEv(1), ObsEv(0x2000))
        assert similar_bruteforce(t1[:3], t2[:3])
        assert not similar_bruteforce(t1, t2)

    def test_reflexive(self):
        t = (MallocEv(8, 5), FreeEv(5), ObsEv(1), CastEv(5))
        assert similar_bruteforce(t, t)

    def test_empty(self):
        assert similar_bruteforce((), ())

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            similar_bruteforce(tuple(ObsEv(i) for i in range(11)), ())


class TestPrefixesSimilarTo:
    def test_three_event_prefix_found(self):
        t1 = (MallocEv(8, 0x1000), FreeEv(0x1000), ObsEv(1), ObsEv(0x1000))
        t2 = (MallocEv(8, 0x2000), FreeEv(0x2000), ObsEv(1), ObsEv(0x2000))
        assert 3 in prefixes_similar_to(t1[:3], t2)
        assert 4 not in prefixes_similar_to(t1, t2)

    def test_empty_trace_matches_empty_prefix(self):
        assert prefixes_similar_to((), (MallocEv(8, 1), ObsEv(1))) == [0]

    def test_fail_head_blocks(self):
        run_trace = (MallocFailEv(8), MallocEv(8, 7))
        assert prefixes_similar_to((MallocEv(8, 3),), run_trace) == []


# --- randomized agreement with the oracle ---------------------------------

SIZES = (0, 4, 8)
ADDRS = (100, 101, 200)
VALS = (0, 1, 100)
ALPHABET = (
    [MallocEv(s, a) for s in SIZES for a in ADDRS]
    + [MallocFailEv(s) for s in SIZES]
    + [FreeEv(a) for a in ADDRS]
    + [ObsEv(v) for v in VALS]
    + [CastEv(v) for v in VALS]
)


def test_oracle_agreement_random_sample():
    rng = random.Random(0xA110C)
    for _ in range(1200):
        t1 = tuple(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))
        t2 = tuple(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))
        assert similar(t1, t2)[0] == similar_bruteforce(t1, t2), (t1, t2)


def test_oracle_agreement_exhaustive_short():
    small = [MallocEv(8, 100), MallocEv(8, 200), MallocFailEv(8), FreeEv(100), ObsEv(1)]
    traces = [()] + [(a,) for a in small] + list(itertools.product(small, repeat=2))
    for t1 in traces:
        for t2 in traces:
            assert similar(t1, t2)[0] == similar_bruteforce(t1, t2), (t1, t2)


events = st.sampled_from(ALPHABET)
traces = st.lists(events, max_size=6).map(tuple)


@settings(max_examples=150, deadline=None)
@given(traces, traces)
def test_oracle_agreement_property(t1, t2):
    assert similar(t1, t2)[0] == similar_bruteforce(t1, t2)


@settings(max_examples=100, deadline=None)
@given(traces)
def test_similar_reflexive(t):
    assert similar(t, t)[0]


@settings(max_examples=100, deadline=None)
@given(traces, traces)
def test_similar_symmetric(t1, t2):
    assert similar(t1, t2)[0] == similar(t2, t1)[0]


def test_eager_vs_bump_loop_pair_at_k500():
    # one address reused every iteration against a fresh address each time
    k = 500
    eager_trace = tuple(ev for _ in range(k) for ev in (MallocEv(1, 7), FreeEv(7))) + (ObsEv(k),)
    bump_trace = tuple(ev for i in range(k) for ev in (MallocEv(1, 7 + i), FreeEv(7 + i)))
    bump_trace += (ObsEv(k),)
    assert len(eager_trace) == len(bump_trace) == 1001
    for t1, t2 in ((eager_trace, bump_trace), (bump_trace, eager_trace)):
        ok, sigma = similar(t1, t2)
        assert ok
        assert sym_filter(t1, sigma) == sym_filter(t2, sigma) == (ObsEv(k),)


def test_witness_rejected_by_the_filter_raises(monkeypatch):
    # the check must survive ``python -O``, so it cannot be an assert
    monkeypatch.setattr(filtering, "sym_filter", lambda trace, seq: None)
    t = (MallocEv(8, 5), FreeEv(5))
    with pytest.raises(RuntimeError, match="witness"):
        similar(t, t)


@st.composite
def same_shape_pairs(draw):
    """Two long traces with one event-kind sequence and independent addresses.

    A ``("f", n)`` step frees, in each trace, the address of that trace's
    n-th most recent malloc; ``("x", a)`` frees address ``a`` in both.
    """
    step = st.one_of(
        st.sampled_from(["m", "m", "n", "o"]),
        st.tuples(st.just("f"), st.integers(0, 3)),
        st.tuples(st.just("x"), st.sampled_from(ADDRS)),
    )
    shape = draw(st.lists(step, min_size=20, max_size=80))
    pair = []
    for _ in range(2):
        trace, addrs = [], []
        for kind in shape:
            if kind == "m":
                addrs.append(draw(st.sampled_from(ADDRS)))
                trace.append(MallocEv(1, addrs[-1]))
            elif kind == "n":
                trace.append(MallocFailEv(1))
            elif kind == "o":
                trace.append(ObsEv(len(trace)))
            elif kind[0] == "x":
                trace.append(FreeEv(kind[1]))
            elif kind[1] >= len(addrs):
                trace.append(FreeEv(draw(st.sampled_from(ADDRS))))
            else:
                trace.append(FreeEv(addrs[-1 - kind[1]]))
        pair.append(tuple(trace))
    return tuple(pair)


@settings(max_examples=100, deadline=None)
@given(same_shape_pairs())
def test_long_pairs_symmetric_with_valid_witnesses(pair):
    t1, t2 = pair
    ok, sigma = similar(t1, t2)
    ok_rev, sigma_rev = similar(t2, t1)
    assert ok == ok_rev
    if ok:
        for witness in (sigma, sigma_rev):
            f1, f2 = sym_filter(t1, witness), sym_filter(t2, witness)
            assert f1 is not None and f2 is not None and f1 == f2


@st.composite
def trace_and_run(draw):
    """A run and a trace drawn to hit it: a prefix of the run, that prefix with
    frees appended or removed, or an unrelated trace (maybe longer than the
    run).  Frees are frequent, so stretches have frees on both edges."""
    free_heavy = st.sampled_from(ALPHABET + [FreeEv(a) for a in ADDRS] * 4)
    run_trace = tuple(draw(st.lists(free_heavy, max_size=10)))
    k = draw(st.integers(0, len(run_trace)))
    extra = tuple(draw(st.lists(st.sampled_from([FreeEv(a) for a in ADDRS]), max_size=2)))
    t = draw(st.sampled_from([
        run_trace[:k],
        run_trace[:k] + extra,
        tuple(ev for ev in run_trace[:k] if not isinstance(ev, FreeEv)),
        tuple(draw(st.lists(free_heavy, max_size=12))),
    ]))
    return t, run_trace


M1, M2, F1, F2 = MallocEv(8, 100), MallocEv(8, 200), FreeEv(100), FreeEv(200)


@settings(max_examples=300, deadline=None)
@given(trace_and_run())
@example(((F1,), (F1, F2, M1, F1)))  # need = 0: the stretch is the leading frees
@example(((), (M1,)))  # need = 0, no frees: only the empty prefix
@example(((M1, F1), (F2, M1, F1, F2, ObsEv(1))))  # frees on both edges of the stretch
@example(((M1, F1, M2, F2), (M1, F1)))  # t longer than the run
def test_prefix_scan_equals_every_prefix(pair):
    t, run_trace = pair
    reference = [p for p in range(len(run_trace) + 1) if similar(t, run_trace[:p])[0]]
    assert prefixes_similar_to(t, run_trace) == reference


@st.composite
def prefix_pairs(draw):
    """Two traces of up to 9 events: unrelated, or one sequence of event kinds
    with the second's addresses redrawn and maybe two adjacent events swapped."""
    free_heavy = st.sampled_from(ALPHABET + [FreeEv(a) for a in ADDRS] * 3)
    u = tuple(draw(st.lists(free_heavy, max_size=9)))
    if draw(st.booleans()):
        return u, tuple(draw(st.lists(free_heavy, max_size=9)))
    v = []
    for ev in u:
        if isinstance(ev, MallocEv):
            ev = MallocEv(ev.size, draw(st.sampled_from(ADDRS)))
        elif isinstance(ev, FreeEv):
            ev = FreeEv(draw(st.sampled_from(ADDRS)))
        v.append(ev)
    if len(v) > 1 and draw(st.booleans()):
        k = draw(st.integers(0, len(v) - 2))
        v[k], v[k + 1] = v[k + 1], v[k]
    return u, tuple(v)


@settings(max_examples=400, deadline=None)
@given(prefix_pairs())
@example(((ObsEv(0), ObsEv(1)), (ObsEv(0), ObsEv(1))))  # observes may move in either trace first
@example(((M1, F1, FreeEv(101)), (M2, FreeEv(101), F2)))  # adjacent frees swapped
@example(((M1, MallocFailEv(8)), (MallocFailEv(8), M1)))  # alloc events differ from the first
def test_similar_prefixes_equal_every_prefix_pair(pair):
    u, v = pair
    reference = {
        (i, p) for i in range(len(u) + 1) for p in range(len(v) + 1) if similar_bruteforce(u[:i], v[:p])
    }
    # only prefixes of equal length are ever similar
    assert all(i == p for i, p in reference)
    assert similar_prefixes(u, v) == {i for i, _ in reference}


@settings(max_examples=200, deadline=None)
@given(prefix_pairs())
def test_rows_gai_check_takes_without_a_search(pair):
    """``gai_check`` searches no trace against itself and each pair of
    distinct traces in one order only: the row of a trace against itself
    is every length, and the row is the same in both orders."""
    u, v = pair
    assert {i for i in range(len(u) + 1) if similar_bruteforce(u[:i], u[:i])} == set(range(len(u) + 1))
    reference = {i for i in range(min(len(u), len(v)) + 1) if similar_bruteforce(v[:i], u[:i])}
    assert similar_prefixes(v, u) == similar_prefixes(u, v) == reference


def test_similar_starts_no_search_on_unequal_lengths(monkeypatch):
    searches = []
    real_search = filtering._lockstep

    def counting_search(t1, t2):
        searches.append((t1, t2))
        return real_search(t1, t2)

    monkeypatch.setattr(filtering, "_lockstep", counting_search)
    assert similar((M1, F1), (M1, F1, ObsEv(1))) == (False, None)
    assert similar((ObsEv(1),), ()) == (False, None)
    assert prefixes_similar_to((M1, F1, ObsEv(1)), (M2, F2)) == []
    assert searches == []
    assert similar((M1, F1), (M2, F2))[0] and len(searches) == 1


# --- the unpruned search, as a reference for the pruned one ---------------


def full_lockstep(t1, t2):
    """Every state of the joint filtering of two traces, with no pruning: from
    each state every enabled move of either trace is tried (the search as it
    was before its two partial-order rules).  Yields the states."""
    end1, end2 = len(t1), len(t2)
    first = filtering._first_common_ordinal(t1, t2)
    prev1, prev2 = filtering._prev_same_free(t1), filtering._prev_same_free(t2)
    start = (0, 0, 0, 0, 0, ())
    seen, stack = {start}, [start]
    while stack:
        state = stack.pop()
        yield state
        i1, i2, g, w1, w2, rq = state
        e1 = t1[i1] if i1 < end1 else None
        e2 = t2[i2] if i2 < end2 else None

        def skip(owner, ev):
            behind = i1 < i2 if owner == 1 else i2 < i1
            if behind and rq[0] != ev:
                return None
            cursors = (i1 + 1, i2) if owner == 1 else (i1, i2 + 1)
            return cursors + (g, w1, w2, rq[1:] if behind else rq + (ev,))

        moves = []
        for owner, ev in ((1, e1), (2, e2)):
            if isinstance(ev, (ObsEv, CastEv, FreeEv)):
                moves.append(skip(owner, ev))
        if isinstance(e1, FreeEv) and isinstance(e2, FreeEv):
            o = first.get((e1.addr, e2.addr))
            if o is not None and o <= g and prev1[i1] < w1 and prev2[i2] < w2:
                moves.append((i1 + 1, i2 + 1, g, i1 + 1, i2 + 1, rq))
        item = filtering._alloc_item(e1)
        if item is not None and item == filtering._alloc_item(e2):
            moves.append((i1 + 1, i2 + 1, g + 1, i1 + 1, i2 + 1, rq))
        for move in moves:
            if move is not None and move not in seen:
                seen.add(move)
                stack.append(move)


@settings(max_examples=600, deadline=None)
@given(st.one_of(prefix_pairs(), trace_and_run(), same_shape_pairs()))
def test_pruned_search_equals_full_search(pair):
    u, v = pair
    reference = {s[0] for s in full_lockstep(u, v) if not s[5] and s[0] == s[1]}
    assert similar_prefixes(u, v) == reference
    for i in range(min(len(u), len(v)) + 1):
        ok, sigma = similar(u[:i], v[:i])
        assert ok == (i in reference)
        if ok:
            f1, f2 = sym_filter(u[:i], sigma), sym_filter(v[:i], sigma)
            assert f1 is not None and f2 is not None and f1 == f2


def count_states(t1, t2):
    return sum(1 for _ in filtering._lockstep(tuple(t1), tuple(t2)))


def test_loop_pair_states_are_linear():
    # one address reused against a fresh address in each iteration
    for k in (5, 50, 500):
        eager_trace = tuple(ev for _ in range(k) for ev in (MallocEv(1, 7), FreeEv(7))) + (ObsEv(k),)
        bump_trace = tuple(ev for i in range(k) for ev in (MallocEv(1, 7 + i), FreeEv(7 + i)))
        bump_trace += (ObsEv(k),)
        assert count_states(eager_trace, bump_trace) == count_states(bump_trace, eager_trace) == 2 * k + 6


def test_exponential_pair_is_linear():
    # rule 2: no free of t1's addresses occurs in t2, so t1 cannot queue one
    n = 16
    t1 = tuple(MallocEv(1, 100 + i) for i in range(n)) + tuple(FreeEv(100 + i) for i in range(n))
    t2 = tuple(MallocEv(1, 7) for _ in range(n)) + tuple(FreeEv(7) for _ in range(n))
    t1, t2 = t1 + (ObsEv(1),), t2 + (ObsEv(2),)
    assert count_states(t1, t2) <= 2 * n + 1
    assert similar_prefixes(t1, t2) == set(range(2 * n + 1))


def test_prefix_scan_tries_only_prefixes_of_equal_non_free_count():
    run_trace = (F1, M1, F1, F2, ObsEv(1), F1, M2, F2)
    assert prefixes_similar_to((F1, M2, F2), run_trace) == [3]


def test_clean_filter_replays_through_feasibility():
    # a well-formed filter with empty residue is feasible for the allocator
    # that produced the trace
    src = "p = malloc(8); free(p);"
    strategy = eager(0, 100, 200)
    prog = parse(src)
    env, heap, reserved = make_env(prog, 10)
    out = run(env, strategy, prog, heap)
    sigma = parse_symseq("M8,F0")
    filtered = sym_filter(out.trace, sigma)
    assert filtered is not None and filtered == ()
    assert symseq_well_formed(sigma)
    h0, st0 = strategy.init(heap)
    feasible_run(strategy, reserved, h0, st0, (NO_UPDATE, NO_UPDATE), sigma)
