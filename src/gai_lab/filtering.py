"""Symbolic filter, concrete residue, and trace similarity.

A symbolic allocation sequence acts as a filter over a trace: malloc/mfail
events must match it event for event, a free passes exactly when it
releases an allocation the filter knows about (the allocation map never
shrinks, so double frees are filterable), and observe/cast events always
fall into the *residue*.  Two traces are similar when one symbolic sequence
filters both with identical residues.  Filtering is deterministic -- a free
that is filterable at its position *must* pass -- so a free may only stay in
the residue when the filter's next item does not release it.

Each event is consumed by a filter item or lands in the residue, so only
traces of equal length can be similar.  ``similar`` and ``similar_prefixes``
rest on one pruned search that walks both traces in lockstep
(``_lockstep``); one run of it decides every pair of prefixes of equal
length.  It rests on two facts of the filter:

* alloc events are synchronization points: the filter rejects a malloc or
  mfail while its next item is a free, so the free items between two alloc
  items are consumed between the same two alloc events of both traces, and
  frees pass in pairs, one in each trace;
* the target of a passing free never matters afterwards, since the map never
  shrinks: two frees pass together iff some earlier malloc returned their
  two addresses, and a free left in the residue only constrains the next
  pass of its own trace, which must free a different address.

The independent oracle, ``similar_bruteforce``, enumerates all
pass/residue labelings of the first trace; it lives with the tests, in
``tests/similarity_oracle.py``, apart from the search it judges.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .alloc_model import SymbolicEvent, SymbolicSeq, SymFail, SymFree, SymMalloc, back_index
from .notac import CastEv, Event, FreeEv, MallocEv, MallocFailEv, ObsEv, Trace

# ---------------------------------------------------------------------------
# The deterministic filter


def sym_filter(trace: Sequence[Event], seq) -> Optional[Trace]:
    """The residue of the trace under the filter, ``()`` when every event
    passes; ``None`` when the trace and sequence do not match.

    ``returned`` holds the addresses the filter's mallocs returned, oldest
    first, so the free item ``SymFree(b)`` names ``returned[-1 - b]``; like
    the allocation map it never shrinks.
    """
    seq = tuple(seq)
    returned: list[int] = []
    residue: list[Event] = []
    k = 0  # cursor into seq
    for ev in trace:
        item = seq[k] if k < len(seq) else None
        alloc = _alloc_item(ev)
        if alloc is not None:
            if item != alloc:
                return None
            if isinstance(ev, MallocEv):
                returned.append(ev.addr)
            k += 1
        elif (
            isinstance(ev, FreeEv)
            and isinstance(item, SymFree)
            and 0 <= item.back < len(returned)
            and returned[-1 - item.back] == ev.addr
        ):
            k += 1
        else:  # observe/cast, and frees the next item does not release
            residue.append(ev)
    if k != len(seq):
        return None
    return tuple(residue)


# ---------------------------------------------------------------------------
# Similarity


def _alloc_item(ev: Optional[Event]) -> Optional[SymbolicEvent]:
    """The filter item an alloc event consumes; None for other events."""
    if isinstance(ev, MallocEv):
        return SymMalloc(ev.size)
    if isinstance(ev, MallocFailEv):
        return SymFail(ev.size)
    return None


def _first_common_ordinal(t1: Trace, t2: Trace) -> dict:
    """(addr in t1, addr in t2) -> smallest alloc ordinal returning both.

    Ordinals count the alloc events of a trace from 1.  The table stops at
    the first ordinal where the two traces' alloc events differ: no sync
    crosses it, so no pass can name it.
    """
    allocs1 = [ev for ev in t1 if _alloc_item(ev) is not None]
    allocs2 = [ev for ev in t2 if _alloc_item(ev) is not None]
    first: dict = {}
    for o, (e1, e2) in enumerate(zip(allocs1, allocs2), start=1):
        if _alloc_item(e1) != _alloc_item(e2):
            break
        if isinstance(e1, MallocEv):
            first.setdefault((e1.addr, e2.addr), o)
    return first


def _prev_same_free(trace: Trace) -> list:
    """For each free, the position of the previous free of its address (or -1)."""
    last: dict = {}
    out = [-1] * len(trace)
    for i, ev in enumerate(trace):
        if isinstance(ev, FreeEv):
            out[i] = last.get(ev.addr, -1)
            last[ev.addr] = i
    return out


def _lockstep(t1: Trace, t2: Trace) -> Iterator[tuple[tuple, dict]]:
    """The states of the joint filtering of two traces, with parent pointers.

    Walks both traces in lockstep on the two facts in the module docstring.
    State ``(i1, i2, g, w1, w2, rq)``: both cursors, the allocs crossed, the
    start of each trace's skip window (its frees since its last pass or
    alloc), and the residue items the leading trace has emitted beyond the
    other: |i1 - i2| of them, as both made the same passes and syncs.  The
    moves: a skip of either trace's next observe, cast or free into its
    residue, which must match the head of the queue when the other trace
    leads; a paired pass of two frees, legal when a malloc with ordinal <= g
    returned both addresses and neither window holds a free of the passing
    address; and a sync at two equal alloc events.  Two partial-order rules
    (Godefroid, LNCS 1032, 1996) prune them:

    1. When the lagging trace (t1 on a tie) is at an observe or a cast, its
       skip is the only move.  It is that trace's only move, so every path
       on to an empty queue takes it; until then the other trace can only
       skip, which appends to the queue and commutes with it.
    2. A skip that would queue ``ev`` is dropped when ``ev`` does not occur
       in the other trace at or after its cursor: a queued item leaves only
       when the other trace skips an equal event.

    The search runs on an explicit stack whose map of parent pointers is the
    seen set and gives the witness; it yields ``(state, parent)`` per state.

    The search is prefix-closed on empty queues: it reaches a state at
    cursors (i, i) exactly when the search of ``(t1[:i], t2[:i])`` does, so
    when the prefixes are similar.  No move lowers a cursor, so a path to
    that state stays in the box i1, i2 <= i.  Inside it, off its edges,
    unpruned moves agree: they read the events at the cursors, and the
    windows, ``prev`` and ``first`` up to ordinal g look only backwards
    (``first`` stops where the alloc events differ, which no sync crosses);
    on the edge i1 = i both have only the skips of t2 left, and alike on
    i2 = i.  Neither rule cuts all such paths: each item a path queues is
    matched inside the box, where its forced skips lie too.

    Cost: by rule 1 two runs of a observes take 2a + 1 states, not (a+1)^2,
    and an eager loop reusing one address against a bump loop takes 2k + 6
    for k iterations, not 4k + 7.  By rule 2, n mallocs at distinct addresses
    and their n frees, against n mallocs and frees of one address, each then
    observing a different value, take 2n + 1 states, not 196,776 at n = 16.
    No polynomial bound is proven, as the queue may hold any subset of a
    gap's frees that rule 2 keeps: t1 = n mallocs at distinct addresses,
    their n frees, n frees of address 7 and an observe, against t2 = n
    mallocs at 7, n frees of 7, the frees of t1's addresses and another
    observe, take 2,603 / 12,352 / 57,433 states at n = 8 / 10 / 12.
    """
    end1, end2 = len(t1), len(t2)
    first = _first_common_ordinal(t1, t2)
    prev1, prev2 = _prev_same_free(t1), _prev_same_free(t2)
    last1 = {ev: i for i, ev in enumerate(t1)}  # event -> its last position
    last2 = {ev: i for i, ev in enumerate(t2)}

    start = (0, 0, 0, 0, 0, ())
    parent: dict = {start: None}
    stack = [start]
    while stack:
        state = stack.pop()
        yield state, parent
        i1, i2, g, w1, w2, rq = state
        e1 = t1[i1] if i1 < end1 else None
        e2 = t2[i2] if i2 < end2 else None

        def skip(owner, ev):
            # ``ev`` joins ``owner``'s residue: it must match the head of the queue
            # when the other trace leads, else it is queued if rule 2 allows.
            if owner == 1:
                behind, cursors, last, other = i1 < i2, (i1 + 1, i2), last2, i2
            else:
                behind, cursors, last, other = i2 < i1, (i1, i2 + 1), last1, i1
            if rq[0] != ev if behind else last.get(ev, -1) < other:
                return None
            return cursors + (g, w1, w2, rq[1:] if behind else rq + (ev,)), None

        if i1 <= i2 and isinstance(e1, (ObsEv, CastEv)):  # rule 1
            moves = [skip(1, e1)]
        elif i2 <= i1 and isinstance(e2, (ObsEv, CastEv)):
            moves = [skip(2, e2)]
        else:
            moves = []
            if isinstance(e1, (ObsEv, CastEv)):  # t1 leads
                moves.append(skip(1, e1))
            if isinstance(e2, (ObsEv, CastEv)):  # t2 leads
                moves.append(skip(2, e2))
            if isinstance(e1, FreeEv) and isinstance(e2, FreeEv):
                o = first.get((e1.addr, e2.addr))
                if o is not None and o <= g and prev1[i1] < w1 and prev2[i2] < w2:
                    moves.append(((i1 + 1, i2 + 1, g, i1 + 1, i2 + 1, rq), o))
            if isinstance(e1, FreeEv):
                moves.append(skip(1, e1))
            if isinstance(e2, FreeEv):
                moves.append(skip(2, e2))
            item = _alloc_item(e1)
            if item is not None and item == _alloc_item(e2):
                moves.append(((i1 + 1, i2 + 1, g + 1, i1 + 1, i2 + 1, rq), item))
        for move in reversed(moves):
            if move is not None and move[0] not in parent:
                parent[move[0]] = (state, move[1])
                stack.append(move[0])


def _witness(parent: dict, state: tuple) -> SymbolicSeq:
    """The filter along the parent pointers: alloc items, and passes as ordinals."""
    items = []
    while parent[state] is not None:
        state, item = parent[state]
        if item is not None:
            items.append(item)
    sigma: list = []
    alloc_pos: list = []  # sigma position of each alloc ordinal
    for item in reversed(items):
        if isinstance(item, int):
            sigma.append(SymFree(back_index(sigma, alloc_pos[item - 1])))
        else:
            sigma.append(item)
            alloc_pos.append(len(sigma))
    return tuple(sigma)


def similar(t1: Sequence[Event], t2: Sequence[Event]) -> tuple[bool, Optional[SymbolicSeq]]:
    """Decide trace similarity; on success also return a witness filter.

    Traces of unequal lengths are not; otherwise the search stops at its
    first state at the end of both.  Raises ``RuntimeError`` when the witness
    does not filter both traces to equal residues, a fault in the search.
    """
    t1, t2 = tuple(t1), tuple(t2)
    if len(t1) != len(t2):
        return False, None
    for state, parent in _lockstep(t1, t2):
        if state[0] == state[1] == len(t1):
            sigma = _witness(parent, state)
            break
    else:
        return False, None
    f1, f2 = sym_filter(t1, sigma), sym_filter(t2, sigma)
    if f1 is None or f2 is None or f1 != f2:
        raise RuntimeError(f"similarity witness failed to validate: {sigma}")
    return True, sigma


def similar_prefixes(t1: Sequence[Event], t2: Sequence[Event]) -> set[int]:
    """Every ``i`` with ``t1[:i]`` similar to ``t2[:i]``, from one search.

    These are the cursors of the empty-queue states of one search over the
    first ``min(len(t1), len(t2))`` events (see ``_lockstep``).
    """
    m = min(len(t1), len(t2))
    return {i1 for (i1, i2, *_), _ in _lockstep(tuple(t1[:m]), tuple(t2[:m])) if i1 == i2}


def prefixes_similar_to(t: Sequence[Event], run: Sequence[Event]) -> list[int]:
    """All prefix lengths ``p`` of ``run`` with ``run[:p]`` similar to ``t``:
    ``len(t)`` or none, as only traces of equal length can be similar."""
    return [len(t)] if similar(t, run[: len(t)])[0] else []
