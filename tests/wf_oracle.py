"""From-scratch oracles for the well-formedness harness.

``alloc_model._walk`` carries its facts from step to step and judges most
per-state clauses only where a step changed something.  The helpers here
recompute everything at every step, so the tests can hold the walker to
them.  ``free_index`` and ``play_step`` are the definition of the play
relation: a free resolves by rescanning the prefix, and the allocation map
is a set rebuilt at every step.  ``symseq_well_formed`` is the definition
of a well-formed symbolic sequence that the generators here and the tests
hold sequences to.
"""

import itertools
import random

from typing import Optional, Sequence

from gai_lab.alloc_model import (
    AllocationMap,
    AllocEntry,
    Infeasible,
    Strategy,
    SymbolicEvent,
    SymbolicSeq,
    SymFail,
    SymFree,
    SymMalloc,
    _draw,
    _walk,
    addresses_of,
)
from gai_lab.core import Heap


def free_index(seq: Sequence[SymbolicEvent], back: int) -> Optional[int]:
    """1-based index of the ``back``-th successful malloc counting backwards.

    ``None`` when the recursion bottoms out (not enough mallocs).
    """
    z = back
    for n in range(len(seq), 0, -1):
        if isinstance(seq[n - 1], SymMalloc):
            if z == 0:
                return n
            z -= 1
    return None


def play_step(
    strategy: Strategy,
    m: AllocationMap,
    heap: Heap,
    state: object,
    prefix: Sequence[SymbolicEvent],
    ev: SymbolicEvent,
) -> tuple[Heap, object, AllocationMap]:
    """One step of the play relation: realize ``ev`` after ``prefix``.

    The strategy changes ``heap``, which is returned.  Raises
    :class:`Infeasible` when the strategy cannot produce the event.
    """
    pos = len(prefix) + 1
    if isinstance(ev, SymFree):
        i = free_index(prefix, ev.back)
        if i is None:
            raise Infeasible(f"free {ev} has no matching malloc", pos)
        entry = next((e for e in m if e.index == i), None)
        if entry is None:
            raise Infeasible(f"free {ev} targets a non-live allocation (index {i})", pos)
        return heap, strategy.free(heap, state, entry.addr)[1], m - {entry}
    if not isinstance(ev, (SymMalloc, SymFail)):
        raise TypeError(f"not a symbolic event: {ev!r}")
    null = strategy.null(state)
    _, st2, a = strategy.malloc(heap, state, ev.size)
    if a == null:
        if isinstance(ev, SymMalloc):
            raise Infeasible(f"malloc({ev.size}) failed where success was demanded", pos)
        return heap, st2, m
    if isinstance(ev, SymFail):
        raise Infeasible(f"malloc({ev.size}) succeeded where failure was demanded", pos)
    return heap, st2, m | {AllocEntry(a, ev.size, pos)}


def symseq_well_formed(seq: SymbolicSeq) -> bool:
    """No double frees, and every free resolves to some malloc."""
    matched = []
    for j, ev in enumerate(seq, start=1):
        if isinstance(ev, SymFree):
            i = free_index(seq[: j - 1], ev.back)
            if i is None:
                return False
            matched.append(i)
    return len(matched) == len(set(matched))


def _single_exec_violations(
    strategy: Strategy, state: object, m: AllocationMap, client: frozenset, heap: Heap, reserved: frozenset
) -> list[tuple[str, str]]:
    """Per-state checks of Basic-1/2/5/6 and Zero-Alloc-1/2; ``client = addresses_of(m)``."""
    out = []
    entries = sorted(m, key=lambda e: e.index)
    for a, b in itertools.combinations(entries, 2):
        if max(a.addr, b.addr) < min(a.addr + a.size, b.addr + b.size):
            out.append(("Basic-1", f"allocations {a} and {b} overlap"))
        if a.addr == b.addr:
            out.append(("Zero-Alloc-1", f"address {a.addr} reused ({a} vs {b})"))
    missing = [a for a in client | reserved if a not in heap]
    if missing:
        out.append(("Basic-2", f"client-accessible addresses missing from heap: {sorted(missing)[:8]}"))
    if client & reserved:
        out.append(("Basic-5", f"allocations overlap reserved memory: {sorted(client & reserved)[:8]}"))
    null = strategy.null(state)
    if null in client or null in reserved:
        out.append(("Basic-6", f"null address {null} is client-accessible"))
    for e in entries:
        if e.size == 0 and (e.addr in client or e.addr in reserved):
            out.append(("Zero-Alloc-2", f"zero-sized allocation {e} inside client memory"))
    return out


def judged_steps(strategy: Strategy, reserved: frozenset, start: tuple, sigma: SymbolicSeq, updates) -> list:
    """Replay ``sigma`` with ``updates`` from ``start`` and judge it from
    scratch: after step ``k``, ``out[k]`` maps each clause to its first
    violation, Basic-4 from the cells the step changed and the rest from
    :func:`_single_exec_violations`."""
    heap, state = start[0].copy(), start[1]
    m = frozenset()
    judge: dict = {}
    out = [dict(judge)]
    for k, (upd, ev) in enumerate(zip(updates, sigma), start=1):
        client = addresses_of(m)
        cells = sorted(client | reserved)
        upd.apply(heap, cells)
        before = [heap.read(a) for a in cells]
        _, state, m2 = play_step(strategy, m, heap, state, sigma[: k - 1], ev)
        client2 = addresses_of(m2)
        window = (client2 if isinstance(ev, SymFree) else client) | reserved
        diff = [a for a, x in zip(cells, before) if heap.read(a) != x and a in window]
        if diff:
            judge.setdefault("Basic-4", f"step {k} ({ev}) modified client cells {sorted(diff)[:8]}")
        for clause, detail in _single_exec_violations(strategy, state, m2, client2, heap, reserved):
            judge.setdefault(clause, f"after step {k} ({ev}): {detail}")
        m = m2
        out.append(dict(judge))
    return out


def _gen_feasible_history(
    strategy: Strategy, reserved: frozenset, start: tuple, rng: random.Random, max_len: int
) -> tuple[SymbolicSeq, tuple]:
    """Generate a feasible history by an unjudged walk of :func:`_draw` from
    ``start``, the ``(heap, state)`` of the strategy's ``init``.

    Malloc attempts are recorded as M_k or MF_k according to what the
    strategy actually did, and frees only target live allocations, so the
    resulting (sigma, updates) pair is feasible by construction.
    """
    sigma, updates = _walk(strategy, reserved, start, _draw(rng, max_len))[3:]
    assert symseq_well_formed(sigma)
    return sigma, updates
