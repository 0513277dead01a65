"""From-scratch oracles for the well-formedness harness.

``alloc_model._walk`` carries its facts from step to step and judges most
per-state clauses only where a step changed something.  The helpers here
recompute everything at every step, so the tests can hold the walker to
them.
"""

import itertools
import random

from gai_lab.alloc_model import (
    AllocationMap,
    Strategy,
    SymbolicSeq,
    SymFree,
    _draw,
    _walk,
    addresses_of,
    play_step,
    symseq_well_formed,
)
from gai_lab.core import Heap


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
