"""A brute-force oracle for trace similarity.

``filtering.similar`` and ``filtering.similar_prefixes`` decide similarity
with one pruned search (``filtering._lockstep``).  The oracle here knows
nothing of that search: it enumerates every symbolic sequence that could
filter the first trace and runs the deterministic filter on both, so the
tests can hold the search to it on short traces.
"""

from typing import Sequence

from gai_lab.alloc_model import SymFail, SymFree, SymMalloc, back_index
from gai_lab.filtering import sym_filter
from gai_lab.notac import Event, FreeEv, MallocEv, MallocFailEv, Trace


def _sigma_candidates(trace: Trace) -> list:
    """All symbolic sequences that could filter ``trace``.

    Enumerates pass/residue labelings of the trace's frees (and for passes,
    the matching allocation entries).  Every sequence accepted by
    ``sym_filter(trace, .)`` arises from some labeling, so validating the
    candidates against the deterministic filter is exhaustive.
    """
    results: list = []

    def go(i: int, sigma: list, phi: list):
        if i == len(trace):
            results.append(tuple(sigma))
            return
        ev = trace[i]
        if isinstance(ev, MallocEv):
            sigma.append(SymMalloc(ev.size))
            phi.append((len(sigma), ev.addr))
            go(i + 1, sigma, phi)
            phi.pop()
            sigma.pop()
        elif isinstance(ev, MallocFailEv):
            sigma.append(SymFail(ev.size))
            go(i + 1, sigma, phi)
            sigma.pop()
        elif isinstance(ev, FreeEv):
            go(i + 1, sigma, phi)  # residue labeling
            for pos, addr in phi:
                if addr == ev.addr:
                    sigma.append(SymFree(back_index(sigma, pos)))
                    go(i + 1, sigma, phi)
                    sigma.pop()
        else:
            go(i + 1, sigma, phi)

    go(0, [], [])
    return results


def similar_bruteforce(t1: Sequence[Event], t2: Sequence[Event], bound: int = 10) -> bool:
    """Ground-truth similarity by exhaustive filter enumeration."""
    t1, t2 = tuple(t1), tuple(t2)
    if max(len(t1), len(t2)) > bound:
        raise ValueError(f"traces longer than the brute-force bound {bound}")
    seen = set()
    for sigma in _sigma_candidates(t1):
        if sigma in seen:
            continue
        seen.add(sigma)
        f1 = sym_filter(t1, sigma)
        if f1 is None:
            continue
        f2 = sym_filter(t2, sigma)
        if f2 is not None and f1 == f2:
            return True
    return False
