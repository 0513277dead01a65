"""Golden files that pin the wf harness's random stream and its reports.

``tests/data/wf_draws.txt`` holds the first 20 histories that ``wf_check``
draws for the default eager member at seed 0, and
``tests/data/wf_reports.txt`` every report line of the default family and
the broken strategies of ``test_wf.py``.  A change that moves the stream
(a new seeding, a new draw) changes every witness; it must regenerate both
files openly, from the root of a checkout:

    PYTHONPATH=src:tests python3 tests/test_wf_golden.py
"""

import random
from pathlib import Path

import pytest

from gai_lab.alloc_model import _below, _draw, _gen_update, _walk, format_symseq, wf_check
from gai_lab.allocators import eager
from gai_lab.core import Heap, InaccessibleWrite
from gai_lab.gai import DEFAULT_EAGER_SEGMENT, DEFAULT_ENV_BASE, default_family
from test_wf import (
    ClientPeeker,
    EveryThirdMallocFails,
    FlakyInit,
    MallocWrites,
    MovingNull,
    OverlappingAlloc,
    ReservedSmasher,
)

DATA = Path(__file__).resolve().parent / "data"
DRAWS = DATA / "wf_draws.txt"
REPORTS = DATA / "wf_reports.txt"

RESERVED_SETS = (frozenset(range(0, 8)), frozenset(range(DEFAULT_ENV_BASE, DEFAULT_ENV_BASE + 8)))
BROKEN = (OverlappingAlloc, FlakyInit, MovingNull, ReservedSmasher, ClientPeeker,
          lambda: MallocWrites(3), lambda: MallocWrites(9), EveryThirdMallocFails)


def draw_lines() -> list[str]:
    """``sigma``, ``updates1`` and ``updates2`` of trials 0-19 of
    ``wf_check(eager(*DEFAULT_EAGER_SEGMENT), ..., seed=0)``."""
    strategy = eager(*DEFAULT_EAGER_SEGMENT)
    reserved = RESERVED_SETS[1]
    start = strategy.init(Heap(dict.fromkeys(reserved, 0)))
    lines = []
    for trial in range(20):
        rng = random.Random(trial)
        sigma, updates1 = _walk(strategy, reserved, start, _draw(rng, 12))[3:]
        updates2 = [_gen_update(rng).writes for _ in sigma]
        lines += [f"trial {trial}: {format_symseq(sigma)}",
                  f"  updates1 = {[u.writes for u in updates1]}",
                  f"  updates2 = {updates2}"]
    return lines


def report_lines() -> list[str]:
    """``format_line()`` of every report of each case at 60 trials, or the
    error a case raises."""
    cases = [(lambda s=s: s) for s in default_family()] + list(BROKEN)
    lines = []
    for make in cases:
        for reserved in RESERVED_SETS:
            for seed in (0, 1):
                strategy = make()
                lines.append(f"== {strategy.name} reserved={min(reserved)}..{max(reserved)} seed={seed}")
                try:
                    reports = wf_check(strategy, reserved, Heap(dict.fromkeys(reserved, 0)), trials=60, seed=seed)
                except (RuntimeError, InaccessibleWrite) as exc:
                    lines.append(f"error: {type(exc).__name__}: {exc}")
                    continue
                lines += [line for r in reports for line in r.format_line().splitlines()]
    return lines


# Every bound the harness draws below: an update's write count, slot and
# value, a size index, a length for max_len 0..12, and a live-entry count.
BOUNDS = sorted({3, 64, 19, 6} | {max_len + 1 for max_len in range(13)} | set(range(1, 13)))


def test_below_draws_what_randrange_draws():
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in BOUNDS:
            assert [_below(ours.getrandbits, n) for _ in range(8)] == [theirs.randrange(0, n) for _ in range(8)], n
        assert ours.random() == theirs.random()  # both consumed the same bits


@pytest.mark.parametrize("n", [0, -1])
def test_below_rejects_an_empty_range(n):
    with pytest.raises(ValueError, match="empty range"):
        _below(random.Random(0).getrandbits, n)


def test_the_first_drawn_histories_are_the_committed_ones():
    assert draw_lines() == DRAWS.read_text().splitlines()


def test_every_report_is_the_committed_one():
    assert report_lines() == REPORTS.read_text().splitlines()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    DRAWS.write_text("\n".join(draw_lines()) + "\n")
    REPORTS.write_text("\n".join(report_lines()) + "\n")
