"""Leave-one-out check of the default family: which members a verdict needs.

Dropping a member can only remove violations, so a member is needed by a
program exactly when the full family finds a violation and the family
without that member passes.  The script checks the corpus cases and a
seeded set of ``COUNT`` small generated straight-line programs over ``p``,
``q`` and ``z`` of 2 to 6 statements (``malloc`` of 0, 1, 2 or 100 cells,
``free``, guarded stores and loads, observes of constants, of derefs and
of pointer comparisons, ``cast`` and null checks).  For each member it
prints how many violations only that member decides, and the smallest
such program.

Run from the repository root (it is not part of the test suite)::

    PYTHONPATH=src python3 tools/necessity.py --seed 1

It takes about a minute on one core.  Each seed draws other programs, and
a member may be needed by none of one seed's: seed 1 finds no program
that needs ``bump``, seed 2 finds three.
"""

from __future__ import annotations

import argparse
import random
import sys

from gai_lab.corpus import CASES, CorpusCase, prepare_case
from gai_lab.gai import default_family, gai_check

POINTERS = ("p", "q", "z")
SIZES = (0, 1, 2, 100)
CONSTANTS = (0, 1, 2113, 2114)
MIN_LEN, MAX_LEN = 2, 6  # statements of a generated program
COUNT = 3000  # generated programs


def _guard(rng: random.Random) -> str:
    v = rng.choice(POINTERS)
    return rng.choice([
        f"{v} != NULL",
        f"{v} != 0",
        f"{v} == {rng.choice(CONSTANTS)}",
        f"{v} < {rng.choice(POINTERS)}",
        f"{v} == {rng.choice(POINTERS)}",
    ])


def _statement(rng: random.Random) -> str:
    v, w = rng.choice(POINTERS), rng.choice(POINTERS)
    return rng.choice([
        lambda: f"{v} = malloc({rng.choice(SIZES)});",
        lambda: f"free({v});",
        lambda: f"if ({_guard(rng)}) {{ *({v}) = {rng.choice(CONSTANTS)}; }}",
        lambda: f"if ({_guard(rng)}) {{ x = *({v}); }}",
        lambda: f"observe({rng.choice(CONSTANTS)});",
        lambda: f"observe(*({v}));",
        lambda: f"observe({v} == {w});",
        lambda: f"observe({v} < {w});",
        lambda: f"observe({v} == {rng.choice(CONSTANTS)});",
        lambda: f"x = cast({v});",
        lambda: f"if ({v} == NULL) {{ observe(0); }}",
    ])()


def generated_programs(seed: int) -> list[str]:
    """``COUNT`` sources of ``MIN_LEN`` to ``MAX_LEN`` statements, starting
    with a malloc so that most of them touch the allocator."""
    rng = random.Random(seed)
    sources = []
    for _ in range(COUNT):
        first = f"{rng.choice(POINTERS)} = malloc({rng.choice(SIZES)});"
        rest = [_statement(rng) for _ in range(rng.randint(MIN_LEN, MAX_LEN) - 1)]
        sources.append(" ".join([first, *rest]))
    return sources


def verdict(case: CorpusCase, family) -> str:
    return gai_check(*prepare_case(case, family), family).verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    family = default_family()
    names = [s.name for s in family]
    needed = {name: [] for name in names}  # member -> the cases only it decides
    generated = [CorpusCase(f"gen:{k}", "UNSAFE", src) for k, src in enumerate(generated_programs(args.seed))]
    inputs = [*CASES, *generated]
    violations = 0
    for case in inputs:
        if verdict(case, family) != "violation":
            continue
        violations += 1
        for i, name in enumerate(names):
            if verdict(case, family[:i] + family[i + 1:]) == "pass":
                needed[name].append(case)

    print(f"{len(inputs)} programs (seed {args.seed}), {violations} violations")
    for name in names:
        found = needed[name]
        print(f"{name}: needed by {len(found)}")
        if found:
            case = min(found, key=lambda c: (c.source.count(";"), len(c.source)))
            print(f"  smallest ({case.name}): {' '.join(case.source.split())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
