"""Every member of the default family is needed by some program.

Dropping a member can only remove violations (the subfamily argument in the
``gai`` docstring), so a member earns its runs only if some program is
UNSAFE under the full family and passes without it.  Each member below has
one such program, pinned with the violation the full family reports.  The
generated ones were found by ``tools/necessity.py``; ``curious`` and
``lenient-bump`` are needed by corpus cases.
"""

import pytest

from gai_lab.corpus import CASES, CorpusCase, prepare_case
from gai_lab.gai import default_family, gai_check

EAGER, GUARDED = "eager:2048,2112,6208", "guarded-eager:2048,2112,6208"
BUMP, LENIENT = "bump:2048,2112,2176", "lenient-bump:2048,2112,2176"
CURIOUS, NOZERO = "curious:9,2047", "nozero(bump:2048,2112,2176)"
CORPUS = {case.name: case for case in CASES}


# member -> (program, producer, witness, clause, position)
NEEDED = {
    # bump and lenient-bump both place z at 2113 and fail malloc(100); bump
    # then sticks reading its null cell, while lenient-bump observes 1.  No
    # other member shares that prefix: nozero(bump), null and curious fail
    # malloc(0), and eager and guarded-eager get malloc(100).
    BUMP: (CorpusCase("needs-bump", "UNSAFE", "z = malloc(0); p = malloc(100); if (z == 2113) { x = *(p); } observe(1);"),
           LENIENT, BUMP, "noninterference", 2),
    # Only null frees 0 after failing malloc(100); the bump kinds free their null, 2112.
    "null": (CorpusCase("needs-null", "UNSAFE", "z = malloc(100); free(z);"), BUMP, "null", "noninterference", 1),
    # Only nozero(bump) fails malloc(0) with a nonzero null, which it then frees.
    NOZERO: (CorpusCase("needs-nozero", "UNSAFE", "p = malloc(0); free(p);"), CURIOUS, NOZERO, "noninterference", 1),
    # Only eager places the three blocks where the bump kinds do and then
    # sticks reading the empty block, which their filled segment holds as 0.
    EAGER: (CorpusCase("needs-eager", "UNSAFE", "z = malloc(1); p = malloc(0); q = malloc(0); x = cast(q); observe(*(q));"),
            BUMP, EAGER, "noninterference", 4),
    # Only guarded-eager places a second empty block anywhere but 2114.
    GUARDED: (CorpusCase("needs-guarded-eager", "UNSAFE", "z = malloc(0); z = malloc(0); observe(z == 2114);"),
              EAGER, GUARDED, "noninterference", 2),
    LENIENT: (CORPUS["null-deref"], LENIENT, BUMP, "noninterference", 1),
    CURIOUS: (CORPUS["technical-feedback"], EAGER, CURIOUS, "malloc-progress", 2),
}


def test_every_default_member_has_a_program():
    assert set(NEEDED) == {s.name for s in default_family()}


@pytest.mark.parametrize("member", list(NEEDED))
def test_the_program_is_unsafe_only_with_the_member(member):
    case, producer, witness, clause, position = NEEDED[member]
    family = default_family()
    report = gai_check(*prepare_case(case, family), family)
    assert report.verdict == "violation"
    v = report.violation
    assert (v.producer, v.witness_member, v.clause, v.position) == (producer, witness, clause, position)
    without = [s for s in family if s.name != member]
    assert len(without) == len(family) - 1
    assert gai_check(*prepare_case(case, without), without).verdict == "pass"
