"""The worked-example corpus: small Notac programs with known verdicts.

Each case records the program source, the expected differential verdict
(SAFE = gai_check passes, UNSAFE = it reports a violation), and any initial
variable overrides.  ``error()`` is the guaranteed-stuck write; programs
that must take an error branch set the branch variable in ``init``.

The XOR linked list snippets compose into scripts via :func:`xor_script`;
list nodes are two cells (data, xor of the neighbor addresses) and NULL is
the end-of-list sentinel.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import notac
from .alloc_model import Strategy
from .core import Record
from .gai import GaiReport, default_family, gai_check, variable_base


class CorpusCase(Record, frozen=True):
    name: str
    expected: str  # "SAFE" | "UNSAFE"
    source: str
    init: tuple = ()  # ((var, value), ...)
    notes: str = ""


CASES: tuple[CorpusCase, ...] = (
    CorpusCase(
        "null-deref",
        "UNSAFE",
        """
        // unchecked malloc; the write dereferences NULL when allocation fails
        p = malloc(87);
        *(p) = 42;
        observe(*(p));
        """,
        notes="stuck under null-protecting allocators, observable under lenient ones",
    ),
    CorpusCase(
        "zero-null-check",
        "UNSAFE",
        """
        // checks against the literal 0 instead of NULL
        p = malloc(87);
        if (p != 0) {
            *(p) = 42;
            observe(*(p));
        }
        """,
        notes="an allocator whose null is nonzero still dereferences its null",
    ),
    CorpusCase(
        "null-checked",
        "SAFE",
        """
        p = malloc(87);
        if (p != NULL) {
            *(p) = 42;
            observe(*(p));
        }
        """,
        notes="allocation failure is downgraded; the observe agrees wherever reached",
    ),
    CorpusCase(
        "use-after-free",
        "UNSAFE",
        """
        p = malloc(42);
        if (p == NULL) { error(); }
        free(p);
        *(p) = 87;
        observe(*(p));
        """,
        notes="freed-memory-protecting allocators are stuck at the write",
    ),
    CorpusCase(
        "buffer-overflow",
        "UNSAFE",
        """
        p = malloc(4);
        q = malloc(4);
        if (p == NULL || q == NULL) { error(); }
        *(q) = 42;
        i = 0;
        while (i < 6) {
            *(p + i) = i;
            i = i + 1;
        }
        observe(*(q));
        """,
        notes="guarded allocators are stuck writing past the block",
    ),
    CorpusCase(
        "double-free",
        "UNSAFE",
        """
        p1 = malloc(17);
        if (p1 == NULL) { error(); }
        if (some_other_err) {
            free(p1);
        }
        p2 = malloc(87);
        if (p2 == NULL) { error(); }
        *(p2) = 42;
        free(p1);
        *(p2) = 117;
        observe(*(p2));
        free(p2);
        """,
        init=(("some_other_err", 1),),
        notes="with the error path taken, reusing allocators release p2's block",
    ),
    CorpusCase(
        "pointer-comparison-min",
        "SAFE",
        """
        // find the numerically smallest pointer in a five-cell array
        a0 = 5000; a1 = 470; a2 = 33000; a3 = 471; a4 = 9999;
        p = &a0;
        res = *(p);
        i = 1;
        while (i < 5) {
            if (*(p + i) < res) {
                res = *(p + i);
            }
            i = i + 1;
        }
        observe(res);
        """,
        notes="compares fixed initial-state pointers; no allocator influence",
    ),
    CorpusCase(
        "cast-then-observe",
        "SAFE",
        """
        p = malloc(8);
        x = cast(p);
        observe(x);
        """,
        notes="the cast downgrades the address before it is observed",
    ),
    CorpusCase(
        "technical-feedback",
        "UNSAFE",
        """
        // the allocation size depends on allocator placement
        p = malloc(8);
        q = malloc(8);
        if (p > q) {
            r = malloc(16);
        } else {
            r = malloc(32);
        }
        """,
        notes="placement feeds back into the allocation sequence itself",
    ),
    CorpusCase(
        "asymmetric-frees",
        "UNSAFE",
        """
        p = malloc(8);
        q = malloc(8);
        if (p == NULL || q == NULL) { error(); }
        if (p > q) {
            free(p);
            free(q);
        } else {
            free(q);
            free(p);
        }
        """,
        notes="the free order leaks placement; the branches are arguably equivalent",
    ),
)


def prepare_case(case: CorpusCase, family: Sequence[Strategy]):
    """Parse a case and build its (program, env, seeded heap), with the
    variables where ``gai`` puts them: at ``variable_base`` of ``family``."""
    program = notac.parse(case.source)
    env, heap, _reserved = notac.make_env(program, variable_base(family, len(program.variables)), case.init)
    return program, env, heap


class CorpusResult(Record):
    case: CorpusCase
    report: GaiReport

    @property
    def actual(self) -> str:
        return {"pass": "SAFE", "violation": "UNSAFE"}.get(self.report.verdict, "INCONCLUSIVE")

    @property
    def matches(self) -> bool:
        return self.actual == self.case.expected


CORPUS_WF_TRIALS = 10  # well-formedness trials per member a violation rests on


def run_corpus(
    family=None,
    fuel: int = notac.DEFAULT_FUEL,
    wf_trials: int = CORPUS_WF_TRIALS,
    names: Optional[Sequence[str]] = None,
) -> list[CorpusResult]:
    """gai_check every corpus case; results are ordered by case name.  Raises
    ``ValueError`` when a case's variables do not fit the family's window."""
    family = default_family() if family is None else family
    selected = [c for c in CASES if names is None or c.name in names]
    results = []
    for case in sorted(selected, key=lambda c: c.name):
        program, env, heap = prepare_case(case, family)
        report = gai_check(program, env, heap, family, fuel, wf_trials=wf_trials)
        results.append(CorpusResult(case, report))
    return results


# ---------------------------------------------------------------------------
# XOR linked list scripts
#
# The snippets use a shared set of scratch variables (ptr, node, newNode,
# next, last, res, result, elem, i, j) and communicate through ptr (list
# head) and result (returned values).  Indices and pushed values are spliced
# in as literals.

_XOR_NEW = """
// new list holding elem
node = malloc(2);
if (node == NULL) { error(); }
*(node) = elem;
*(node + 1) = 0;
result = node;
ptr = result;
"""

_XOR_PUSH = """
// push elem at the front
newNode = malloc(2);
if (newNode == NULL) { error(); }
*(newNode) = elem;
*(newNode + 1) = NULL ^ ptr;
next = NULL ^ *(ptr + 1);
*(ptr + 1) = newNode ^ next;
ptr = newNode;
"""

_XOR_POP = """
// pop the front element into result
res = *(ptr);
next = NULL ^ *(ptr + 1);
if (next != NULL) {
    *(next + 1) = NULL ^ ptr ^ *(next + 1);
}
free(ptr);
ptr = next;
result = res;
"""

# Walk to the node at index i: node, with last its predecessor (NULL at the head).
_XOR_WALK = """
j = 0;
node = ptr;
last = NULL;
while (j < i) {
    next = last ^ *(node + 1);
    if (next == NULL) { error(); }
    last = node;
    node = next;
    j = j + 1;
}
"""

_XOR_GET = """
// result = value at index i""" + _XOR_WALK + """result = *(node);
"""

_XOR_DELETE = """
// delete the node at index i""" + _XOR_WALK + """next = last ^ *(node + 1);
if (next != NULL) {
    *(next + 1) = last ^ node ^ *(next + 1);
}
if (last != NULL) {
    *(last + 1) = *(last + 1) ^ node ^ next;
} else {
    ptr = next;
}
"""

_XOR_INSERT = """
// insert elem at index i""" + _XOR_WALK + """newNode = malloc(2);
*(newNode) = elem;
*(newNode + 1) = last ^ node;
*(node + 1) = last ^ *(node + 1) ^ newNode;
if (last != NULL) {
    *(last + 1) = node ^ *(last + 1) ^ newNode;
} else {
    ptr = newNode;
}
"""


def xor_script(ops: Sequence[tuple]) -> str:
    """Compose list operations into one program.

    Ops: ("new", elem) | ("push", elem) | ("pop",) | ("get", index)
    | ("insert", index, elem) | ("delete", index).  Pop and get observe
    their result themselves.
    """
    parts = []
    for op in ops:
        kind = op[0]
        if kind == "new":
            parts.append(f"elem = {op[1]};" + _XOR_NEW)
        elif kind == "push":
            parts.append(f"elem = {op[1]};" + _XOR_PUSH)
        elif kind == "pop":
            parts.append(_XOR_POP + "observe(result);")
        elif kind == "get":
            parts.append(f"i = {op[1]};" + _XOR_GET + "observe(result);")
        elif kind == "insert":
            parts.append(f"i = {op[1]}; elem = {op[2]};" + _XOR_INSERT)
        elif kind == "delete":
            parts.append(f"i = {op[1]};" + _XOR_DELETE)
        else:
            raise ValueError(f"unknown list op {op!r}")
    return "\n".join(parts)


XOR_SCRIPTS: dict[str, tuple] = {
    "push-get": (("new", 7), ("push", 10), ("push", 3), ("get", 0), ("get", 1), ("get", 2)),
    "push-pop": (("new", 5), ("push", 11), ("pop",), ("pop",)),
    "insert-delete": (
        ("new", 4),
        ("push", 8),
        ("insert", 1, 6),
        ("get", 0),
        ("get", 1),
        ("get", 2),
        ("delete", 1),
        ("get", 1),
    ),
}
