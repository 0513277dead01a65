"""The benchmark's workloads: items, their inputs, and their expected answers.

An item is one call into the checker, run cold in its own process and timed
on its own.  Inputs are generated here from the workload seed; the seed
changes values (pushed list values, get indices, loop constants, the seeds
of the well-formedness harness) but never the amount of work.  Expected
answers are computed here from closed forms and from tables that restate
the paper's worked examples, never by calling the code under test.

Workloads:

* ``suite``   -- everyday checker traffic on small programs: every corpus
  case, the three XOR-list scripts under ``gai_check``, and the 20-program
  Memsafe differential.  Mostly the well-formedness phase of ``gai_check``.
* ``scaling`` -- ``gai_check`` on programs of growing size (alloc/free
  loops of k = 2..7 iterations, XOR lists of n = 8..48 nodes).  Mostly the
  similarity search; items that exceed their budget are ``timeout``.
* ``arena``   -- no similarity at all: ``notac.run`` of a 2,000-iteration
  write/alloc/free loop and 200-trial ``wf_check`` under bump and eager
  allocators with 72- and 20,000-cell arenas.  Mostly heap copies.
"""

from __future__ import annotations

import random

WORKLOADS = ("suite", "scaling", "arena")

# Per-item time budget.  ``scaling``'s is chosen so that, on a 2-core
# machine at the seed, every XOR item (1.4-2.3 s at n = 48) and the loop up
# to k = 5 (1.0-1.4 s) finish with room to spare, while k = 6 (~7.7 s) and
# k = 7 (~49 s) are cut and recorded as ``timeout``.
BUDGET_S = {"suite": 20.0, "scaling": 4.0, "arena": 40.0}

# The ten well-formedness clauses of the paper's allocator definition.
WF_CLAUSES = (
    "Basic-1", "Basic-2", "Basic-3", "Basic-4", "Basic-5", "Basic-6",
    "Zero-Alloc-1", "Zero-Alloc-2", "Rel-1", "Rel-2",
)

# Expected verdicts of the worked-example corpus (SAFE: no violation).
CORPUS_EXPECTED = {
    "asymmetric-frees": "UNSAFE",
    "buffer-overflow": "UNSAFE",
    "cast-then-observe": "SAFE",
    "double-free": "UNSAFE",
    "null-checked": "SAFE",
    "null-deref": "UNSAFE",
    "pointer-comparison-min": "SAFE",
    "technical-feedback": "UNSAFE",
    "use-after-free": "UNSAFE",
    "zero-null-check": "UNSAFE",
}

# The 20-program Memsafe differential: (source, initial store).  Every
# program is error-free, so the translation must validate (``ok``).
MEMSAFE_PROGRAMS = (
    ("x <- 1 + 2", None),
    ("x <- 5 * 7 - 3", None),
    ("x <- 2 <= 3; y <- 3 <= 2", None),
    ("x <- nil == nil", None),
    ("s <- 0; i <- 1; while i <= 5 do s <- s + i; i <- i + 1 end", None),
    ("a <- 0; b <- 1; i <- 0; while i <= 8 do t <- a + b; a <- b; b <- t; i <- i + 1 end", None),
    ("x <- alloc(2); [x] <- 7; y <- [x]", None),
    ("x <- alloc(3); y <- [x + 1]", None),
    (
        "a <- alloc(4); i <- 0; while i <= 3 do [a + i] <- i * i; i <- i + 1 end;"
        " t0 <- [a]; t1 <- [a + 1]; t2 <- [a + 2]; t3 <- [a + 3]; s <- t0 + t1 + t2 + t3",
        None,
    ),
    ("x <- alloc(0); y <- 4", None),
    (
        "p <- alloc(2); q <- alloc(2); e <- p == q; [p] <- 1; [q] <- 2;"
        " w0 <- [p]; w1 <- [q]; d <- w0 + w1",
        None,
    ),
    (
        "s <- 0; i <- 0; while i <= 3 do j <- 0; while j <= 3 do s <- s + 1; j <- j + 1 end;"
        " i <- i + 1 end",
        None,
    ),
    ("a <- alloc(1); b <- alloc(1); [a] <- 5; t <- [a]; [b] <- t + 1; c <- [b]", None),
    (
        "a <- alloc(5); i <- 0; while i <= 4 do [a + i] <- i; i <- i + 1 end;"
        " p <- a + 2; u0 <- [p]; u1 <- [p + 1]; u2 <- [p - 1]; v <- u0 + u1 + u2",
        None,
    ),
    ("x <- 10; if x <= 5 then y <- 1 else y <- 2 end", None),
    ("x <- 1; if x then a <- alloc(2); [a] <- 3; r <- [a] else r <- 0 end", None),
    ("a <- alloc(3); [a + 2 - 1] <- 42; m <- [a + 1]", None),
    ("y <- x0 * 2", {"x0": 21}),
    (
        "i <- 0; s <- 0; while i <= 2 do a <- alloc(2); [a + 1] <- i; t <- [a + 1];"
        " s <- s + t; i <- i + 1 end",
        None,
    ),
    ("n <- nil; x <- alloc(1); t <- x == nil; if t then r <- 1 else r <- 2 end", None),
)

LOOP_KS = (2, 3, 4, 5, 6, 7)
XOR_NS = (8, 16, 24, 48)
ARENA_ITERATIONS = 2000
ARENA_BLOCK = 2  # cells per allocation in the arena loop
ARENA_ALLOCATORS = ("bump:0,8,72", "bump:0,8,20000", "eager:0,8,72", "eager:0,8,20000")
ARENA_RESERVED = 8  # cells [0, 8) hold the variables and are reserved
WF_TRIALS = 200


def _item(name: str, kind: str, budget: float, args: dict, expect: dict) -> dict:
    return {"name": name, "kind": kind, "budget_s": budget, "args": args, "expect": expect}


def xor_observations(ops) -> list:
    """What an XOR-list script observes, from a plain Python list model."""
    items, observed = [], []
    for op in ops:
        kind = op[0]
        if kind == "new":
            items = [op[1]]
        elif kind == "push":
            items.insert(0, op[1])
        elif kind == "pop":
            observed.append(items.pop(0))
        elif kind == "get":
            observed.append(items[op[1]])
        elif kind == "insert":
            items.insert(op[1], op[2])
        elif kind == "delete":
            del items[op[1]]
        else:
            raise ValueError(f"unknown list op {op!r}")
    return observed


def _gai_item(name: str, budget: float, rng: random.Random, expect_observed: list, **program) -> dict:
    args = dict(program, wf_seed=rng.randrange(1_000_000))
    return _item(name, "gai", budget, args, {"verdict": "pass", "observed": expect_observed})


def _xor_item(name: str, budget: float, rng: random.Random, ops: list) -> dict:
    return _gai_item(name, budget, rng, xor_observations(ops), ops=ops)


def _suite(rng: random.Random) -> list:
    budget = BUDGET_S["suite"]
    items = [
        _item(f"corpus/{case}", "corpus", budget, {"case": case}, {"verdict": verdict})
        for case, verdict in CORPUS_EXPECTED.items()
    ]
    # The three corpus XOR-list scripts, with seed-chosen values.
    a, b, c = rng.sample(range(1, 1000), 3)
    order = rng.sample(range(3), 3)
    items.append(_xor_item("xor/push-get", budget, rng,
                           [["new", a], ["push", b], ["push", c]] + [["get", i] for i in order]))
    items.append(_xor_item("xor/push-pop", budget, rng, [["new", a], ["push", b], ["pop"], ["pop"]]))
    items.append(_xor_item("xor/insert-delete", budget, rng, [
        ["new", a], ["push", b], ["insert", 1, c], ["get", 0], ["get", 1], ["get", 2],
        ["delete", 1], ["get", 1],
    ]))
    for k, (source, store) in enumerate(MEMSAFE_PROGRAMS):
        items.append(_item(f"memsafe/{k:02d}", "memsafe", budget,
                           {"source": source, "store": store}, {"ok": True}))
    return items


def loop_source(k: int, start: int, scale: int) -> str:
    """The alloc/free loop: k iterations, each mallocs, writes and frees one cell."""
    return (
        f"i = {start}; while (i < {start + k}) {{ p = malloc(1); "
        f"if (p != NULL) {{ *(p) = i * {scale}; free(p); }} i = i + 1; }} observe(i);"
    )


def _scaling(rng: random.Random) -> list:
    budget = BUDGET_S["scaling"]
    items = []
    for k in LOOP_KS:
        start, scale = rng.randrange(1000), rng.randrange(1, 100)
        items.append(_gai_item(f"loop/k={k}", budget, rng, [start + k],
                               source=loop_source(k, start, scale)))
    for n in XOR_NS:
        values = rng.sample(range(1, 10_000), n)
        ops = [["new", values[0]]] + [["push", v] for v in values[1:]]
        ops += [["get", rng.randrange(n)] for _ in range(3)]
        items.append(_xor_item(f"xor/n={n}", budget, rng, ops))
    return items


def arena_source(scale: int, offset: int) -> str:
    """2,000 iterations of malloc, a write into the block, a read back, and free."""
    last = ARENA_BLOCK - 1
    return (
        f"i = 0; s = 0; while (i < {ARENA_ITERATIONS}) {{ p = malloc({ARENA_BLOCK}); "
        f"if (p != NULL) {{ *(p + {last}) = i * {scale} + {offset}; s = s + *(p + {last}); free(p); }} "
        f"i = i + 1; }} observe(s);"
    )


def arena_sum(alloc: str, scale: int, offset: int) -> int:
    """The observed sum in closed form.

    Eager frees release the block, so every iteration allocates.  Bump
    frees are no-ops: its pointer starts at n2 + 1 and a block fits while
    it ends at or below n3, so only the first (n3 - n2 - 1) // block
    iterations allocate.  Iteration i adds i * scale + offset.
    """
    kind, _, params = alloc.partition(":")
    _n1, n2, n3 = (int(x) for x in params.split(","))
    count = ARENA_ITERATIONS
    if kind == "bump":
        count = min(count, (n3 - n2 - 1) // ARENA_BLOCK)
    return scale * count * (count - 1) // 2 + offset * count


def _arena(rng: random.Random) -> list:
    budget = BUDGET_S["arena"]
    scale, offset = rng.randrange(1, 100), rng.randrange(1000)
    source = arena_source(scale, offset)
    items = [
        _item(f"run/{alloc}", "run", budget, {"source": source, "alloc": alloc, "base": 0},
              {"observed": [arena_sum(alloc, scale, offset)]})
        for alloc in ARENA_ALLOCATORS
    ]
    for alloc in ARENA_ALLOCATORS:
        args = {"alloc": alloc, "reserved": ARENA_RESERVED, "trials": WF_TRIALS,
                "seed": rng.randrange(1_000_000)}
        items.append(_item(f"wf/{alloc}", "wf", budget, args, {"failed": []}))
    return items


def build(workload: str, seed: int) -> list:
    """The workload's items for this seed; the same seed gives the same items."""
    rng = random.Random(f"{workload}/{seed}")
    return {"suite": _suite, "scaling": _scaling, "arena": _arena}[workload](rng)


def check(item: dict, output: dict) -> str | None:
    """Compare an item's output with its expected answer; a reason when they differ."""
    kind, expect = item["kind"], item["expect"]
    if kind == "corpus":
        got = output.get("verdicts")
        want = {item["args"]["case"]: expect["verdict"]}
        return None if got == want else f"verdicts {got}, expected {want}"
    if kind == "gai":
        if output.get("verdict") != expect["verdict"]:
            return f"verdict {output.get('verdict')}, expected {expect['verdict']}"
        finished = {name: r["observed"] for name, r in output["runs"].items()
                    if r["outcome"] == "terminated"}
        if not finished:
            return "no family member terminated"
        wrong = {name: obs for name, obs in finished.items() if obs != expect["observed"]}
        return f"observed {wrong}, expected {expect['observed']}" if wrong else None
    if kind == "memsafe":
        ok = output.get("ok") is True and output.get("gai") == "pass"
        return None if ok else f"differential {output}"
    if kind == "run":
        if output.get("outcome") != "terminated":
            return f"outcome {output.get('outcome')}"
        got = output.get("observed")
        return None if got == expect["observed"] else f"observed {got}, expected {expect['observed']}"
    if kind == "wf":
        if sorted(output.get("clauses", ())) != sorted(WF_CLAUSES):
            return f"clauses {output.get('clauses')}"
        failed = output.get("failed")
        return None if failed == expect["failed"] else f"failed clauses {failed}"
    raise ValueError(f"unknown item kind {kind!r}")
