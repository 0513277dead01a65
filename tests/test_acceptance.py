"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria (tolerances pinned here):
  1. corpus verdicts match their recorded expectations exactly, < 10 s
  2. filtering examples reproduce the worked residues exactly
  3. the malloc/free/observe example: 3-event prefixes similar, full traces not
  4. `similar` agrees with `similar_bruteforce` on trace pairs up to
     length 8 over the small alphabet, 100% agreement, < 60 s
  5. all seven shipped allocators pass 1000 randomized well-formedness
     trials (maxLen 12); the broken overlapping allocator fails Basic-1
     with a replayable witness
  6. symbolic unit values for M100,MF800,M200,F0,F1 match the hand
     derivation; well-formedness rejects [F0] and [M8,F0,F0]
  7. Memsafe differential over a 20-program suite: exact agreement of
     integer variables whenever oom is clear, gai_check passes, < 30 s
  8. XOR-list scripts observe identical data under eager, bump, and
     guarded-eager, and gai_check passes on the composed scripts
"""

import itertools
import random
import time

from gai_lab import corpus, notac
from gai_lab.alloc_model import (
    parse_symseq,
    replay_wf_witness,
    wf_check,
)
from gai_lab.allocators import (
    bump,
    curious,
    eager,
    guarded_eager,
    lenient_bump,
    no_zero,
    null_alloc,
)
from gai_lab.core import Heap
from gai_lab.filtering import similar, sym_filter
from gai_lab.gai import DEFAULT_BUMP_SEGMENT, DEFAULT_EAGER_SEGMENT, DEFAULT_ENV_BASE, gai_check
from gai_lab.memsafe import differential_check, ms_parse
from gai_lab.notac import FreeEv, MallocEv, MallocFailEv, ObsEv
from similarity_oracle import similar_bruteforce
from wf_oracle import free_index, symseq_well_formed


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def test_criterion_1_corpus_verdicts():
    t0 = time.monotonic()
    results = corpus.run_corpus(wf_trials=10)
    elapsed = time.monotonic() - t0
    expected = {
        "null-deref": "UNSAFE",
        "zero-null-check": "UNSAFE",
        "null-checked": "SAFE",
        "use-after-free": "UNSAFE",
        "buffer-overflow": "UNSAFE",
        "double-free": "UNSAFE",
        "pointer-comparison-min": "SAFE",
        "cast-then-observe": "SAFE",
        "technical-feedback": "UNSAFE",
        "asymmetric-frees": "UNSAFE",
    }
    actual = {r.case.name: r.actual for r in results}
    report(
        "criterion 1: corpus verdicts match expectations",
        actual == expected and elapsed < 10.0,
        f"{sum(r.matches for r in results)}/10 matched in {elapsed:.2f}s",
    )


def test_criterion_2_filtering_residues():
    clean = sym_filter((MallocEv(8, 0x1000), FreeEv(0x1000)), parse_symseq("M8,F0"))
    off_by_one = sym_filter((MallocEv(8, 0x1000), FreeEv(0x1001)), parse_symseq("M8"))
    double = sym_filter((MallocEv(8, 0x1000), FreeEv(0x1000), FreeEv(0x1000)), parse_symseq("M8,F0,F0"))
    ok = (
        clean is not None
        and clean.residue == ()
        and off_by_one is not None
        and off_by_one.residue == (FreeEv(0x1001),)
        and double is not None
        and double.residue == ()
        # strictness: the filter must be consumed exactly
        and sym_filter((MallocEv(8, 0x1000), FreeEv(0x1001)), parse_symseq("M8,F0")) is None
    )
    report("criterion 2: worked filtering residues", ok)


def test_criterion_3_similarity_example():
    src = "p = malloc(8); free(p); observe(1); observe(p);"
    prog = notac.parse(src)
    env, heap, _ = notac.make_env(prog, DEFAULT_ENV_BASE)
    # two allocators that place the block at different addresses
    t1 = notac.run(env, eager(*DEFAULT_EAGER_SEGMENT), prog, heap).trace
    t2 = notac.run(env, curious(9, 2047), prog, heap).trace
    assert t1[0] != t2[0]  # the addresses really differ
    prefixes_similar, _ = similar(t1[:3], t2[:3])
    full_similar, _ = similar(t1, t2)
    report(
        "criterion 3: similarity example (3-event prefixes yes, 4-event no)",
        prefixes_similar and not full_similar,
    )


SIZES = (0, 4, 8)
ADDRS = (100, 101, 200)
VALS = (0, 1, 100)
ALPHABET = (
    [MallocEv(s, a) for s in SIZES for a in ADDRS]
    + [MallocFailEv(s) for s in SIZES]
    + [FreeEv(a) for a in ADDRS]
    + [notac.ObsEv(v) for v in VALS]
    + [notac.CastEv(v) for v in VALS]
)


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    checked = disagreements = 0

    # exhaustive pairs at short lengths over a reduced alphabet
    small = [MallocEv(8, 100), MallocEv(8, 200), MallocFailEv(8), FreeEv(100), FreeEv(200), ObsEv(1)]
    short = [()] + [(a,) for a in small] + list(itertools.product(small, repeat=2))
    for t1 in short:
        for t2 in short:
            checked += 1
            disagreements += similar(t1, t2)[0] != similar_bruteforce(t1, t2)

    # seeded random pairs up to length 8 over the full alphabet
    rng = random.Random(0x5EED)
    for _ in range(2500):
        t1 = tuple(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))
        t2 = tuple(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))
        checked += 1
        disagreements += similar(t1, t2)[0] != similar_bruteforce(t1, t2)

    # correlated pairs: mutations of a shared base hit the similar region
    for _ in range(2000):
        n = rng.randint(1, 8)
        base = [rng.choice(ALPHABET) for _ in range(n)]
        t1 = tuple(base)
        for _ in range(rng.randint(0, 2)):
            base[rng.randrange(n)] = rng.choice(ALPHABET)
        t2 = tuple(base)
        checked += 1
        disagreements += similar(t1, t2)[0] != similar_bruteforce(t1, t2)

    elapsed = time.monotonic() - t0
    report(
        "criterion 4: similar agrees with brute force",
        disagreements == 0 and elapsed < 60.0,
        f"{checked} pairs, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_5_well_formedness_harness():
    t0 = time.monotonic()
    reserved = frozenset(range(0, 8))
    heap = Heap({a: 0 for a in reserved})
    shipped = [
        eager(0, 8, 72),
        bump(0, 8, 72),
        no_zero(bump(0, 8, 72)),
        lenient_bump(0, 8, 72),
        guarded_eager(0, 8, 72),
        null_alloc(),
    ]
    failures = []
    for strategy in shipped:
        for r in wf_check(strategy, reserved, heap, trials=1000, seed=11, max_len=12):
            if not r.passed:
                failures.append((strategy.name, r.clause))
    curious_reserved = frozenset(range(48, 56))
    curious_heap = Heap({a: 0 for a in curious_reserved})
    for r in wf_check(curious(4, 47), curious_reserved, curious_heap, trials=1000, seed=11, max_len=12):
        if not r.passed:
            failures.append(("curious", r.clause))

    from test_wf import OverlappingAlloc

    broken_reports = wf_check(OverlappingAlloc(), reserved, heap, trials=1000, seed=11, max_len=12)
    basic1 = next(r for r in broken_reports if r.clause == "Basic-1")
    broken_ok = not basic1.passed and replay_wf_witness(OverlappingAlloc(), reserved, heap, basic1)
    elapsed = time.monotonic() - t0
    report(
        "criterion 5: well-formedness harness (7 allocators x 1000 trials + broken)",
        not failures and broken_ok,
        f"failures={failures or 'none'}, broken Basic-1 replayed={broken_ok}, {elapsed:.1f}s",
    )


def test_criterion_6_symbolic_unit_values():
    seq = parse_symseq("M100,MF800,M200,F0,F1")
    ok = (
        free_index(seq[:3], 0) == 3
        and free_index(seq[:4], 1) == 1
        and free_index(seq[:3], seq[3].back) == 3  # the free at 4 releases the malloc at 3
        and free_index(seq[:4], seq[4].back) == 1  # the free at 5 releases the malloc at 1
        and not symseq_well_formed(parse_symseq("F0"))
        and not symseq_well_formed(parse_symseq("M8,F0,F0"))
        and symseq_well_formed(seq)
    )
    report("criterion 6: symbolic machinery unit values", ok)


MEMSAFE_SUITE = [
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
]


def test_criterion_7_translation_differential():
    t0 = time.monotonic()
    assert len(MEMSAFE_SUITE) == 20
    bad = []
    for text, store in MEMSAFE_SUITE:
        rep = differential_check(ms_parse(text), initial_store=store, wf_trials=8)
        if not rep.ok:
            bad.append((text, rep.describe()))
    elapsed = time.monotonic() - t0
    report(
        "criterion 7: Memsafe translation differential (20 programs)",
        not bad and elapsed < 30.0,
        f"{len(MEMSAFE_SUITE) - len(bad)}/20 ok in {elapsed:.1f}s" + (f"; first failure: {bad[0]}" if bad else ""),
    )


def test_criterion_8_xor_linked_list():
    observations = {}
    gai_ok = True
    for name, ops in corpus.XOR_SCRIPTS.items():
        prog = notac.parse(corpus.xor_script(ops))
        env, heap, _ = notac.make_env(prog, DEFAULT_ENV_BASE)
        per_alloc = []
        for strategy in (
            eager(*DEFAULT_EAGER_SEGMENT),
            bump(*DEFAULT_BUMP_SEGMENT),
            guarded_eager(*DEFAULT_EAGER_SEGMENT),
        ):
            out = notac.run(env, strategy, prog, heap)
            per_alloc.append((out.kind, tuple(e.val for e in out.trace if isinstance(e, ObsEv))))
        observations[name] = per_alloc
        gai_ok = gai_ok and gai_check(prog, env, heap, wf_trials=8).verdict == "pass"
    agree = all(
        len({obs for _, obs in runs}) == 1 and all(kind == "terminated" for kind, _ in runs)
        for runs in observations.values()
    )
    report(
        "criterion 8: XOR list allocator independence",
        agree and gai_ok,
        "; ".join(f"{name}:{runs[0][1]}" for name, runs in sorted(observations.items())),
    )
