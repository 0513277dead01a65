"""Symbolic sequences: the free index, the malloc-free relation,
well-formedness, and the sequence generators."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gai_lab.alloc_model import (
    AllocEntry,
    SymFail,
    SymFree,
    SymMalloc,
    addresses_of,
    back_index,
    format_symseq,
    _gen_update,
    parse_symseq,
)
from wf_oracle import free_index, symseq_well_formed

FIG_SEQ = parse_symseq("M100,MF800,M200,F0,F1")
SIZES = (0, 1, 2, 3, 5, 8)


def gen_update_seq(seed: int, length: int) -> tuple:
    """Deterministic update sequence of exactly ``length`` client updates."""
    rng = random.Random(seed)
    return tuple(_gen_update(rng) for _ in range(length))


def gen_symbolic_seq(seed: int, max_len: int) -> tuple:
    """A pseudo-random well-formed symbolic sequence of length <= max_len."""
    rng = random.Random(seed)
    out: list = []
    live: list[int] = []  # positions of unfreed mallocs
    for _ in range(rng.randint(0, max_len)):
        if live and rng.random() < 0.35:
            i = live.pop(rng.randrange(len(live)))
            out.append(SymFree(back_index(out, i)))
        elif rng.random() < 0.2:
            out.append(SymFail(rng.choice(SIZES)))
        else:
            out.append(SymMalloc(rng.choice(SIZES)))
            live.append(len(out))
    return tuple(out)


def test_free_index_examples():
    s = FIG_SEQ[:3]
    assert free_index(s, 0) == 3  # skips the failed malloc
    assert free_index(s, 1) == 1
    assert free_index((SymFail(800),), 0) is None


def test_free_index_of_extended_sequence():
    # appending a malloc makes it the 0-back target
    for s in ((), FIG_SEQ, (SymFree(0),)):
        assert free_index(s + (SymMalloc(4),), 0) == len(s) + 1


def released_by(seq, j):
    """1-based position of the malloc that the free at position ``j`` releases."""
    return free_index(seq[: j - 1], seq[j - 1].back)


def test_malloc_free_rel_examples():
    assert released_by(parse_symseq("M100,MF800,M200,F0"), 4) == 3
    assert released_by(FIG_SEQ, 4) == 3
    assert released_by(FIG_SEQ, 5) == 1
    assert released_by(FIG_SEQ, 4) != 1
    # a free releases only a malloc before it
    assert free_index(parse_symseq("M8,F0")[:0], 0) is None


def test_well_formedness_examples():
    assert not symseq_well_formed(parse_symseq("F0"))
    assert not symseq_well_formed(parse_symseq("M8,F0,F0"))  # both frees hit index 1
    assert symseq_well_formed(FIG_SEQ)
    assert symseq_well_formed(())
    assert symseq_well_formed(parse_symseq("M8,M4"))  # unmatched mallocs are fine


def test_parse_format_roundtrip():
    assert format_symseq(FIG_SEQ) == "M100,MF800,M200,F0,F1"
    assert parse_symseq(format_symseq(FIG_SEQ)) == FIG_SEQ
    with pytest.raises(ValueError):
        parse_symseq("Q3")


sym_events = st.one_of(
    st.builds(SymMalloc, st.integers(0, 10**6)),
    st.builds(SymFail, st.integers(0, 10**6)),
    st.builds(SymFree, st.integers(0, 50)),
)


@given(st.lists(sym_events, max_size=12).map(tuple))
def test_parse_reads_exactly_what_format_writes(seq):
    assert parse_symseq(format_symseq(seq)) == seq


@pytest.mark.parametrize("text", ["M-1", "F-1", "M+8", "M\u0663", "MF", "M8,", ",M8", "M8, F0", "", "empty"])
def test_parse_rejects_what_format_never_writes(text):
    with pytest.raises(ValueError):
        parse_symseq(text)


def test_addresses_of():
    assert addresses_of({AllocEntry(10, 4, 1)}) == frozenset(range(10, 14))
    assert addresses_of({AllocEntry(10, 4, 1), AllocEntry(20, 0, 2)}) == frozenset(range(10, 14))
    assert addresses_of(frozenset()) == frozenset()


def test_generator_contracts():
    assert gen_symbolic_seq(1, 0) == ()
    assert len(gen_update_seq(3, 3)) == 3
    for seed in range(60):
        seq = gen_symbolic_seq(seed, 12)
        assert len(seq) <= 12
        assert symseq_well_formed(seq)
        # prefixes never orphan a free (frees are matched at generation time)
        for k in range(len(seq) + 1):
            assert symseq_well_formed(seq[:k])


def test_generators_deterministic():
    assert gen_symbolic_seq(9, 12) == gen_symbolic_seq(9, 12)
    assert gen_update_seq(9, 5) == gen_update_seq(9, 5)


events = st.one_of(
    st.integers(0, 8).map(SymMalloc),
    st.integers(0, 8).map(SymFail),
    st.integers(0, 3).map(SymFree),
)


@given(st.lists(events, max_size=10).map(tuple))
def test_free_index_counts_backwards(seq):
    # free_index(s, z) is the position of the (z+1)-th malloc from the right
    mallocs = [i + 1 for i, e in enumerate(seq) if isinstance(e, SymMalloc)]
    for z in range(len(mallocs) + 2):
        expected = mallocs[-(z + 1)] if z < len(mallocs) else None
        assert free_index(seq, z) == expected
