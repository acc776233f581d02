import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy  # noqa: F401  (loaded before tracemalloc starts, so its import is not counted)
import pytest

from cloudvault.entropy_split import (
    ByteDistribution,
    EmptyInput,
    InfeasibleSplit,
    block_boundaries,
    draw_permutation,
    pairwise_chunk_divergence,
    plan_split,
    reassemble,
    recovery_probability,
    relative_entropy,
    scatter,
)


def _oracle_divergence(file_data: bytes, chunk_data: bytes) -> float:
    """Exact-rational route: add-one smoothing, natural log at the end."""
    def smoothed(data):
        counts = [0] * 256
        for b in data:
            counts[b] += 1
        total = len(data) + 256
        return [Fraction(c + 1, total) for c in counts]

    pf, pc = smoothed(file_data), smoothed(chunk_data)
    return sum(float(f) * math.log(float(f) / float(c)) for f, c in zip(pf, pc))


def test_divergence_matches_rational_oracle():
    got = relative_entropy(
        ByteDistribution.from_bytes(b"aabb"), ByteDistribution.from_bytes(b"aa")
    )
    assert got == pytest.approx(0.004954249544567861, abs=1e-15)
    assert got == pytest.approx(_oracle_divergence(b"aabb", b"aa"), abs=1e-15)

    rng = random.Random(21)
    for _ in range(20):
        data = rng.randbytes(rng.randrange(1, 400))
        cut = rng.randrange(1, len(data) + 1)
        got = relative_entropy(
            ByteDistribution.from_bytes(data),
            ByteDistribution.from_bytes(data[:cut]),
        )
        assert got == pytest.approx(_oracle_divergence(data, data[:cut]), abs=1e-12)


def test_self_divergence_is_zero():
    d = ByteDistribution.from_bytes(b"anything goes here")
    assert relative_entropy(d, d) == 0.0


def test_divergence_nonnegative():
    rng = random.Random(22)
    for _ in range(50):
        a = ByteDistribution.from_bytes(rng.randbytes(rng.randrange(1, 200)))
        b = ByteDistribution.from_bytes(rng.randbytes(rng.randrange(1, 200)))
        assert relative_entropy(a, b) >= 0.0


def test_block_boundaries():
    assert block_boundaries(10, 4) == [0, 4, 8, 10]
    assert block_boundaries(8, 4) == [0, 4, 8]
    assert block_boundaries(3, 4) == [0, 3]


def test_pairwise_table_shape_and_content():
    rng = random.Random(23)
    data = rng.randbytes(160)
    table = pairwise_chunk_divergence(data, 32)
    bounds = block_boundaries(len(data), 32)
    n = len(bounds)
    assert table.shape == (n, n)
    file_dist = ByteDistribution.from_bytes(data)
    for i in range(n):
        for j in range(n):
            if i < j:
                chunk = data[bounds[i] : bounds[j]]
                want = relative_entropy(file_dist, ByteDistribution.from_bytes(chunk))
                assert table[i, j] == pytest.approx(want, abs=1e-12)
            else:
                assert math.isnan(table[i, j])


def _enumerate_best(data: bytes, chunk_count: int, block_size: int) -> float:
    """Brute force over every block-aligned cut set; same divergence table."""
    table = pairwise_chunk_divergence(data, block_size)
    n = table.shape[0] - 1  # block count
    best = -math.inf
    for cuts in itertools.combinations(range(1, n), chunk_count - 1):
        edges = (0, *cuts, n)
        worst = min(table[edges[i], edges[i + 1]] for i in range(chunk_count))
        best = max(best, worst)
    return best


def test_dp_matches_enumeration_small():
    rng = random.Random(24)
    for _ in range(25):
        blocks = rng.randrange(4, 17)
        data = rng.randbytes(blocks * 16 + rng.randrange(16))
        for c in (2, 3):
            if c * 16 > len(data):
                continue
            plan = plan_split(data, c, block_size=16)
            assert plan.objective == _enumerate_best(data, c, 16)
            assert plan.chunk_count == c


def test_planner_memory_is_linear_in_block_count():
    # 257 boundaries: a (blocks + 1)² × 256 table of float64 alone is 135 MB.
    data = random.Random(3).randbytes(16 << 10)
    tracemalloc.start()
    try:
        plan_split(data, 4, block_size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_ties_keep_the_earliest_cut():
    # Identical blocks make every chunk's divergence tie exactly; stored
    # bytes depend on the planner keeping the first cut that reaches the max.
    assert plan_split(b"ab" * 96, 2, 64).cut_points == (64,)
    assert plan_split(b"ab" * 160, 3, 64).cut_points == (64, 192)


def test_single_chunk_always_feasible():
    plan = plan_split(b"xy", 1, block_size=4096)
    assert plan.chunk_count == 1
    assert plan.objective == 0.0
    assert plan.chunks(b"xy") == [b"xy"]


def test_chunks_partition_exactly():
    rng = random.Random(25)
    data = rng.randbytes(1000)
    plan = plan_split(data, 4, block_size=64)
    chunks = plan.chunks(data)
    assert b"".join(chunks) == data
    assert all(chunks)


def test_infeasible_and_empty():
    with pytest.raises(EmptyInput):
        plan_split(b"", 2, block_size=4)
    with pytest.raises(InfeasibleSplit):
        plan_split(b"abc", 2, block_size=4)  # needs 2 full blocks
    with pytest.raises(InfeasibleSplit):
        plan_split(b"abc", 0, block_size=1)


def test_permutation_is_valid_and_varies():
    rng = random.Random(26)
    seen = set()
    for _ in range(300):
        perm = draw_permutation(rng, 4)
        assert sorted(perm) == [0, 1, 2, 3]
        seen.add(perm)
    assert len(seen) == 24  # every ordering of 4 shows up


def test_scatter_reassemble_inverse():
    rng = random.Random(27)
    chunks = [rng.randbytes(rng.randrange(1, 30)) for _ in range(6)]
    perm = draw_permutation(rng, 6)
    assert reassemble(scatter(chunks, perm), perm) == b"".join(chunks)


def test_exactly_one_ordering_reassembles():
    """All C! candidate orderings tried; only the true one rebuilds the file."""
    rng = random.Random(28)
    chunks = [bytes([i]) * 3 for i in range(4)]
    data = b"".join(chunks)
    perm = draw_permutation(rng, 4)
    slots = scatter(chunks, perm)
    hits = sum(
        1
        for guess in itertools.permutations(range(4))
        if reassemble(slots, guess) == data
    )
    assert hits == 1
    assert recovery_probability(4) == Fraction(1, 24)


def test_recovery_probability_values():
    assert recovery_probability(1) == Fraction(1)
    assert recovery_probability(3) == Fraction(1, 6)
    assert recovery_probability(5) == Fraction(1, 120)
