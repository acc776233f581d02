"""Content-aware chunk planning that starves each stored piece of information.

A chunk that statistically resembles the whole file is a good approximation
of it; a chunk that diverges from it is a bad one. Splitting therefore
maximizes, over all block-aligned C-way splits, the smallest divergence
between the file's byte distribution and any single chunk's, so even the
best-looking chunk an attacker can grab approximates the file as poorly as
possible. The search is a dynamic program over (block position, chunks used)
with max-min composition and is exact: it returns the same objective as
brute-force enumeration of every admissible split.

Divergences arrive one row at a time, a row holding every chunk that starts
at one block boundary, and the dynamic program folds each row in as a few
whole-array numpy operations, so memory stays linear in the block count.
numpy is imported by the multi-chunk path only: a one-chunk plan returns
first, so a small object's put does not load numpy.

The chunks are then scattered into storage slots by a uniform random
permutation (``draw_permutation``, ``scatter``; ``reassemble`` inverts it).
The permutation never leaves the local machine; an attacker who captures the
full storage set still faces all chunk_count! orderings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np


class EntropySplitError(Exception):
    pass


class EmptyInput(EntropySplitError):
    """A byte distribution with zero total has no probabilities."""


class InfeasibleSplit(EntropySplitError):
    """Requested chunk count cannot be cut from the file at this granularity."""


DEFAULT_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class ByteDistribution:
    """Histogram over the 256 byte values."""

    counts: tuple[int, ...]
    total: int

    @classmethod
    def from_bytes(cls, data: bytes) -> "ByteDistribution":
        counts = [0] * 256
        for b in data:
            counts[b] += 1
        return cls(counts=tuple(counts), total=len(data))

    def smoothed(self) -> tuple[float, ...]:
        """Add-one smoothed probabilities; defined even for unseen symbols."""
        if self.total == 0:
            raise EmptyInput("empty distribution")
        denom = self.total + 256
        return tuple((c + 1) / denom for c in self.counts)


def relative_entropy(file_dist: ByteDistribution, chunk_dist: ByteDistribution) -> float:
    """D(P_file || P_chunk) in nats, both sides add-one smoothed.

    This is the information lost when the chunk's byte statistics stand in
    for the file's. Always finite thanks to smoothing, and zero exactly when
    the two histograms coincide.
    """
    pf = file_dist.smoothed()
    pc = chunk_dist.smoothed()
    return sum(p * math.log(p / q) for p, q in zip(pf, pc))


@dataclass(frozen=True)
class SplitPlan:
    """Where to cut, how many chunks, and the achieved max-min divergence."""

    cut_points: tuple[int, ...]
    chunk_count: int
    objective: float

    def chunks(self, data: bytes) -> list[bytes]:
        """Cut ``data`` per the plan. Chunks cover the input exactly."""
        bounds = [0, *self.cut_points, len(data)]
        out = [data[a:b] for a, b in zip(bounds, bounds[1:])]
        assert b"".join(out) == data
        return out


def block_boundaries(length: int, block_size: int) -> list[int]:
    """Admissible cut positions: multiples of block_size, plus both ends."""
    if block_size < 1:
        raise ValueError("block size must be positive")
    bounds = list(range(0, length, block_size))
    bounds.append(length)
    return bounds


def _divergence_rows(data: bytes, block_size: int) -> Iterator[np.ndarray]:
    """Yield row a: relative_entropy(file, data[bounds[a]:bounds[b]]) for each b > a."""
    import numpy as np

    arr = np.frombuffer(data, dtype=np.uint8)
    bounds = block_boundaries(len(data), block_size)
    hist = [np.bincount(arr[a:b], minlength=256) for a, b in zip(bounds, bounds[1:])]
    prefix = np.cumsum([np.zeros(256, dtype=np.int64), *hist], axis=0)
    pf = (prefix[-1] + 1) / (len(data) + 256)
    log_pf = np.log(pf)
    for a in range(len(hist)):
        seg = prefix[a + 1 :] - prefix[a]
        pc = (seg + 1) / (seg.sum(axis=1) + 256)[:, None]
        yield (pf * (log_pf - np.log(pc))).sum(axis=1)


def pairwise_chunk_divergence(data: bytes, block_size: int) -> np.ndarray:
    """Divergence of every block-aligned chunk from the whole file.

    Entry [a, b] is row a of ``_divergence_rows`` for a < b; the lower
    triangle is NaN. plan_split maximizes over exactly these values, so an
    enumeration that reads this table reproduces its objective bit for bit.
    """
    import numpy as np

    if not data:
        raise EmptyInput("empty input")
    nb = len(block_boundaries(len(data), block_size)) - 1
    kl = np.full((nb + 1, nb + 1), np.nan)
    for a, row in enumerate(_divergence_rows(data, block_size)):
        kl[a, a + 1 :] = row
    return kl


def plan_split(data: bytes, chunk_count: int, block_size: int = DEFAULT_BLOCK_SIZE) -> SplitPlan:
    """Choose cut points maximizing the minimum per-chunk divergence.

    Cut points land on multiples of ``block_size``; the final chunk absorbs
    any tail remainder. A single-chunk request is always feasible; for more
    chunks the file must hold at least chunk_count full blocks.

    Raises:
        EmptyInput: no data.
        InfeasibleSplit: chunk_count < 1, or chunk_count * block_size
            exceeds the file length (chunk_count >= 2).
    """
    if not data:
        raise EmptyInput("empty input")
    if chunk_count < 1:
        raise InfeasibleSplit("chunk count must be at least 1")
    if chunk_count == 1:
        # The one chunk is the whole file, and D(P || P) = 0.
        return SplitPlan((), 1, 0.0)
    if chunk_count * block_size > len(data):
        raise InfeasibleSplit(
            f"{chunk_count} chunks at block size {block_size} need "
            f"{chunk_count * block_size} bytes, have {len(data)}"
        )
    import numpy as np

    bounds = block_boundaries(len(data), block_size)
    nb = len(bounds) - 1
    # best[c, b]: best achievable min-divergence splitting blocks [0, b) into
    # c + 1 chunks; last[c, b]: that split's last cut. Max-min composes
    # monotonically, so the per-cell max over the last cut is globally
    # optimal. best[:, a] is final once rows before a are folded in, and
    # rows arrive in ascending a, so the strict > keeps the earliest cut.
    best = np.full((chunk_count, nb + 1), -np.inf)
    last = np.zeros((chunk_count, nb + 1), dtype=np.intp)
    rows = _divergence_rows(data, block_size)
    best[0, 1:] = next(rows)
    for a, row in enumerate(rows, 1):
        cand = np.minimum(best[:-1, a, None], row)
        tail = best[1:, a + 1 :]
        better = cand > tail
        tail[better] = cand[better]
        last[1:, a + 1 :][better] = a

    cuts = []
    b = nb
    for c in range(chunk_count - 1, 0, -1):
        b = int(last[c, b])
        cuts.append(bounds[b])
    return SplitPlan(tuple(reversed(cuts)), chunk_count, float(best[-1, nb]))


def draw_permutation(rng: random.Random, count: int) -> tuple[int, ...]:
    perm = list(range(count))
    rng.shuffle(perm)
    return tuple(perm)


def scatter(chunks: Sequence[bytes], permutation: Sequence[int]) -> list[bytes]:
    """Arrange true-order chunks into slot order for storage."""
    if sorted(permutation) != list(range(len(chunks))):
        raise ValueError("not a permutation of the chunk indices")
    slots: list[bytes] = [b""] * len(chunks)
    for i, chunk in enumerate(chunks):
        slots[permutation[i]] = chunk
    return slots


def reassemble(slot_chunks: Sequence[bytes], permutation: Sequence[int]) -> bytes:
    """Inverse of ``scatter``: rebuild the file from slot-ordered chunks."""
    if sorted(permutation) != list(range(len(slot_chunks))):
        raise ValueError("not a permutation of the slot indices")
    return b"".join(slot_chunks[s] for s in permutation)


def recovery_probability(chunk_count: int) -> Fraction:
    """Chance that a single uniformly guessed ordering rebuilds the file.

    An insider who captured the storage set must still name the true
    sequence among chunk_count! candidates, so the success probability is
    exactly 1 / chunk_count!. Without the storage set the attacker also has
    to find the right chunks first, which this model does not quantify; the
    same value is returned as an upper bound.
    """
    if chunk_count < 1:
        raise ValueError("chunk count must be at least 1")
    return Fraction(1, math.factorial(chunk_count))
