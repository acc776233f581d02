"""Weighted provider scoring and a compositional breach probability model.

Providers are compared on four higher-is-better scores in [0, 1]: time,
cost, security and privacy. Time and cost start life as measurements where
smaller is better, so ingestion normalizes by the fleet maximum and inverts
them; security and privacy are normalized without inversion. Normalizing by
the maximum makes the ordering invariant under rescaling a metric's unit.

A breach against a stored object must bypass provider authentication, then
descend the provider's storage hierarchy to the object's depth, and even
then yields only the fraction of the object the provider holds. Those three
factors are modeled as independent, so the breach probability is their
product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class RankingError(Exception):
    pass


class DepthOutOfRange(RankingError):
    """No hierarchy level at the requested depth."""


def _unit(name: str, v: float) -> float:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {v}")
    return v


@dataclass(frozen=True)
class Weights:
    """Relative importance of the four scores; normalized to sum to 1."""

    time: float
    cost: float
    security: float
    privacy: float

    def __post_init__(self) -> None:
        vals = (self.time, self.cost, self.security, self.privacy)
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")
        total = sum(vals)
        if not math.isfinite(total):
            raise ValueError(f"weights must be finite numbers with a finite sum, got {vals}")
        if total == 0:
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "time", self.time / total)
        object.__setattr__(self, "cost", self.cost / total)
        object.__setattr__(self, "security", self.security / total)
        object.__setattr__(self, "privacy", self.privacy / total)


@dataclass(frozen=True)
class ProviderProfile:
    """One provider's scores and breach-model parameters.

    hierarchy_access[d] is the probability of reaching depth d once inside;
    deeper never gets easier, and the constructor enforces it.
    """

    provider_id: str
    time_score: float
    cost_score: float
    security_score: float
    privacy_score: float
    auth_bypass: float = 0.0
    hierarchy_access: tuple[float, ...] = ()
    info_fraction: float = 0.0

    def __post_init__(self) -> None:
        _unit("time_score", self.time_score)
        _unit("cost_score", self.cost_score)
        _unit("security_score", self.security_score)
        _unit("privacy_score", self.privacy_score)
        _unit("auth_bypass", self.auth_bypass)
        _unit("info_fraction", self.info_fraction)
        prev = 1.0
        for d, v in enumerate(self.hierarchy_access):
            _unit(f"hierarchy_access[{d}]", v)
            if v > prev:
                raise ValueError("hierarchy access probabilities must be non-increasing")
            prev = v


def rank_score(profile: ProviderProfile, weights: Weights) -> float:
    """Weighted sum of the four scores; in [0, 1] by construction."""
    return (
        weights.time * profile.time_score
        + weights.cost * profile.cost_score
        + weights.security * profile.security_score
        + weights.privacy * profile.privacy_score
    )


def rank_providers(
    profiles: Sequence[ProviderProfile], weights: Weights
) -> list[ProviderProfile]:
    """Best first; exact ties fall back to provider id so runs agree."""
    return sorted(profiles, key=lambda p: (-rank_score(p, weights), p.provider_id))


def order_fleet(
    provider_ids: Iterable[str],
    profiles: Mapping[str, ProviderProfile],
    weights: Weights,
) -> list[str]:
    """Profiled providers best first, then unprofiled ones by id."""
    ids = sorted(provider_ids)
    profiled = [profiles[p] for p in ids if p in profiles]
    ranked = [p.provider_id for p in rank_providers(profiled, weights)]
    return ranked + [p for p in ids if p not in profiles]


def breach_probability(profile: ProviderProfile, depth: int) -> float:
    """Chance an attacker reads this provider's piece of an object at ``depth``.

    Raises:
        DepthOutOfRange: the profile has no such hierarchy level.
    """
    if not 0 <= depth < len(profile.hierarchy_access):
        raise DepthOutOfRange(
            f"depth {depth} outside 0..{len(profile.hierarchy_access) - 1}"
        )
    return profile.auth_bypass * profile.hierarchy_access[depth] * profile.info_fraction


def normalize_fleet(
    raw: Mapping[str, tuple[float, float, float, float]],
    collapse_privacy: bool = False,
) -> dict[str, tuple[float, float, float, float]]:
    """Turn raw fleet measurements into oriented scores.

    Input tuples are (elapsed time, billed cost, security level, privacy
    level): the first two smaller-is-better, the last two larger-is-better.
    Each metric is divided by its fleet maximum, and the smaller-is-better
    pair is inverted as 1 - normalized. An all-zero column normalizes to the
    best score for inverted metrics and the worst for direct ones.
    ``collapse_privacy`` discards measured privacy and reuses the security
    score, for deployments that do not track the two separately.
    """
    if not raw:
        return {}
    for pid, vals in raw.items():
        if len(vals) != 4 or any(v < 0 for v in vals):
            raise ValueError(f"provider {pid!r} needs four nonnegative measurements")
    maxima = [max(vals[i] for vals in raw.values()) for i in range(4)]
    out = {}
    for pid, vals in raw.items():
        t = 1.0 - (vals[0] / maxima[0] if maxima[0] > 0 else 0.0)
        c = 1.0 - (vals[1] / maxima[1] if maxima[1] > 0 else 0.0)
        s = vals[2] / maxima[2] if maxima[2] > 0 else 0.0
        p = vals[3] / maxima[3] if maxima[3] > 0 else 0.0
        if collapse_privacy:
            p = s
        out[pid] = (t, c, s, p)
    return out
