import random

import pytest

from cloudvault.ranking import (
    DepthOutOfRange,
    ProviderProfile,
    Weights,
    breach_probability,
    normalize_fleet,
    order_fleet,
    rank_providers,
    rank_score,
)


def _profile(pid, t, c, s, p, **kw):
    return ProviderProfile(
        provider_id=pid, time_score=t, cost_score=c, security_score=s,
        privacy_score=p, **kw,
    )


def test_weights_normalize_to_unit_sum():
    w = Weights(2, 1, 1, 4)
    assert w.time + w.cost + w.security + w.privacy == pytest.approx(1.0)
    assert w.time == pytest.approx(0.25)
    assert w.privacy == pytest.approx(0.5)


def test_weights_must_be_nonnegative_and_nonzero():
    with pytest.raises(ValueError):
        Weights(-1, 1, 1, 1)
    with pytest.raises(ValueError):
        Weights(0, 0, 0, 0)


def test_score_hand_value():
    # (2*0.5 + 1*0.25 + 1*1.0 + 4*0.75) / 8 = 0.65625
    w = Weights(2, 1, 1, 4)
    p = _profile("a", 0.5, 0.25, 1.0, 0.75)
    assert rank_score(p, w) == pytest.approx(0.65625, abs=1e-15)


def test_score_matches_direct_arithmetic():
    rng = random.Random(91)
    for _ in range(200):
        raw = [rng.uniform(0.01, 10) for _ in range(4)]
        w = Weights(*raw)
        p = _profile("x", *(rng.random() for _ in range(4)))
        total = sum(raw)
        want = (
            raw[0] * p.time_score + raw[1] * p.cost_score
            + raw[2] * p.security_score + raw[3] * p.privacy_score
        ) / total
        assert rank_score(p, w) == pytest.approx(want, abs=1e-12)


def test_ordering_and_tie_break():
    w = Weights(1, 1, 1, 1)
    high = _profile("zeta", 0.9, 0.9, 0.9, 0.9)
    low = _profile("alpha", 0.1, 0.1, 0.1, 0.1)
    tied_a = _profile("aaa", 0.5, 0.5, 0.5, 0.5)
    tied_b = _profile("bbb", 0.5, 0.5, 0.5, 0.5)
    ranked = rank_providers([tied_b, low, high, tied_a], w)
    assert [p.provider_id for p in ranked] == ["zeta", "aaa", "bbb", "alpha"]


def test_order_fleet_puts_unprofiled_providers_last_by_id():
    w = Weights(1, 1, 1, 1)
    profiles = {
        "zeta": _profile("zeta", 0.9, 0.9, 0.9, 0.9),
        "alpha": _profile("alpha", 0.1, 0.1, 0.1, 0.1),
    }
    fleet = ["omega", "alpha", "beta", "zeta"]
    assert order_fleet(fleet, profiles, w) == ["zeta", "alpha", "beta", "omega"]
    assert order_fleet([], profiles, w) == []


def test_profile_validation():
    with pytest.raises(ValueError):
        _profile("a", 1.5, 0, 0, 0)
    with pytest.raises(ValueError):
        _profile("a", 0, 0, 0, 0, auth_bypass=2.0)
    with pytest.raises(ValueError):
        # deeper tiers cannot be easier to reach than shallow ones
        _profile("a", 0, 0, 0, 0, hierarchy_access=(0.2, 0.9))


def test_breach_probability_three_factor_product():
    p = _profile(
        "a", 0.5, 0.5, 0.5, 0.5,
        auth_bypass=0.2, hierarchy_access=(1.0, 0.5, 0.25), info_fraction=0.4,
    )
    assert breach_probability(p, 0) == 0.2 * 1.0 * 0.4
    assert breach_probability(p, 1) == 0.2 * 0.5 * 0.4
    assert breach_probability(p, 2) == 0.2 * 0.25 * 0.4
    with pytest.raises(DepthOutOfRange):
        breach_probability(p, 3)
    with pytest.raises(DepthOutOfRange):
        breach_probability(p, -1)


def test_normalize_fleet_inverts_time_and_cost():
    # Raw tuples are (elapsed, billed, security level, privacy level).
    scores = normalize_fleet(
        {"fast": (10.0, 100.0, 3.0, 2.0), "slow": (40.0, 50.0, 4.0, 1.0)}
    )
    # Lower wall-clock and spend score higher; quality metrics scale by max.
    assert scores["fast"][0] == pytest.approx(1 - 10 / 40)
    assert scores["slow"][0] == pytest.approx(0.0)
    assert scores["fast"][1] == pytest.approx(0.0)
    assert scores["slow"][1] == pytest.approx(1 - 50 / 100)
    assert scores["fast"][2] == pytest.approx(3 / 4)
    assert scores["slow"][3] == pytest.approx(1 / 2)


def _profiles_from_scores(scores):
    return [_profile(pid, *vals) for pid, vals in scores.items()]


def test_normalization_is_scale_invariant():
    rng = random.Random(92)
    w = Weights(1, 2, 3, 4)
    raw = {
        f"p{i}": tuple(rng.uniform(1, 100) for _ in range(4)) for i in range(6)
    }
    scaled = {
        pid: (m[0] * 7.5, m[1] * 0.3, m[2] * 12, m[3] * 2)
        for pid, m in raw.items()
    }
    order_a = [
        p.provider_id
        for p in rank_providers(_profiles_from_scores(normalize_fleet(raw)), w)
    ]
    order_b = [
        p.provider_id
        for p in rank_providers(_profiles_from_scores(normalize_fleet(scaled)), w)
    ]
    assert order_a == order_b


def test_collapse_privacy_mirrors_security():
    scores = normalize_fleet(
        {"a": (1.0, 1.0, 5.0, 0.0), "b": (2.0, 2.0, 10.0, 0.0)},
        collapse_privacy=True,
    )
    for vals in scores.values():
        assert vals[3] == vals[2]
