import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocal.distributions import OutcomeDistribution, marginal, tv_distance

SPACE = ("bits", 2)


def dist(entries, **kw):
    return OutcomeDistribution(entries, space=SPACE, **kw)


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        dist({(0, 0): 0.5})
    with pytest.raises(ValueError):
        dist({(0, 0): 1.5, (1, 1): -0.5})
    with pytest.raises(ValueError):
        OutcomeDistribution({"a": float("nan")}, space=())


def test_tv_examples():
    p = dist({(0, 0): 0.75, (1, 1): 0.25})
    q = dist({(0, 0): 0.5, (1, 1): 0.5})
    assert tv_distance(p, q) == pytest.approx(0.25)
    assert tv_distance(p, p) == 0.0
    a = dist({(0, 0): 1.0})
    b = dist({(1, 1): 1.0})
    assert tv_distance(a, b) == 1.0


def test_tv_on_partly_overlapping_supports():
    p = dist({(0, 0): 0.5, (0, 1): 0.5})
    q = dist({(0, 1): 0.25, (1, 1): 0.75})
    # |0.5 - 0| + |0.5 - 0.25| + |0 - 0.75| = 1.5, over keys of p, both, q
    assert tv_distance(p, q) == 0.75
    assert tv_distance(q, p) == 0.75


_WEIGHTS = st.dictionaries(
    st.integers(0, 5), st.floats(0.01, 1.0), min_size=1, max_size=4
)


@settings(max_examples=200, deadline=None)
@given(_WEIGHTS, _WEIGHTS)
def test_tv_equals_the_union_formula(p_weights, q_weights):
    # keys drawn from one small range, so the supports overlap in part
    p, q = (
        dist({(k, 0): w / sum(ws.values()) for k, w in ws.items()})
        for ws in (p_weights, q_weights)
    )
    keys = set(p.entries) | set(q.entries)
    union = 0.5 * sum(abs(p.probability(k) - q.probability(k)) for k in keys)
    assert tv_distance(p, q) == pytest.approx(union, rel=0, abs=1e-15)


def test_tv_space_mismatch():
    p = dist({(0, 0): 1.0})
    q = OutcomeDistribution({(0, 0): 1.0}, space=("bits", 3))
    with pytest.raises(ValueError):
        tv_distance(p, q)


def _random_dist(rng, n_outcomes=6):
    w = rng.random(n_outcomes)
    w /= w.sum()
    return dist({(i, 0): float(p) for i, p in zip(range(n_outcomes), w)})


def test_tv_is_a_metric_on_random_triples():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p, q, r = (_random_dist(rng) for _ in range(3))
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-15)
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
        assert 0.0 <= tv_distance(p, q) <= 1.0


def test_marginal_by_index():
    p = dist({(0, 0): 0.5, (0, 1): 0.25, (1, 1): 0.25})
    m0 = marginal(p, 0)
    assert m0.probability(0) == pytest.approx(0.75)
    m1 = marginal(p, 1)
    assert m1.probability(1) == pytest.approx(0.5)


def test_marginal_of_point_mass():
    p = dist({(1, 0): 1.0})
    assert marginal(p, 0).entries == {1: 1.0}


def test_gamma_space_coordinates():
    g = OutcomeDistribution(
        {((0, 1, 0), (1, 1)): 0.5, ((1, 1, 0), (0, 0)): 0.5},
        space=("gamma", 2),
    )
    assert marginal(g, "b1").probability(1) == pytest.approx(1.0)
    assert marginal(g, "b0").probability(0) == pytest.approx(0.5)
    for coordinate in ("b9", "b", ("b", 0), ("x", 0)):
        with pytest.raises(ValueError):
            marginal(g, coordinate)


def test_data_processing_inequality_spot_check():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p, q = _random_dist(rng), _random_dist(rng)
        joint = tv_distance(p, q)
        for coord in (0, 1):
            assert tv_distance(marginal(p, coord), marginal(q, coord)) \
                <= joint + 1e-12
