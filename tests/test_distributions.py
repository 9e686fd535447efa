import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocal.distributions import GammaLaw, OutcomeDistribution, marginal, tv_distance

from packing import gamma_key, gamma_law

SPACE = ("bits", 2)


def dist(entries, **kw):
    return OutcomeDistribution(entries, space=SPACE, **kw)


def test_probabilities_must_sum_to_one():
    # the one rule GammaLaw also checks, with its message
    with pytest.raises(ValueError, match="sum to 1"):
        dist({(0, 0): 0.5})
    with pytest.raises(ValueError, match="sum to 1"):
        dist({(0, 0): 1.5, (1, 1): -0.5})
    with pytest.raises(ValueError, match="sum to 1"):
        OutcomeDistribution({"a": float("nan")}, space=())
    with pytest.raises(ValueError, match="sum to 1"):
        dist({(0, 0): float("nan"), (1, 1): 1.0})


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


def test_tv_refuses_a_gamma_law_against_a_dict_law():
    # one space, two law types: neither is converted to the other
    g = gamma_law(2, {((0, 1, 0), (1, 1, 0, 0, 0, 0)): 1.0})
    as_dict = OutcomeDistribution(dict(g.items()), g.space)
    for p, q in ((g, as_dict), (as_dict, g)):
        with pytest.raises(ValueError, match="laws of two types"):
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


def test_marginal_index_is_a_count_within_every_key():
    p = dist({(0, 0): 0.5, (0, 1): 0.5})
    assert marginal(p, np.int64(1)).entries == marginal(p, 1).entries == {0: 0.5, 1: 0.5}
    for coordinate in (True, -1, 2, 5, 1.0):
        with pytest.raises(ValueError, match="not defined for space"):
            marginal(p, coordinate)
    # past the length of one key, though not of the other
    ragged = OutcomeDistribution({(0,): 0.5, (0, 1): 0.5}, space=("ragged",))
    with pytest.raises(ValueError, match="not defined for space"):
        marginal(ragged, 1)


def test_gamma_space_coordinates():
    g = gamma_law(2, {((0, 1, 0), (1, 1, 0, 0, 0, 0)): 0.5,
                      ((1, 1, 0), (0, 0, 0, 0, 0, 1)): 0.5})
    assert g.space == ("gamma", 2)
    assert marginal(g, "b1").entries == {1: 1.0}
    assert marginal(g, "b0").probability(0) == 0.5
    # a Γ law has only its input-bit coordinates, not a key index
    for coordinate in ("b9", "b", ("b", 0), ("x", 0), 0, 1):
        with pytest.raises(ValueError):
            marginal(g, coordinate)
    # a dict law of the same space has no input-bit coordinates
    with pytest.raises(ValueError):
        marginal(OutcomeDistribution(dict(g.items()), g.space), "b1")


def test_gamma_law_checks_its_arrays():
    keys = np.array([1, 2, 3], dtype=np.int64)
    for bad_probs in ([0.5, float("nan"), 0.5], [0.75, -0.25, 0.5], [0.25, 0.25, 0.25]):
        with pytest.raises(ValueError, match="sum to 1"):
            GammaLaw(2, keys, bad_probs)
    for bad_keys, match in (([1, 3, 2], "ascending"), ([1, 2, 2], "ascending"),
                            ([1.0, 2.0, 3.0], "int64"), ([[1, 2, 3]], "int64")):
        with pytest.raises(ValueError, match=match):
            GammaLaw(2, np.array(bad_keys), [0.25, 0.25, 0.5])
    # a d=2 key holds 3d + 3 = 9 bits: -1 would decode as b = (1, 1, 1)
    for bad_keys in ([-1, 3], [3, 1 << 9]):
        with pytest.raises(ValueError, match=r"lie in \[0, 2\^9\)"):
            GammaLaw(2, np.array(bad_keys, dtype=np.int64), [0.5, 0.5])
    assert GammaLaw(2, np.array([0, (1 << 9) - 1]), [0.5, 0.5]).keys.tolist() == [0, 511]
    law = GammaLaw(2, keys, [0.25, 0.25, 0.5])
    for array in (law.keys, law.probs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # the law holds copies, so its arguments stay writable and apart
    keys[0] = 0
    assert law.keys.tolist() == [1, 2, 3]


def _gamma_key_pairs(rng, d):
    """Key sets of pairs of laws: apart, on one support, and drawn
    independently, so that supports overlap in part."""
    half = 1 << 3 * d + 2
    for size in (1, 3, 40):
        for _ in range(10):
            low, high = (np.sort(rng.choice(half, size, replace=False)) for _ in range(2))
            yield low, high + half
            yield low, low
            yield low, np.sort(rng.choice(2 * half, size, replace=False))


def test_packed_laws_equal_their_dict_laws():
    rng = np.random.default_rng(3)
    d = 2
    for key_pair in _gamma_key_pairs(rng, d):
        weights = [rng.random(len(keys)) for keys in key_pair]
        p, q = (GammaLaw(d, keys, w / w.sum()) for keys, w in zip(key_pair, weights))
        p_dict, q_dict = (OutcomeDistribution(dict(g.items()), g.space) for g in (p, q))
        assert tv_distance(p, q) == pytest.approx(tv_distance(p_dict, q_dict), rel=0, abs=1e-15)
        for law in (p, q):
            for i in range(3):
                ref = {}
                for (b, _), prob in law.items():
                    ref[b[i]] = ref.get(b[i], 0.0) + prob
                assert marginal(law, f"b{i}").entries == ref


@pytest.mark.parametrize("d", [2, 4])
def test_gamma_items_are_the_entries_by_key(d):
    # a pool of ring strings, most missing, each drawn under several
    # triples, and some triples left out
    rng = np.random.default_rng(d)
    n = 3 * d
    triples = [tuple(int(c) for c in np.binary_repr(v, 3)) for v in range(8)]
    for _ in range(10):
        pool = rng.choice(1 << n, size=12, replace=False).tolist()
        entries = {}
        for b in triples:
            for x in rng.choice(pool, size=int(rng.integers(0, 6)), replace=False).tolist():
                entries[b, tuple(x >> i & 1 for i in range(n))] = float(rng.random())
        if not entries:
            continue
        total = sum(entries.values())
        entries = {k: p / total for k, p in entries.items()}
        items = list(gamma_law(d, entries).items())
        assert items == sorted(entries.items(), key=lambda kv: gamma_key(d, *kv[0]))
        for part in (0, 1):  # equal b, and equal x, are one tuple object
            values = [key[part] for key, _ in items]
            assert len({id(v) for v in values}) == len(set(values))


def test_data_processing_inequality_spot_check():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p, q = _random_dist(rng), _random_dist(rng)
        joint = tv_distance(p, q)
        for coord in (0, 1):
            assert tv_distance(marginal(p, coord), marginal(q, coord)) \
                <= joint + 1e-12
