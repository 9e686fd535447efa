import itertools

import numpy as np
import pytest

from qlocal import separation
from qlocal.distributions import OutcomeDistribution, marginal, tv_distance
from qlocal.network import run_sampled
from qlocal.protocols import (
    AffineStrategy,
    affine_carrier_terms,
    affine_output_string,
    all_affine_strategies,
    process_gates,
    relation_inputs,
    relation_protocol_programs,
)
from qlocal.separation import (
    exact_gamma,
    gamma_space,
    min_tv_affine_adversary,
    sampling_exact_law,
)
from qlocal.topology import build_script_gd, ring_distance
from qlocal.verify import enumerate_support

from dense import exact_distribution, run_gates


def adversary_gamma_law(
    d: int, strategy: AffineStrategy, biases
) -> OutcomeDistribution:
    """The joint law of one family adversary: b_i ~ Bernoulli(biases[i])
    independently, outcome string deterministic per triple."""
    biases = tuple(float(p) for p in biases)
    if len(biases) != 3 or any(not 0 <= p <= 1 for p in biases):
        raise ValueError("need three bias probabilities in [0, 1]")
    entries = {}
    for b in itertools.product((0, 1), repeat=3):
        q = 1.0
        for bit, p in zip(b, biases):
            q *= p if bit else 1.0 - p
        if q > 0:
            x = affine_output_string(d, strategy, b)
            entries[(b, x)] = entries.get((b, x), 0.0) + q
    return OutcomeDistribution(entries, space=gamma_space(d))


def test_gamma_normalization_and_marginals():
    g = exact_gamma(2)
    assert abs(sum(g.entries.values()) - 1.0) < 1e-12
    for i in range(3):
        assert marginal(g, f"b{i}").probability(1) == pytest.approx(0.5, abs=1e-12)


def test_gamma_support_is_the_validity_relation():
    g = exact_gamma(2)
    for (b, x), p in g.items():
        if p > 1e-9:
            assert x in enumerate_support(2, b)
    # and conversely, every valid pair carries mass
    for b in [(0, 0, 0), (1, 1, 0)]:
        for x in enumerate_support(2, b):
            assert g.probability((b, x)) > 0


@pytest.mark.parametrize("d,entries", [(2, 192), (4, 12_288)])
def test_gamma_has_no_rounding_noise_entries(d, entries):
    # exactly the support: 2^(3d-1) strings for each odd-weight triple and
    # 2^(3d-2) for each even-weight one
    assert len(exact_gamma(d)) == entries


@pytest.mark.parametrize("d", [2, 4])
def test_gamma_equals_the_dense_process_law(d):
    dense = {}
    for b in itertools.product((0, 1), repeat=3):
        law = exact_distribution(run_gates(3 * d, process_gates(d, b)))
        for x, p in law.items():
            dense[(b, x)] = p / 8
    gamma = exact_gamma(d)
    assert set(gamma.entries) == set(dense)
    for key, p in dense.items():
        assert gamma.probability(key) == pytest.approx(p, abs=1e-12)


def test_cross_oracle_identity_at_d2():
    assert tv_distance(exact_gamma(2), sampling_exact_law(2)) <= 1e-9


def test_gamma_cap():
    with pytest.raises(ValueError):
        exact_gamma(8)


def test_empirical_sampling_converges():
    # Γ is uniform on each triple's support, so the sampled relation
    # outcomes must be too
    d, shots = 2, 100_000
    for b in itertools.product((0, 1), repeat=3):
        records = run_sampled(
            build_script_gd(d), relation_protocol_programs(d), rounds=2,
            shots=shots, seed=5, inputs=relation_inputs(d, b),
        )
        counts = {}
        for out in records:
            x = tuple(out[i][0] for i in range(3 * d))
            counts[x] = counts.get(x, 0) + 1
        emp = OutcomeDistribution(
            {x: c / shots for x, c in counts.items()}, space=("bits", 3 * d)
        )
        support = enumerate_support(d, b)
        uniform = OutcomeDistribution(
            {x: 1 / len(support) for x in support}, space=("bits", 3 * d)
        )
        assert tv_distance(emp, uniform) <= 0.02, b


def test_adversary_law_is_a_distribution():
    strategy = AffineStrategy((0, 0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    law = adversary_gamma_law(2, strategy, (0.5, 0.25, 1.0))
    assert abs(sum(law.entries.values()) - 1.0) < 1e-12
    assert marginal(law, "b2").probability(1) == pytest.approx(1.0)


def test_constant_bit_adversary_has_marginal_gap_half():
    # with p_0 = 0 the b_0 marginal alone is 1/2 away from the target's
    strategy = AffineStrategy((0, 0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    law = adversary_gamma_law(2, strategy, (0.0, 0.5, 0.5))
    gap = tv_distance(marginal(law, "b0"), marginal(exact_gamma(2), "b0"))
    assert gap == pytest.approx(0.5, abs=1e-12)
    assert tv_distance(law, exact_gamma(2)) >= gap


def test_min_tv_validates_round_budget():
    with pytest.raises(ValueError):
        min_tv_affine_adversary(4, 2)  # T > d/4
    with pytest.raises(ValueError):
        min_tv_affine_adversary(4, 0)


def test_min_tv_beats_eleven_at_d4():
    tv, witness = min_tv_affine_adversary(4, 1)
    assert tv >= 1 / 11
    assert 0.0 <= tv <= 1.0
    assert witness.strategy.is_admissible()
    assert all(0.0 <= p <= 1.0 for p in witness.biases)
    # the adversary's own law really is at that distance
    law = adversary_gamma_law(4, witness.strategy, witness.biases)
    assert tv_distance(law, exact_gamma(4)) == pytest.approx(tv, abs=1e-12)


def test_min_tv_at_d6_is_unchanged():
    tv, witness = min_tv_affine_adversary(6, 1)
    assert tv == 0.9999904632568357
    assert witness.biases == (2 / 11, 5 / 22, 5 / 11)
    assert witness.strategy.even == (0, 0, 0, 0)


def _reference_min_tv(d, T):
    """The search without a memo: every visible strategy scans the whole
    23^3 bias grid, and the first strategy at the minimum is the witness."""
    triples = list(itertools.product((0, 1), repeat=3))
    supports = [enumerate_support(d, b) for b in triples]
    grid = np.arange(23) / 22.0
    combos = np.stack(
        np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    ones = np.array(triples, dtype=float)[None, :, :] == 1.0
    q = np.prod(
        np.where(ones, combos[:, None, :], 1.0 - combos[:, None, :]), axis=2
    )
    best = None
    for strategy in all_affine_strategies():
        if any(
            ring_distance(d, node, d * origin) > 2 * T - 1
            for node, (_, coeffs) in affine_carrier_terms(d, strategy).items()
            for origin in coeffs
        ):
            continue
        gamma_hits = np.array([
            2.0**-s.dim / 8 if affine_output_string(d, strategy, b) in s else 0.0
            for b, s in zip(triples, supports)
        ])
        tvs = 0.5 * (
            np.abs(q - gamma_hits[None, :]).sum(axis=1) + 1.0 - gamma_hits.sum()
        )
        g = int(np.argmin(tvs))
        if best is None or tvs[g] < best[0]:
            best = (float(tvs[g]), strategy, tuple(float(p) for p in combos[g]))
    return best


@pytest.mark.parametrize("d,T", [(4, 1), (8, 2)])
def test_min_tv_equals_the_search_without_a_memo(d, T):
    tv, witness = min_tv_affine_adversary(d, T)
    ref_tv, ref_strategy, ref_biases = _reference_min_tv(d, T)
    assert tv == ref_tv
    assert witness.tv == ref_tv
    assert witness.strategy == ref_strategy
    assert witness.biases == ref_biases


def test_sampling_law_rejects_outputs_wider_than_a_byte(monkeypatch):
    d = 2
    record = (b"\x00",) * (3 * d) + (b"\x00\x01", b"", b"\x00")
    fake = OutcomeDistribution({record: 1.0}, space=("outputs", ()))
    monkeypatch.setattr(separation, "run_exact", lambda *args, **kwargs: fake)
    with pytest.raises(ValueError, match="one byte each"):
        sampling_exact_law(d)
