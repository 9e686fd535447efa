import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from qlocal import separation
from qlocal.distributions import GammaLaw, OutcomeDistribution, marginal, tv_distance
from qlocal.network import run_exact, run_sampled
from qlocal.protocols import (
    AffineStrategy,
    RelationProgram,
    _set_slots,
    affine_output_string,
    all_affine_strategies,
    process_gates,
    relation_inputs,
    relation_protocol_programs,
    sampling_protocol_programs,
)
from qlocal.separation import (
    exact_gamma,
    min_tv_affine_adversary,
    sampling_exact_law,
)
from qlocal.topology import build_script_gd, ring_distance
from qlocal.verify import enumerate_support

from dense import exact_distribution, run_gates
from packing import gamma_law


def adversary_gamma_law(d: int, strategy: AffineStrategy, biases) -> GammaLaw:
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
    return gamma_law(d, entries)


def test_gamma_normalization_and_marginals():
    g = exact_gamma(2)
    assert abs(sum(dict(g.items()).values()) - 1.0) < 1e-12
    for i in range(3):
        assert marginal(g, f"b{i}").probability(1) == pytest.approx(0.5, abs=1e-12)


def test_gamma_support_is_the_validity_relation():
    g = exact_gamma(2)
    for (b, x), p in g.items():
        if p > 1e-9:
            assert x in enumerate_support(2, b)
    # and conversely, every valid pair carries mass
    law = dict(g.items())
    for b in [(0, 0, 0), (1, 1, 0)]:
        for x in enumerate_support(2, b):
            assert law.get((b, x), 0.0) > 0


@pytest.mark.parametrize("d,entries", [(2, 192), (4, 12_288)])
def test_gamma_has_no_rounding_noise_entries(d, entries):
    # exactly the support: 2^(3d-1) strings for each odd-weight triple and
    # 2^(3d-2) for each even-weight one
    assert len(exact_gamma(d).keys) == entries


@pytest.mark.parametrize("d", [2, 4])
def test_gamma_equals_the_dense_process_law(d):
    dense = {}
    for b in itertools.product((0, 1), repeat=3):
        law = exact_distribution(run_gates(3 * d, process_gates(d, b)))
        for x, p in law.items():
            dense[(b, x)] = p / 8
    gamma = dict(exact_gamma(d).items())
    assert set(gamma) == set(dense)
    for key, p in dense.items():
        assert gamma.get(key, 0.0) == pytest.approx(p, abs=1e-12)


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
            {x: 1 / 2**support.dim for x in support}, space=("bits", 3 * d)
        )
        assert tv_distance(emp, uniform) <= 0.02, b


def test_adversary_law_is_a_distribution():
    strategy = AffineStrategy((0, 0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    law = adversary_gamma_law(2, strategy, (0.5, 0.25, 1.0))
    assert abs(sum(dict(law.items()).values()) - 1.0) < 1e-12
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


def test_min_tv_at_d6_is_one_minus_the_top_hit_mass():
    # 4 odd-weight hits of 2^-20 and 3 even-weight hits of 2^-19
    tv, witness = min_tv_affine_adversary(6, 1)
    assert tv == 1 - 10 * 2.0**-20
    assert witness.biases == (0.5, 0.5, 0.5)
    assert witness.strategy.even == (0, 0, 0, 0)


def test_the_round_budget_never_limits_the_adversary():
    # every nonconstant carrier term sits within one hop of its corner, so
    # each T >= 1 (radius 2T-1 >= 1) sees all 512 strategies; radius 0
    # would not, so the reference model's filter is not vacuous
    strategies = list(all_affine_strategies())
    assert all(_visible(16, 2 * T - 1, s) for T in (1, 2, 3, 4) for s in strategies)
    assert 0 < sum(_visible(16, 0, s) for s in strategies) < len(strategies)
    results = [min_tv_affine_adversary(16, T) for T in (1, 2, 3, 4)]
    tv, witness = results[0]
    assert all(r == (tv, witness) for r in results[1:])


TRIPLES = list(itertools.product((0, 1), repeat=3))


def _triple_probabilities(biases):
    """q[g, j]: the probability that the g-th bias triple gives triple j."""
    biases = np.asarray(biases, dtype=float).reshape(-1, 1, 3)
    ones = np.array(TRIPLES)[None] == 1
    return np.prod(np.where(ones, biases, 1.0 - biases), axis=2)


def _meshgrid_bias_table():
    """The bias triples of the 1/22-step grid, as a meshgrid, and their
    triple probabilities."""
    grid = np.arange(23) / 22.0
    combos = np.stack(
        np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    return combos, _triple_probabilities(combos)


def _visible(d, radius, strategy):
    """Every nonconstant term of the strategy sits within the given ring
    distance of the corner holding its input bit."""
    return all(
        origin is None or ring_distance(d, node, d * origin) <= radius
        for node, origin in _set_slots(d, strategy)
    )


def _explicit_tv(q, gamma_hits):
    """The family member's distance to Γ at triple probabilities q (one row
    per bias triple), from its hit masses gamma_hits."""
    return 0.5 * (np.abs(q - gamma_hits).sum(axis=-1) + 1.0 - gamma_hits.sum())


def _gamma_hits(d, strategy):
    """Γ's mass on the strategy's output string for each triple b:
    2^-dim(S_b)/8 when the string is in S_b, else 0."""
    supports = [enumerate_support(d, b) for b in TRIPLES]
    return np.array([
        2.0**-s.dim / 8 if affine_output_string(d, strategy, b) in s else 0.0
        for b, s in zip(TRIPLES, supports)
    ])


def _reference_min_tv(d, T):
    """The search without a memo: every visible strategy scans the whole
    23^3 bias grid, and the first strategy at the minimum is the witness."""
    combos, q = _meshgrid_bias_table()
    best = None
    for strategy in all_affine_strategies():
        if not _visible(d, 2 * T - 1, strategy):
            continue
        tvs = _explicit_tv(q, _gamma_hits(d, strategy))
        g = int(np.argmin(tvs))
        if best is None or tvs[g] < best[0]:
            best = (float(tvs[g]), strategy, tuple(float(p) for p in combos[g]))
    return best


@pytest.mark.parametrize("d,T", [(4, 1), (8, 2), (12, 3), (16, 4)])
def test_min_tv_equals_the_search_without_a_memo(d, T):
    # the grid's minimum differs from the closed form by rounding alone
    tv, witness = min_tv_affine_adversary(d, T)
    ref_tv, ref_strategy, _ = _reference_min_tv(d, T)
    assert abs(tv - ref_tv) <= 2.0**-52
    assert witness.strategy == ref_strategy
    q = _triple_probabilities(witness.biases)
    at_witness = _explicit_tv(q, _gamma_hits(d, witness.strategy))
    assert abs(float(at_witness[0]) - tv) <= 2.0**-52


@functools.cache
def _fraction_hit_masses(d):
    """Each strategy's hit mass Σ_b 2^-dim(S_b)/8 over the triples whose
    output string is in S_b, exactly, in `all_affine_strategies` order."""
    supports = [enumerate_support(d, b) for b in TRIPLES]
    return [
        sum(Fraction(1, 8 << s.dim) for b, s in zip(TRIPLES, supports)
            if affine_output_string(d, strategy, b) in s)
        for strategy in all_affine_strategies()
    ]


@pytest.mark.parametrize("d,T", [(64, 1), (64, 16), (1024, 1), (1024, 256)])
def test_min_tv_is_one_minus_the_exact_top_mass_at_large_d(d, T):
    # 1 - mass rounds to 1.0 here, and at d=1024 the float masses underflow,
    # so only exact masses can name the maximizer
    masses = _fraction_hit_masses(d)
    top = max(masses)
    tv, witness = min_tv_affine_adversary(d, T)
    assert tv == float(1 - top)
    assert witness.strategy == list(all_affine_strategies())[masses.index(top)]
    assert witness.biases == (0.5, 0.5, 0.5)


@pytest.mark.parametrize("d", [4, 6])
def test_no_product_bias_beats_the_closed_form(d):
    rng = np.random.default_rng(d)
    biases = rng.random((500, 3))
    # faces and corners of the bias cube
    biases[:100, 0] = rng.integers(0, 2, 100)
    biases[100:150] = rng.integers(0, 2, (50, 3))
    q = _triple_probabilities(biases)
    masses = [2.0**-enumerate_support(d, b).dim / 8 for b in TRIPLES]
    patterns = np.unique(separation._hit_patterns(d)).tolist()
    for pattern in patterns:
        gamma_hits = np.array([m if pattern >> j & 1 else 0.0 for j, m in enumerate(masses)])
        bound = 1.0 - gamma_hits.sum()
        assert (_explicit_tv(q, gamma_hits) >= bound - 1e-15).all(), pattern
        uniform = _explicit_tv(_triple_probabilities((0.5, 0.5, 0.5)), gamma_hits)
        assert float(uniform[0]) == pytest.approx(bound, abs=1e-15)
        if pattern:
            # a bias that never draws the first hit triple pays its mass again
            j = (pattern & -pattern).bit_length() - 1
            off = [1.0 - bit for bit in TRIPLES[j]]
            assert float(_explicit_tv(_triple_probabilities(off), gamma_hits)[0]) > bound
    top = max(sum(m for j, m in enumerate(masses) if p >> j & 1) for p in patterns)
    assert min_tv_affine_adversary(d, 1)[0] == pytest.approx(1.0 - top, abs=1e-15)


def _unit_strategies():
    """The 13 strategies with a single coefficient bit set, in (even,
    right, bottom, left) order; most are not admissible."""
    return [
        AffineStrategy(u[:4], u[4:7], u[7:10], u[10:])
        for u in np.eye(13, dtype=int).tolist()
    ]


@pytest.mark.parametrize("d", [2, 4, 8])
def test_output_string_is_the_xor_of_the_unit_outputs(d):
    # the GF(2) linearity in the coefficient bits that the hit test rests
    # on; at d=2 nodes 1, 3 and 5 each carry a whole side
    units = _unit_strategies()
    for b in TRIPLES:
        unit_outputs = [np.array(affine_output_string(d, u, b)) for u in units]
        for strategy in all_affine_strategies():
            bits = strategy.even + strategy.right + strategy.bottom + strategy.left
            xor = np.zeros(3 * d, dtype=int)
            for bit, out in zip(bits, unit_outputs):
                xor ^= bit * out
            assert affine_output_string(d, strategy, b) == tuple(xor.tolist()), (strategy, b)


@pytest.mark.parametrize(
    "d,T,match",
    [(4.0, 1, "even integer"), (5, 1, "even integer"),
     (8, 1.5, "must be an integer"), (8, True, "must be an integer")],
)
def test_min_tv_rejects_non_integer_input(d, T, match):
    with pytest.raises(ValueError, match=match):
        min_tv_affine_adversary(d, T)


def test_sampling_law_rejects_outputs_wider_than_a_byte(monkeypatch):
    d = 2
    # the ring nodes flag their qubits; the input nodes flag nothing, so
    # their one output is checked on a path of its own; a byte other than 0
    # or 1 is no key bit
    cases = [(0, b"\x00\x01"), (1, b""), (3 * d, b"\x00\x01"), (3 * d + 2, b""),
             (0, b"\x02"), (3 * d, b"\x02")]
    for node, out in cases:
        def programs(d, node=node, out=out):
            made = sampling_protocol_programs(d)
            made[node].finalize = lambda measured: out
            return made

        monkeypatch.setattr(separation, "sampling_protocol_programs", programs)
        with pytest.raises(ValueError, match="one byte each"):
            sampling_exact_law(d)


class _CornerSkipsS(RelationProgram):
    """A corner that never applies its conditional S."""

    def _after_disentangle(self):
        super(RelationProgram, self)._after_disentangle()


@pytest.mark.parametrize("d", [2, 4])
def test_a_corner_that_skips_s_is_a_quarter_away_on_both_paths(d, monkeypatch):
    def programs(d):
        made = sampling_protocol_programs(d)
        made[0] = _CornerSkipsS()
        return made

    monkeypatch.setattr(separation, "sampling_protocol_programs", programs)
    target, law = exact_gamma(d), sampling_exact_law(d)
    as_dicts = [OutcomeDistribution(dict(g.items()), g.space) for g in (target, law)]
    assert tv_distance(target, law) == pytest.approx(0.25, abs=1e-12)
    assert tv_distance(*as_dicts) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("d", [2, 4])
def test_sampling_law_equals_the_reshaped_record_law(d):
    # the record path: run_exact's law of output tuples, each record joined
    # into one byte per node and split into (input bits, ring string)
    raw = run_exact(build_script_gd(d), lambda: sampling_protocol_programs(d), rounds=2)
    old = {}
    for record, p in raw.items():
        row = b"".join(record)
        assert len(row) == len(record) == 3 * d + 3
        key = (tuple(row[3 * d:]), tuple(row[:3 * d]))
        old[key] = old.get(key, 0.0) + p
    assert dict(sampling_exact_law(d).items()) == old


@pytest.mark.parametrize("d,T", [(4, 1), (8, 2), (12, 3)])
def test_packed_hits_equal_the_output_strings_in_the_supports(d, T):
    supports = [enumerate_support(d, b) for b in TRIPLES]
    strategies, coeffs = separation._strategy_table()
    assert strategies == tuple(all_affine_strategies())
    assert coeffs.tolist() == [list(s.even + s.right + s.bottom + s.left) for s in strategies]
    patterns = separation._hit_patterns(d)
    assert len(patterns) == len(strategies) == 512
    # no radius limits the family: the reference filter at budget T admits all
    assert all(_visible(d, 2 * T - 1, s) for s in strategies)
    for strategy, pattern in zip(strategies, patterns.tolist()):
        assert [bool(pattern >> j & 1) for j in range(8)] == [
            affine_output_string(d, strategy, b) in s for b, s in zip(TRIPLES, supports)
        ], strategy
    assert len(set(patterns.tolist())) > 1
