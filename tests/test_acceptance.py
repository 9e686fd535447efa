"""The ten headline checks. Each test records a one-line verdict that the
terminal summary prints, and fails if its criterion is not met at the
stated tolerance."""
import itertools

import numpy as np

from qlocal.experiments import (
    derandomize_demo,
    k_copies,
    relation_validity,
    subgraph_fidelity_case,
)
from qlocal.distributions import marginal, tv_distance
from qlocal.network import run, run_exact
from qlocal.protocols import (
    GraphStateSampleProgram,
    _FloodingProgram,
    affine_strategy_programs,
    relation_inputs,
)
from qlocal.separation import exact_gamma, min_tv_affine_adversary, sampling_exact_law
from qlocal.topology import Topology, build_script_gd, neighborhood
from qlocal.verify import (
    best_affine_success,
    check_prop1,
    enumerate_support,
    is_valid,
    lemma2_exhaustive,
    parities,
)


def _random_topology(rng, max_nodes=6):
    """A random connected graph on 2..max_nodes nodes."""
    n = int(rng.integers(2, max_nodes + 1))
    while True:
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        try:
            return Topology(range(n), edges)
        except ValueError:
            continue


def test_criterion_1_two_round_subgraph_construction(acceptance):
    g2 = build_script_gd(2)
    nodes = list(g2.nodes)
    min_fid = 1.0
    rounds_ok = True
    for bits in itertools.product((0, 1), repeat=len(nodes)):
        fid, msg_rounds = subgraph_fidelity_case(g2, dict(zip(nodes, bits)))
        min_fid = min(min_fid, fid)
        rounds_ok = rounds_ok and msg_rounds == 2
    rng = np.random.default_rng(2024)
    for _ in range(20):
        topo = _random_topology(rng, max_nodes=6)
        assignment = {u: int(rng.integers(2)) for u in topo.nodes}
        fid, msg_rounds = subgraph_fidelity_case(topo, assignment)
        min_fid = min(min_fid, fid)
        rounds_ok = rounds_ok and msg_rounds == 2
    ok = min_fid >= 1 - 1e-9 and rounds_ok
    acceptance(1, ok,
               f"2-round construction: min fidelity {min_fid:.2e} over 512 "
               f"ring assignments + 20 random graphs, 2 rounds: {rounds_ok}")


def test_criterion_2_quantum_relation_validity(acceptance):
    rows = [relation_validity(d, shots=500, seed=99) for d in (2, 4, 6)]
    ok = all(r["valid"] == r["total"] == 4000 for r in rows)
    detail = ", ".join(f"d={r['d']}: {r['valid']}/{r['total']}" for r in rows)
    acceptance(2, ok, f"quantum protocol validity ({detail})")


def test_criterion_3_parity_identities_hold_on_support(acceptance):
    checked = 0
    ok = True
    for d in (2, 4):
        for b in itertools.product((0, 1), repeat=3):
            for x in enumerate_support(d, b):
                ok = ok and check_prop1(b, parities(d, x))
                checked += 1
    acceptance(3, ok, f"parity identities exact on all {checked} support "
                      f"strings at d in {{2,4}}")


def test_criterion_4_no_affine_combination_satisfies_all_four(acceptance):
    record = lemma2_exhaustive()
    ok = (record.admissible_combinations == 512
          and record.satisfying_all_four == 0
          and record.max_equalities_satisfied == 3)
    acceptance(4, ok,
               f"{record.admissible_combinations} admissible combinations, "
               f"{record.satisfying_all_four} satisfy all four equalities, "
               f"max {record.max_equalities_satisfied}")


def test_criterion_5_best_affine_success_is_seven_eighths(acceptance):
    from fractions import Fraction

    frac, witness = best_affine_success()
    # replay the witness as an actual 2-round protocol and count inputs
    programs_for = lambda: affine_strategy_programs(4, witness, rounds=2)
    deterministic = all(p.randomness_bits == 0 for p in programs_for().values())
    wins = 0
    for b in itertools.product((0, 1), repeat=3):
        result = run(build_script_gd(4), programs_for(), rounds=2,
                     inputs=relation_inputs(4, b), classical_only=True)
        outcome = tuple(result.outputs[i][0] for i in range(12))
        wins += is_valid(4, b, outcome).in_support
    ok = frac == Fraction(7, 8) and wins == 7 and deterministic
    acceptance(5, ok,
               f"best affine success {frac}; replayed witness wins {wins}/8 "
               f"inputs deterministically (witness even={witness.even}, "
               f"right={witness.right}, bottom={witness.bottom}, "
               f"left={witness.left})")


def test_criterion_6_k_copies_amplification(acceptance):
    rows = [k_copies(4, k) for k in (1, 2, 3)]
    ok = all(r["ok"] for r in rows)
    detail = ", ".join(f"k={r['k']}: {r['measured']}" for r in rows)
    acceptance(6, ok, f"k-copy success exactly (7/8)^k ({detail})")


def test_criterion_7_gamma_cross_oracle_identity(acceptance):
    ok = True
    tvs = {}
    for d in (2, 4):
        target = exact_gamma(d)
        tv = tv_distance(target, sampling_exact_law(d))
        tvs[d] = tv
        ok = ok and tv <= 1e-9
        for i in range(3):
            m = marginal(target, f"b{i}").probability(1)
            ok = ok and abs(m - 0.5) <= 1e-12
    acceptance(7, ok,
               f"sampling law vs reference: tv(d=2)={tvs[2]:.1e}, "
               f"tv(d=4)={tvs[4]:.1e}; all bit marginals 1/2")


def test_criterion_8_adversary_family_tv_bound(acceptance):
    tv, witness = min_tv_affine_adversary(4, 1)
    ok = tv >= 1 / 11
    acceptance(8, ok,
               f"min adversary TV at (d=4, T=1) is {tv:.4f} >= 1/11 "
               f"(best biases {tuple(round(p, 3) for p in witness.biases)})")


class _XorFlood(_FloodingProgram):
    """Floods for T rounds, outputs the XOR of every input bit it has seen."""

    def _seed_known(self, ctx):
        return {ctx.self_id: ctx.input[0]} if ctx.input else {}

    def finalize(self, measured):
        bit = 0
        for v in self.known:
            bit ^= self.known[v]
        return bytes([bit])


def _node_output_laws(topology, make_programs, rounds, inputs):
    dist = run_exact(topology, make_programs, rounds, inputs=inputs)
    order = list(topology.nodes)
    return {u: marginal(dist, order.index(u)) for u in order}


def test_criterion_9_outputs_depend_only_on_the_t_neighborhood(acceptance):
    rng = np.random.default_rng(77)
    ok = True
    comparisons = 0
    for case in range(10):
        topo = _random_topology(rng, max_nodes=6)
        T = int(rng.integers(1, 3))
        if T == 2 and case % 2 == 0:
            make = lambda: {u: GraphStateSampleProgram() for u in topo.nodes}
            rounds = 2
        else:
            make = lambda: {u: _XorFlood(T) for u in topo.nodes}
            rounds = T
        base = {u: bytes([int(rng.integers(2))]) for u in topo.nodes}
        base_laws = _node_output_laws(topo, make, rounds, base)
        for v in topo.nodes:
            flipped = dict(base)
            flipped[v] = bytes([1 - flipped[v][0]])
            laws = _node_output_laws(topo, make, rounds, flipped)
            for u in topo.nodes:
                if v in neighborhood(topo, u, T):
                    continue
                ok = ok and tv_distance(base_laws[u], laws[u]) <= 1e-12
                comparisons += 1
    acceptance(9, ok,
               f"{comparisons} outside-neighborhood input flips left node "
               f"output laws unchanged within 1e-12 across 10 random cases")


def test_criterion_10_derandomized_xor_on_a_cycle(acceptance):
    row = derandomize_demo()
    acceptance(10, row["ok"],
               f"derandomized 2-round XOR on the 4-cycle correct on "
               f"{row['correct']}/{row['total']} inputs")
