"""The benchmark's three workloads, each one checked unit of the paper's work
per item, done through qlocal's public functions.

A workload's constructor is its set-up: it builds the inputs and fills the
support oracle (in the run's own cache directory) and the affine witness
that the items need. `plan(seed)` yields the arguments of successive items;
`item(args)` runs one and returns the problems its checks found.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count, product

import numpy as np

import checks
from qlocal import distributions, network, protocols, separation, topology, verify


class RelationD6:
    """One 2-round quantum relation execution at d=6 per item, 500 shots,
    the input triple cycling through all eight in a seeded order."""

    d = 6
    shots = 500

    def __init__(self):
        self.topology = topology.build_script_gd(self.d)
        self.setup_problems = []
        for b in checks.TRIPLES:
            verify.enumerate_support(self.d, b)

    def plan(self, seed: int):
        rng = np.random.default_rng(seed)
        order = [checks.TRIPLES[i] for i in rng.permutation(len(checks.TRIPLES))]
        for i in count():
            yield order[i % len(order)], int(rng.integers(2**31))

    def item(self, args) -> list:
        b, shot_seed = args
        d = self.d
        outputs = network.run_sampled(
            self.topology,
            protocols.relation_protocol_programs(d),
            rounds=2,
            shots=self.shots,
            seed=shot_seed,
            inputs=protocols.relation_inputs(d, b),
        )
        outcomes = [tuple(out[i][0] for i in range(3 * d)) for out in outputs]
        bad = checks.bad_shots(d, b, outcomes, verify.enumerate_support(d, b))
        return [f"{bad} of {len(outcomes)} shots invalid for b={b}"] if bad else []


class KCopiesD4:
    """The best affine strategy as a 2-round classical protocol on 3 disjoint
    copies of the d=4 augmented ring, over all 512 input combinations."""

    d = 4
    k = 3

    def __init__(self):
        d, k = self.d, self.k
        self.topology = protocols.k_copies_topology(d, k)
        self.input_nodes = topology.input_nodes(d)
        self.combos = list(product(checks.TRIPLES, repeat=k))
        frac, self.witness = verify.best_affine_success()
        self.setup_problems = [] if frac == Fraction(7, 8) else [f"best affine success {frac}"]
        for b in checks.TRIPLES:
            verify.enumerate_support(d, b)

    def plan(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield [self.combos[i] for i in rng.permutation(len(self.combos))]

    def item(self, combos) -> list:
        d, k = self.d, self.k
        all_valid = 0
        disagreements = 0
        for triples in combos:
            programs = {}
            for c in range(k):
                for u, p in protocols.affine_strategy_programs(d, self.witness, rounds=2).items():
                    programs[(c, u)] = p
            inputs = {
                (c, w): bytes([bit])
                for c, b in enumerate(triples)
                for w, bit in zip(self.input_nodes, b)
            }
            result = network.run(
                self.topology, programs, rounds=2, inputs=inputs, classical_only=True
            )
            outcomes = [
                tuple(result.outputs[(c, i)][0] for i in range(3 * d)) for c in range(k)
            ]
            verdicts = [
                verify.is_valid(d, b, x).in_support for b, x in zip(triples, outcomes)
            ]
            disagreements += checks.copy_disagreements(d, triples, outcomes, verdicts)
            all_valid += all(verdicts)
        return checks.k_copies_problems(k, all_valid, disagreements)


class ExactLawsD4:
    """One gamma-exact and one tv-adversary row at d=4, T=1. The laws are
    exact, so the seed changes nothing."""

    d = 4
    T = 1

    def __init__(self):
        self.setup_problems = []

    def plan(self, seed: int):
        while True:
            yield None

    def item(self, _) -> list:
        d = self.d
        target = separation.exact_gamma(d)
        law = separation.sampling_exact_law(d)
        tv = distributions.tv_distance(target, law)
        marginals = [distributions.marginal(target, f"b{i}").probability(1) for i in range(3)]
        min_tv, _ = separation.min_tv_affine_adversary(d, self.T)
        return checks.exact_row_problems(d, target.items(), tv, marginals, min_tv)


WORKLOADS = {
    "relation-d6": RelationD6,
    "k-copies-d4": KCopiesD4,
    "exact-laws-d4": ExactLawsD4,
}
