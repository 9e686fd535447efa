"""The experiment registry: one row function per desk-scale check.

`EXPERIMENTS` maps each experiment's name to its row function. A row is a
flat dict whose `ok` is the experiment's check: True exactly when the
reproduced number meets the paper's claim.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from . import affine, separation, verify
from .distributions import marginal, tv_distance
from .errors import ResourceLimitError
from .network import run, run_sampled
from .protocols import (
    GraphStateProgram,
    affine_strategy_programs,
    derandomize_function_protocol,
    k_copies_topology,
    relation_inputs,
    relation_protocol_programs,
)
from .topology import Topology, build_script_gd, check_count, input_nodes


def relation_validity(d, shots, seed):
    topology = build_script_gd(d)
    valid = 0
    total = 0
    for b in product((0, 1), repeat=3):
        outputs = run_sampled(
            topology,
            relation_protocol_programs(d),
            rounds=2,
            shots=shots,
            seed=seed,
            inputs=relation_inputs(d, b),
        )
        support = verify.enumerate_support(d, b)
        for out in outputs:
            outcome = tuple(out[i][0] for i in range(3 * d))
            valid += outcome in support
            total += 1
    return {
        "d": d,
        "shots": shots,
        "seed": seed,
        "valid": valid,
        "total": total,
        "ok": valid == total,
    }


def _lemma2():
    record = verify.lemma2_exhaustive()
    return {
        "admissible": record.admissible_combinations,
        "all_four": record.satisfying_all_four,
        "max_satisfied": record.max_equalities_satisfied,
        "ok": record.satisfying_all_four == 0,
    }


def _affine_bound():
    frac, witness = verify.best_affine_success()
    return {
        "best_success": str(frac),
        "witness_even": list(witness.even),
        "witness_right": list(witness.right),
        "witness_bottom": list(witness.bottom),
        "witness_left": list(witness.left),
        "ok": frac == Fraction(7, 8),
    }


def subgraph_fidelity_case(topology: Topology, assignment: dict):
    """Run the 2-round construction for one indicator assignment; returns
    (fidelity to the graph state of the kept edges, message-bearing rounds).

    The fidelity to |G> = U_G|0> is the probability of all zeros once
    U_G^dagger (CZ on the kept edges, then H on every node qubit) acts on
    the state the run built; an owner that is no node applies it. That law
    is uniform on origin xor span(columns), whose origin is 0 exactly when
    it holds all zeros.
    """
    programs = {u: GraphStateProgram() for u in topology.nodes}
    inputs = {u: bytes([assignment[u]]) for u in topology.nodes}
    result = run(topology, programs, rounds=2, inputs=inputs)
    arena = result.arena
    qubit = {u: programs[u].qubit for u in topology.nodes}
    owner = object()
    arena.transfer({q: owner for q in qubit.values()})
    for e in topology.edges:
        if all(assignment[u] for u in e):
            arena.apply(owner, 2, "CZ", [qubit[u] for u in e])
    for q in qubit.values():
        arena.apply(owner, 2, "H", [q])
    law = arena.state.generator_law(list(qubit.values()))
    fid = 0.0 if law.origin else 2.0 ** -law.dim
    return fid, result.message_rounds


def _subgraph_fidelity(d, shots, seed):
    topology = build_script_gd(d)
    nodes = list(topology.nodes)
    rng = np.random.default_rng(seed)
    if len(nodes) <= 10:
        assignments = [
            dict(zip(nodes, bits))
            for bits in product((0, 1), repeat=len(nodes))
        ]
    else:
        assignments = [
            {u: int(rng.integers(2)) for u in nodes} for _ in range(shots)
        ]
    min_fid = 1.0
    rounds_ok = True
    for assignment in assignments:
        fid, msg_rounds = subgraph_fidelity_case(topology, assignment)
        min_fid = min(min_fid, fid)
        rounds_ok = rounds_ok and msg_rounds == 2
    return {
        "d": d,
        "cases": len(assignments),
        "min_fidelity": min_fid,
        "two_rounds": rounds_ok,
        "ok": min_fid >= 1 - 1e-9 and rounds_ok,
    }


def _gamma_exact(d):
    target = separation.exact_gamma(d)
    protocol_law = separation.sampling_exact_law(d)
    tv = tv_distance(target, protocol_law)
    marg = [marginal(target, f"b{i}").probability(1) for i in range(3)]
    return {
        "d": d,
        "tv": tv,
        "b_marginals": marg,
        "ok": tv <= 1e-9 and all(abs(m - 0.5) <= 1e-12 for m in marg),
    }


def _tv_adversary(d, T):
    tv, witness = separation.min_tv_affine_adversary(d, T)
    return {
        "d": d,
        "T": T,
        "min_tv": tv,
        "witness_biases": list(witness.biases),
        "witness_even": list(witness.strategy.even),
        "ok": tv >= 1 / 11,
    }


def k_copies_success(d: int, k: int, strategy) -> Fraction:
    """Exact success fraction of the strategy replayed independently on k
    disjoint copies, over uniform input triples for every copy."""
    per_input = verify.strategy_success_by_input(d, strategy)
    single = Fraction(sum(per_input.values()), len(per_input))
    return single**k


def run_k_copies_protocol(topology, d: int, k: int, strategy, inputs_per_copy) -> bool:
    """One engine execution of the strategy on `k_copies_topology(d, k)`;
    True iff every copy's outcome string is valid for its input triple."""
    base = lambda: affine_strategy_programs(d, strategy, rounds=2)
    programs = {(c, u): p for c in range(k) for u, p in base().items()}
    inputs = {
        (c, w): bytes([bit])
        for c, b in enumerate(inputs_per_copy)
        for w, bit in zip(input_nodes(d), b)
    }
    result = run(topology, programs, rounds=2, inputs=inputs, classical_only=True)
    for c, b in enumerate(inputs_per_copy):
        outcome = tuple(result.outputs[(c, i)][0] for i in range(3 * d))
        if not verify.is_valid(d, b, outcome).in_support:
            return False
    return True


def k_copies(d, k):
    # one execution per input case: 3k input bits, held to the enumeration cap
    check_count("k", k, 1)
    if 3 * k > affine.MAX_ENUMERATED_BITS:
        cap = affine.MAX_ENUMERATED_BITS
        raise ResourceLimitError(f"8^{k} input cases exceed the enumeration cap of 2^{cap}")
    _, witness = verify.best_affine_success()
    predicted = k_copies_success(d, k, witness)
    topology = k_copies_topology(d, k)
    cases = product(product((0, 1), repeat=3), repeat=k)
    hits = sum(run_k_copies_protocol(topology, d, k, witness, c) for c in cases)
    measured = Fraction(hits, 8**k)
    return {
        "d": d,
        "k": k,
        "predicted": str(predicted),
        "measured": str(measured),
        "ok": measured == predicted == Fraction(7, 8) ** k,
    }


def xor_oracle(node, known):
    bit = 0
    for v in sorted(known, key=repr):
        bit ^= known[v]
    return {bit: 1.0}


def derandomize_demo():
    cycle = Topology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    programs_for = lambda: derandomize_function_protocol(cycle, xor_oracle, 2)
    cases = list(product((0, 1), repeat=4))
    correct = 0
    for bits in cases:
        inputs = {u: bytes([bits[u]]) for u in range(4)}
        result = run(
            cycle, programs_for(), rounds=2, inputs=inputs, classical_only=True
        )
        want = bits[0] ^ bits[1] ^ bits[2] ^ bits[3]
        correct += all(result.outputs[u] == bytes([want]) for u in range(4))
    return {
        "correct": correct,
        "total": len(cases),
        "ok": correct == len(cases),
    }


# name -> row function; the CLI reads the parameters off its signature
EXPERIMENTS = {
    "relation-validity": relation_validity,
    "lemma2": _lemma2,
    "affine-bound": _affine_bound,
    "subgraph-fidelity": _subgraph_fidelity,
    "gamma-exact": _gamma_exact,
    "tv-adversary": _tv_adversary,
    "k-copies": k_copies,
    "derandomize-demo": derandomize_demo,
}
