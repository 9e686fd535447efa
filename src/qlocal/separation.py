"""Exact laws for the sampling separation.

The target law pairs three unbiased input bits with the ring measurement
outcome of the process run on those bits, which is uniform on the affine
support S_b that `verify.enumerate_support` gives. A classical adversary
from the lower bound's family draws the bit triple from a product
distribution and emits a deterministic affine outcome string per triple;
the search returns the family's minimum total variation distance to the
target.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .distributions import OutcomeDistribution
from .network import run_exact
from .protocols import (
    AffineStrategy,
    _carrier_output_string,
    affine_carrier_terms,
    all_affine_strategies,
    sampling_protocol_programs,
)
from .topology import build_script_gd, ring_distance
from .verify import enumerate_support

_B_TRIPLES = tuple(product((0, 1), repeat=3))


def gamma_space(d: int) -> tuple:
    return ("gamma", d)


def exact_gamma(d: int) -> OutcomeDistribution:
    """The target joint law Γ = (1/8) Σ_b U(S_b), keyed by
    ((b0,b1,b2), (x_0..x_{3d-1})). The dict holds every support string,
    786,432 at d=6, so d is capped there."""
    if d > 6:
        raise ValueError("exact target law capped at d=6 by the size of its dict")
    entries = {}
    for b in _B_TRIPLES:
        support = enumerate_support(d, b)
        p = 2.0**-support.dim / 8
        for x in support:
            entries[(b, x)] = p
    return OutcomeDistribution(entries, space=gamma_space(d))


def sampling_exact_law(d: int) -> OutcomeDistribution:
    """Exact output law of the distributed 2-round sampling protocol,
    reshaped into the same outcome space as `exact_gamma`.

    This is the independent oracle for the cross-check: the engine
    enumerates the three randomness bits and the terminal measurement,
    knowing nothing about the centralized process.
    """
    topology = build_script_gd(d)
    raw = run_exact(
        topology, lambda: sampling_protocol_programs(d), rounds=2
    )
    entries = {}
    for record, p in raw.items():
        # node order is 0..3d-1 then the three input nodes, one byte each:
        # the outputs are at least one byte and n of them join to n bytes
        row = b"".join(record)
        if len(row) != len(record) or min(map(len, record)) != 1:
            raise ValueError(f"sampling outputs must be one byte each, got {record!r}")
        key = (tuple(row[3 * d:]), tuple(row[:3 * d]))
        entries[key] = entries.get(key, 0.0) + p
    return OutcomeDistribution(entries, space=gamma_space(d))


@dataclass(frozen=True)
class AdversaryWitness:
    strategy: AffineStrategy
    biases: tuple
    tv: float


def _visible_strategies(d: int, radius: int):
    """(strategy, carrier terms) for the strategies whose every nonconstant
    term sits on a node within the given ring distance of the corner holding
    that input bit."""
    for strategy in all_affine_strategies():
        carriers = affine_carrier_terms(d, strategy)
        if all(
            ring_distance(d, node, d * origin) <= radius
            for node, (_, coeffs) in carriers.items()
            for origin in coeffs
        ):
            yield strategy, carriers


def min_tv_affine_adversary(d: int, T: int):
    """Minimum total variation distance between the target law and the
    lower bound's classical adversary family at round budget T.

    The family: each input bit is drawn with a bias from the 1/22-step
    grid, and the outcome string is an admissible affine strategy whose
    terms only use bits visible within ring distance 2T-1 of their corner.
    Γ's eight point probabilities per strategy come from the supports, so
    Γ is never built and any even d with T <= d/4 runs. They depend on the
    strategy only through its hit pattern, which triples b it outputs a
    string of S_b on, so the bias grid runs once per distinct pattern (at
    most 256). Strategies are taken in order and a later one replaces the
    witness only at a strictly smaller distance.
    Returns (min tv, witness).
    """
    if T < 1:
        raise ValueError("round budget must be at least 1")
    if T > d // 4:
        raise ValueError(f"T={T} exceeds d/4={d // 4}")
    # Γ puts 2^-dim/8 on each string of S_b, so each branch has mass 1/8
    supports = [(b, enumerate_support(d, b)) for b in _B_TRIPLES]
    grid = np.arange(23) / 22.0  # steps of 1/22: 5/11 and 6/11 are on it
    b_arr = np.array(_B_TRIPLES, dtype=float)  # (8, 3)
    # q[g, j] = probability the g-th bias combo assigns to triple j
    combos = np.stack(
        np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    q = np.prod(
        np.where(b_arr[None, :, :] == 1.0, combos[:, None, :],
                 1.0 - combos[:, None, :]),
        axis=2,
    )
    best = None
    searched = {}  # hit pattern -> (grid index, tv)
    for strategy, carriers in _visible_strategies(d, 2 * T - 1):
        hits = tuple(
            _carrier_output_string(d, carriers, b) in s for b, s in supports
        )
        if hits not in searched:
            gamma_hits = np.array(
                [2.0**-s.dim / 8 if hit else 0.0 for hit, (_, s) in zip(hits, supports)]
            )
            # per bias combo: tv = 1/2 [ sum_b |q_b - gamma_b| + (1 - sum_b gamma_b) ]
            tvs = 0.5 * (
                np.abs(q - gamma_hits[None, :]).sum(axis=1) + 1.0 - gamma_hits.sum()
            )
            g = int(np.argmin(tvs))
            searched[hits] = g, float(tvs[g])
        g, tv = searched[hits]
        if best is None or tv < best.tv:
            best = AdversaryWitness(strategy, tuple(float(p) for p in combos[g]), tv)
    return best.tv, best
