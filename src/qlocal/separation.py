"""Exact laws for the sampling separation.

The target law pairs three unbiased input bits with the ring measurement
outcome of the process run on those bits, which is uniform on the affine
support S_b that `verify.enumerate_support` gives. Both it and the
distributed protocol's law are `GammaLaw`s, arrays of packed (b, x) keys.
A classical adversary from the lower bound's family draws the bit triple
from a product distribution and emits a deterministic affine outcome
string per triple; the search returns the family's minimum total
variation distance to the target.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .distributions import GammaLaw
from .network import _exact_branches
from .protocols import (
    AffineStrategy,
    _carrier_slots,
    _coefficient_bits,
    all_affine_strategies,
    sampling_protocol_programs,
)
from .topology import build_script_gd, check_count, check_even_d
from .verify import enumerate_support

_B_TRIPLES = tuple(product((0, 1), repeat=3))


def exact_gamma(d: int) -> GammaLaw:
    """The target joint law Γ = (1/8) Σ_b U(S_b): each string of S_b, with
    b's bits above it, has probability 2^-dim(S_b)/8. Γ holds every support
    string, 786,432 at d=6 and about 50 M at d=8, so d is capped at 6,
    after the even-d check."""
    check_even_d(d)
    if d > 6:
        raise ValueError("exact target law capped at d=6: at d=8, Γ alone has about 50 M keys")
    keys, probs = [], []
    for packed in range(8):  # b ascending as the key's top bits read it
        support = enumerate_support(d, tuple(packed >> i & 1 for i in range(3)))
        keys.append(support.keys() | packed << 3 * d)
        probs.append(np.full(len(keys[-1]), 2.0**-support.dim / 8))
    return GammaLaw(d, np.concatenate(keys), np.concatenate(probs))


def sampling_exact_law(d: int) -> GammaLaw:
    """Exact output law of the distributed 2-round sampling protocol: each
    randomness branch ORs node j's output bit over its outcomes into key
    bit j, packed as `exact_gamma`'s keys are, and equal keys add up in
    branch and outcome order.

    This is the independent oracle for the cross-check: the engine
    enumerates the three randomness bits and the terminal measurement,
    knowing nothing about the centralized process.
    """
    keys, probs = [], []
    topology, programs = build_script_gd(d), lambda: sampling_protocol_programs(d)
    for weight, p, columns in _exact_branches(topology, programs, 2, None):
        # node order is 0..3d-1 then the three input nodes, one bit each
        key = np.zeros(len(p), dtype=np.int64)
        for j, (table, index) in enumerate(columns):
            if any(out not in (b"\x00", b"\x01") for out in table):
                raise ValueError(f"sampling outputs must be one byte each, 0 or 1, got {table!r}")
            outs = np.frombuffer(b"".join(table), dtype=np.uint8).astype(np.int64) << j
            key |= outs[0] if index is None else outs[index]
        keys.append(key)
        probs.append(weight * p)
    keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    return GammaLaw(d, keys, np.bincount(inverse, weights=np.concatenate(probs)))


@dataclass(frozen=True)
class AdversaryWitness:
    strategy: AffineStrategy
    biases: tuple


@cache
def _strategy_table():
    """Every admissible strategy in `all_affine_strategies` order, and its
    coefficient bits as one row of a 512 x 13 0/1 matrix."""
    strategies = tuple(all_affine_strategies())
    coeffs = np.array([_coefficient_bits(s) for s in strategies])
    coeffs.flags.writeable = False
    return strategies, coeffs


@cache
def _bias_table():
    """The 1/22-step bias grid and q, where q[g, j] is the probability that
    the g-th bias triple (grid indices in C order) gives triple j."""
    grid = np.arange(23) / 22.0  # steps of 1/22: 5/11 and 6/11 are on it
    sides = (1.0 - grid, grid)
    q = np.stack([
        np.multiply.outer(np.multiply.outer(sides[b0], sides[b1]), sides[b2]).ravel()
        for b0, b1, b2 in _B_TRIPLES
    ], axis=1)
    q.flags.writeable = False
    return grid, q


def _hit_patterns(d: int) -> np.ndarray:
    """For each strategy of `_strategy_table`, its hit pattern: bit j is
    set when its output string on the j-th triple b is in S_b.

    A strategy's output string is the XOR of the unit outputs of the
    `_carrier_slots` its 13 coefficient bits set, each one bit at its node;
    a check x . mask = sign of S_b then holds for every strategy at once
    when (coeffs @ P_b) % 2 == signs, with P_b the checks' parities on the
    13 unit outputs.
    """
    _, coeffs = _strategy_table()
    slots = _carrier_slots(d)
    patterns = np.zeros(len(coeffs), dtype=np.int64)
    for j, b in enumerate(_B_TRIPLES):
        outputs = [(origin is None or b[origin]) << node for node, origin in slots]
        checks = enumerate_support(d, b).checks
        parity = np.array([[(x & m).bit_count() & 1 for m, _ in checks] for x in outputs])
        signs = np.array([sign for _, sign in checks])
        hit = ((coeffs @ parity) % 2 == signs).all(axis=1)
        patterns |= hit.astype(np.int64) << j
    return patterns


def min_tv_affine_adversary(d: int, T: int):
    """Minimum total variation distance between the target law and the
    lower bound's classical adversary family at round budget T.

    The family: each input bit is drawn with a bias from the 1/22-step
    grid, and the outcome string is an admissible affine strategy whose
    terms only use bits visible within ring distance 2T-1 of their corner.
    That never restricts it: every nonconstant slot of `_carrier_slots`
    sits within one hop of its corner and 2T-1 >= 1, so all 512 strategies
    take part and the result does not depend on T, which is only checked.
    Γ's eight point probabilities per strategy come from the supports, so
    Γ is never built and any even d with T <= d/4 runs. They depend on the
    strategy only through its hit pattern, which triples b it outputs a
    string of S_b on. The 512 patterns come from one GF(2) product of the
    coefficient matrix with each S_b's parity checks (`_hit_patterns`), and
    the bias grid runs once per distinct pattern (at most 256). The witness
    is the first strategy, in `all_affine_strategies` order, at the minimum.
    Returns (min tv, witness).
    """
    check_even_d(d)
    check_count("round budget", T, 1)
    if T > d // 4:
        raise ValueError(f"T={T} exceeds d/4={d // 4}")
    strategies, _ = _strategy_table()
    grid, q = _bias_table()
    patterns = _hit_patterns(d)
    # Γ puts 2^-dim/8 on each string of S_b, so each branch has mass 1/8
    masses = [2.0**-enumerate_support(d, b).dim / 8 for b in _B_TRIPLES]
    tvs = np.empty(len(strategies))
    best_g = {}  # hit pattern -> grid index of its minimum
    # column b of the gap is |q_b - m_b| on a hit and |q_b - 0.0| = q_b off one
    q_cols = np.ascontiguousarray(q.T)
    hit_cols = np.abs(q_cols - np.array(masses)[:, None])
    for pattern in np.unique(patterns).tolist():
        gamma_hits = np.array([m if pattern >> j & 1 else 0.0 for j, m in enumerate(masses)])
        c = [hit_cols[j] if pattern >> j & 1 else q_cols[j] for j in range(8)]
        # per bias triple: tv = 1/2 [ sum_b |q_b - gamma_b| + (1 - sum_b gamma_b) ],
        # the sum in the pairwise order np.sum takes over a row of 8
        gap = ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
        scan = 0.5 * (gap + 1.0 - gamma_hits.sum())
        g = best_g[pattern] = int(np.argmin(scan))
        tvs[patterns == pattern] = scan[g]
    s = int(np.argmin(tvs))
    tv = float(tvs[s])
    g = best_g[int(patterns[s])]
    biases = tuple(float(grid[i]) for i in np.unravel_index(g, (len(grid),) * 3))
    return tv, AdversaryWitness(strategies[s], biases)
