"""Exact laws for the sampling separation.

The target law pairs three unbiased input bits with the ring measurement
outcome of the process run on those bits, which is uniform on the affine
support S_b that `verify.enumerate_support` gives. Both it and the
distributed protocol's law are `GammaLaw`s, arrays of packed (b, x) keys.
A classical adversary from the lower bound's family draws the bit triple
from a product distribution and emits a deterministic affine outcome
string per triple; its minimum total variation distance to the target is
1 minus the largest mass Γ gives the strings a strategy outputs.
"""
from __future__ import annotations

import math
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

    The family: the input bits are drawn with any product bias, and the
    outcome string is an admissible affine strategy whose terms only use
    bits visible within ring distance 2T-1 of their corner. Every
    nonconstant slot of `_carrier_slots` sits within one hop of its corner
    and 2T-1 >= 1, so all 512 strategies take part and T is only checked.

    A strategy outputs one string per triple b, which the adversary gives
    probability q_b and Γ gives γ_b: m_b = 2^-dim(S_b)/8 on a hit (the
    string is in S_b, by `_hit_patterns`) and 0 off one. Its distance
    1/2 [1 - Σ γ_b + Σ |q_b - γ_b|] is >= 1 - Σ γ_b, with equality when
    every q_b >= γ_b, as at uniform biases, where q_b = 1/8 > m_b. So the
    minimum is 1 minus the largest hit mass, at biases (1/2, 1/2, 1/2), and
    Γ is never built. Masses are compared as integers in units of
    2^-(max dim + 3), so the witness, the first strategy in
    `all_affine_strategies` order with the largest mass, is a true
    maximizer where float masses round away. Returns (min tv, witness).
    """
    check_even_d(d)
    check_count("round budget", T, 1)
    if T > d // 4:
        raise ValueError(f"T={T} exceeds d/4={d // 4}")
    strategies, _ = _strategy_table()
    dims = [enumerate_support(d, b).dim for b in _B_TRIPLES]
    top = max(dims)
    hits = (_hit_patterns(d)[:, None] >> np.arange(8)) & 1
    scores = hits @ np.array([1 << top - dim for dim in dims])
    s = int(np.argmax(scores))
    tv = 1.0 - math.ldexp(int(scores[s]), -(top + 3))
    return tv, AdversaryWitness(strategies[s], (0.5, 0.5, 0.5))
