"""Finite probability distributions over outcome records.

A distribution carries a `space` annotation describing its outcome schema;
two distributions are only comparable (total variation, cross-oracle tests)
when their spaces match.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import check_even_d, is_count

_SUM_TOL = 1e-12


def _check_probabilities(probs):
    # written so that a NaN fails
    if not ((probs >= -_SUM_TOL).all() and abs(probs.sum() - 1.0) <= 1e-9):
        raise ValueError(f"probabilities must be >= 0 and sum to 1, not {probs.sum()}")


@dataclass(frozen=True)
class OutcomeDistribution:
    entries: dict
    space: tuple

    def __post_init__(self):
        _check_probabilities(np.fromiter(self.entries.values(), float, len(self.entries)))

    def probability(self, key) -> float:
        return self.entries.get(key, 0.0)

    def items(self):
        return self.entries.items()


class GammaLaw:
    """A law on ("gamma", d), outcomes (b, x) with b the three input bits and
    x the 3d ring bits. Each is one int64 key whose bit j is node j's output
    in `build_script_gd`'s order: x_i at bit i, b_i at bit 3d + i. `keys`
    ascend strictly; they and `probs` are aligned read-only copies."""

    def __init__(self, d: int, keys, probs):
        check_even_d(d)
        keys, probs = np.array(keys), np.array(probs, dtype=float)
        if keys.dtype != np.int64 or keys.ndim != 1 or keys.shape != probs.shape:
            raise ValueError("keys must be int64, aligned with probs in one dimension")
        if not (keys[1:] > keys[:-1]).all():
            raise ValueError("keys must be strictly ascending")
        _check_probabilities(probs)
        if not (keys[0] >= 0 and int(keys[-1]) >> 3 * d + 3 == 0):
            raise ValueError(f"keys must lie in [0, 2^{3 * d + 3})")
        keys.flags.writeable = probs.flags.writeable = False
        self.d, self.space, self.keys, self.probs = d, ("gamma", d), keys, probs

    def items(self):
        """The ((b, x), probability) pairs, by ascending key. Each distinct
        x and b is decoded once, and the pairs share that one tuple."""
        n = 3 * self.d
        rings, ring_at = np.unique(self.keys & (1 << n) - 1, return_inverse=True)
        xs = list(map(tuple, ((rings[:, None] >> np.arange(n)) & 1).tolist()))
        bs = [tuple(b >> i & 1 for i in range(3)) for b in range(8)]
        keys = zip(map(bs.__getitem__, (self.keys >> n).tolist()),
                   map(xs.__getitem__, ring_at.tolist()))
        return zip(keys, self.probs.tolist())


def tv_distance(p: OutcomeDistribution | GammaLaw, q: OutcomeDistribution | GammaLaw) -> float:
    """Total variation distance: half the l1 distance over the joint support."""
    if p.space != q.space:
        raise ValueError(f"mismatched outcome spaces: {p.space!r} vs {q.space!r}")
    if type(p) is not type(q):
        raise ValueError(f"laws of two types: {type(p).__name__} and {type(q).__name__}")
    if isinstance(p, GammaLaw):
        # both key arrays ascend: each q key's place in p's, and whether it is there
        at = np.minimum(np.searchsorted(p.keys, q.keys), len(p.keys) - 1)
        hit = p.keys[at] == q.keys
        gap = p.probs.copy()
        gap[at[hit]] -= q.probs[hit]
        return 0.5 * float(np.abs(gap).sum() + q.probs[~hit].sum())
    # one pass over p and one over q's other keys: each key is hashed twice
    p_entries, q_entries = p.entries, q.entries
    total = sum(abs(pk - q_entries.get(k, 0.0)) for k, pk in p_entries.items())
    total += sum(abs(qk) for k, qk in q_entries.items() if k not in p_entries)
    return 0.5 * total


def marginal(dist: OutcomeDistribution | GammaLaw, coordinate) -> OutcomeDistribution:
    """Exact projection of a distribution onto one record coordinate: one
    of a `GammaLaw`'s input bits "b0", "b1" and "b2", or an index (an
    integer by `is_count`) into every key of an `OutcomeDistribution`."""
    if isinstance(dist, GammaLaw) and coordinate in ("b0", "b1", "b2"):
        bits = (dist.keys >> 3 * dist.d + int(coordinate[1])) & 1
        sums = np.bincount(bits, weights=dist.probs, minlength=2)
        # only the values that occur, as the loop below gives them
        out = {c: float(sums[c]) for c in range(bits.min(), bits.max() + 1)}
    elif isinstance(dist, OutcomeDistribution) and is_count(coordinate, 0) and all(
        coordinate < len(key) for key in dist.entries
    ):
        out = {}
        for key, prob in dist.entries.items():
            out[key[coordinate]] = out.get(key[coordinate], 0.0) + prob
    else:
        raise ValueError(f"coordinate {coordinate!r} not defined for space {dist.space!r}")
    return OutcomeDistribution(
        out, space=("marginal", dist.space, str(coordinate))
    )
