"""Finite probability distributions over outcome records.

A distribution carries a `space` annotation describing its outcome schema;
two distributions are only comparable (total variation, cross-oracle tests)
when their spaces match.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .topology import check_even_d

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class OutcomeDistribution:
    entries: dict
    space: tuple

    def __post_init__(self):
        # written so that a NaN fails both checks
        for p in self.entries.values():
            if not p >= -_SUM_TOL:
                raise ValueError(f"probability {p} is negative or NaN")
        total = sum(self.entries.values())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def probability(self, key) -> float:
        return self.entries.get(key, 0.0)

    def items(self):
        return self.entries.items()

    def __len__(self):
        return len(self.entries)


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
        # written so that a NaN fails both checks
        if not ((probs >= -_SUM_TOL).all() and abs(probs.sum() - 1.0) <= 1e-9):
            raise ValueError(f"probabilities must be >= 0 and sum to 1, not {probs.sum()}")
        keys.flags.writeable = probs.flags.writeable = False
        self.d, self.space, self.keys, self.probs = d, ("gamma", d), keys, probs

    def items(self):
        """The ((b, x), probability) pairs, by key, without `entries`."""
        n = 3 * self.d
        bits = (self.keys[:, None] >> np.arange(n + 3)) & 1
        keys = zip(map(tuple, bits[:, n:].tolist()), map(tuple, bits[:, :n].tolist()))
        return zip(keys, self.probs.tolist())

    @cached_property
    def entries(self) -> dict:
        return dict(self.items())

    def probability(self, key) -> float:
        return self.entries.get(key, 0.0)

    def __len__(self):
        return len(self.keys)


def tv_distance(p: OutcomeDistribution | GammaLaw, q: OutcomeDistribution | GammaLaw) -> float:
    """Total variation distance: half the l1 distance over the joint support."""
    if p.space != q.space:
        raise ValueError(f"mismatched outcome spaces: {p.space!r} vs {q.space!r}")
    if isinstance(p, GammaLaw) and isinstance(q, GammaLaw):
        # each law's keys land at their places in the sorted union
        keys = np.union1d(p.keys, q.keys)
        gap = np.zeros(len(keys))
        gap[np.searchsorted(keys, p.keys)] = p.probs
        gap[np.searchsorted(keys, q.keys)] -= q.probs
        return 0.5 * float(np.abs(gap).sum())
    # one pass over p and one over q's other keys: each key is hashed twice
    p_entries, q_entries = p.entries, q.entries
    total = sum(abs(pk - q_entries.get(k, 0.0)) for k, pk in p_entries.items())
    total += sum(abs(qk) for k, qk in q_entries.items() if k not in p_entries)
    return 0.5 * total


def marginal(dist: OutcomeDistribution | GammaLaw, coordinate) -> OutcomeDistribution:
    """Exact projection of a distribution onto one record coordinate: an
    index into its keys, or one of a `GammaLaw`'s input bits "b0", "b1"
    and "b2"."""
    if isinstance(dist, GammaLaw) and coordinate in ("b0", "b1", "b2"):
        bits = (dist.keys >> 3 * dist.d + int(coordinate[1])) & 1
        sums = np.bincount(bits, weights=dist.probs, minlength=2)
        # only the values that occur, as the loop below gives them
        out = {c: float(sums[c]) for c in range(bits.min(), bits.max() + 1)}
    elif isinstance(coordinate, int):
        out = {}
        for key, prob in dist.entries.items():
            out[key[coordinate]] = out.get(key[coordinate], 0.0) + prob
    else:
        raise ValueError(f"coordinate {coordinate!r} not defined for space {dist.space!r}")
    return OutcomeDistribution(
        out, space=("marginal", dist.space, str(coordinate))
    )
