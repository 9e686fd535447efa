"""Finite probability distributions over outcome records.

A distribution carries a `space` annotation describing its outcome schema;
two distributions are only comparable (total variation, cross-oracle tests)
when their spaces match.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def tv_distance(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Total variation distance: half the l1 distance over the joint support."""
    if p.space != q.space:
        raise ValueError(f"mismatched outcome spaces: {p.space!r} vs {q.space!r}")
    # one pass over p and one over q's other keys: each key is hashed twice
    p_entries, q_entries = p.entries, q.entries
    total = sum(abs(pk - q_entries.get(k, 0.0)) for k, pk in p_entries.items())
    total += sum(abs(qk) for k, qk in q_entries.items() if k not in p_entries)
    return 0.5 * total


def _coordinate_getter(space, coordinate):
    if isinstance(coordinate, int):
        return lambda key: key[coordinate]
    if space and space[0] == "gamma":
        # keys are ((b0, b1, b2), (x_0, ..., x_{3d-1}))
        if coordinate in ("b0", "b1", "b2"):
            i = int(coordinate[1])
            return lambda key: key[0][i]
    raise ValueError(f"coordinate {coordinate!r} not defined for space {space!r}")


def marginal(dist: OutcomeDistribution, coordinate) -> OutcomeDistribution:
    """Exact projection of a distribution onto one record coordinate."""
    getter = _coordinate_getter(dist.space, coordinate)
    out = {}
    for key, prob in dist.entries.items():
        c = getter(key)
        out[c] = out.get(c, 0.0) + prob
    return OutcomeDistribution(
        out, space=("marginal", dist.space, str(coordinate))
    )
