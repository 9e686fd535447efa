"""Finite probability distributions over outcome records.

A distribution carries a `space` annotation describing its outcome schema;
two distributions are only comparable (total variation, cross-oracle tests)
when their spaces match.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class OutcomeDistribution:
    entries: dict
    space: tuple
    kind: str = "exact"  # "exact" or "empirical"
    shots: int | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "empirical"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        for p in self.entries.values():
            if p < -_SUM_TOL:
                raise ValueError("negative probability")
        total = sum(self.entries.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def probability(self, key) -> float:
        return self.entries.get(key, 0.0)

    def items(self):
        return self.entries.items()

    def __len__(self):
        return len(self.entries)


def from_counts(counts: dict, space, shots=None) -> OutcomeDistribution:
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("empty count table")
    return OutcomeDistribution(
        {k: c / total for k, c in counts.items()},
        space=space,
        kind="empirical",
        shots=shots if shots is not None else total,
    )


def tv_distance(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Total variation distance: half the l1 distance over the joint support."""
    if p.space != q.space:
        raise ValueError(f"mismatched outcome spaces: {p.space!r} vs {q.space!r}")
    keys = set(p.entries) | set(q.entries)
    return 0.5 * sum(abs(p.probability(k) - q.probability(k)) for k in keys)


def _coordinate_getter(space, coordinate):
    if callable(coordinate):
        return coordinate
    if isinstance(coordinate, int):
        return lambda key: key[coordinate]
    if space and space[0] == "gamma":
        # keys are ((b0, b1, b2), (x_0, ..., x_{3d-1}))
        if coordinate in ("b0", "b1", "b2"):
            i = int(coordinate[1])
            return lambda key: key[0][i]
        if coordinate == "b":
            return lambda key: key[0]
        if coordinate == "x":
            return lambda key: key[1]
        if isinstance(coordinate, tuple) and coordinate[0] in ("b", "x"):
            part = 0 if coordinate[0] == "b" else 1
            i = coordinate[1]
            return lambda key: key[part][i]
    raise ValueError(f"coordinate {coordinate!r} not defined for space {space!r}")


def marginal(dist: OutcomeDistribution, coordinate) -> OutcomeDistribution:
    """Exact projection of a distribution onto one record coordinate."""
    getter = _coordinate_getter(dist.space, coordinate)
    out = {}
    for key, prob in dist.entries.items():
        c = getter(key)
        out[c] = out.get(c, 0.0) + prob
    return OutcomeDistribution(
        out,
        space=("marginal", dist.space, str(coordinate)),
        kind=dist.kind,
        shots=dist.shots,
    )


def _encode_key(key):
    if isinstance(key, bytes):
        return {"__bytes__": key.hex()}
    if isinstance(key, (tuple, list)):
        return [_encode_key(k) for k in key]
    return key


def _decode_key(obj):
    if isinstance(obj, dict) and "__bytes__" in obj:
        return bytes.fromhex(obj["__bytes__"])
    if isinstance(obj, list):
        return tuple(_decode_key(o) for o in obj)
    return obj


def save_distribution(dist: OutcomeDistribution, path):
    """Write a distribution as a schema header line plus one record per line."""
    with open(path, "w") as fh:
        header = {"space": _encode_key(dist.space), "kind": dist.kind}
        if dist.shots is not None:
            header["shots"] = dist.shots
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for key in sorted(dist.entries, key=repr):
            fh.write(
                json.dumps(_encode_key(key)) + "\t" + repr(dist.entries[key]) + "\n"
            )


def load_distribution(path) -> OutcomeDistribution:
    with open(path) as fh:
        header = json.loads(fh.readline())
        entries = {}
        for line in fh:
            if not line.strip():
                continue
            key_json, prob = line.rstrip("\n").split("\t")
            entries[_decode_key(json.loads(key_json))] = float(prob)
    return OutcomeDistribution(
        entries,
        space=_decode_key(header["space"]),
        kind=header["kind"],
        shots=header.get("shots"),
    )
