"""Network topologies: undirected graphs with node identifiers.

Includes the ring and augmented-ring generators used by the separation
experiments.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Topology:
    """An undirected graph. Nodes are hashable, sortable identifiers."""

    nodes: tuple
    edges: frozenset  # frozenset of frozenset pairs
    allow_disconnected: bool = False
    _neighbors: dict = field(default_factory=dict, repr=False, compare=False)

    def __init__(self, nodes, edges, allow_disconnected=False):
        nodes = tuple(nodes)
        node_list = sorted(set(nodes))
        if len(node_list) != len(nodes):
            raise ValueError("duplicate node identifiers")
        node_set = set(node_list)
        edge_set = set()
        for e in edges:
            a, b = e
            if a == b:
                raise ValueError(f"self-loop at node {a!r}")
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge {e!r} references an unknown node")
            edge_set.add(frozenset((a, b)))
        object.__setattr__(self, "nodes", tuple(node_list))
        object.__setattr__(self, "edges", frozenset(edge_set))
        object.__setattr__(self, "allow_disconnected", allow_disconnected)
        neighbors = {u: set() for u in node_list}
        for e in edge_set:
            a, b = sorted(e)
            neighbors[a].add(b)
            neighbors[b].add(a)
        object.__setattr__(
            self, "_neighbors", {u: frozenset(vs) for u, vs in neighbors.items()}
        )
        if not allow_disconnected and not self.is_connected():
            raise ValueError(
                "disconnected topology (pass allow_disconnected=True to override)"
            )

    @property
    def num_nodes(self):
        return len(self.nodes)

    def neighbors(self, u) -> frozenset:
        return self._neighbors[u]

    def has_node(self, u) -> bool:
        return u in self._neighbors

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        ball = neighborhood(self, self.nodes[0], len(self.nodes))
        return len(ball) == len(self.nodes)


def neighborhood(topology: Topology, u, r: int) -> set:
    """All nodes within BFS distance `r` of node `u`."""
    if not topology.has_node(u):
        raise ValueError(f"unknown node {u!r}")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    ball = {u}
    frontier = {u}
    for _ in range(r):
        frontier = {
            v for f in frontier for v in topology.neighbors(f) if v not in ball
        }
        if not frontier:
            break
        ball |= frontier
    return ball


def is_count(value, minimum) -> bool:
    """The one integer rule for d, round counts, shots and randomness
    widths: an int, or anything else with `__index__` (a numpy integer),
    at least `minimum`. A bool, a float or a string is not a count."""
    return type(value) is not bool and hasattr(type(value), "__index__") and value >= minimum


def check_count(name, value, minimum):
    if not is_count(value, minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_even_d(d):
    if not is_count(d, 2) or d % 2 != 0:
        raise ValueError(f"d must be an even integer >= 2, got {d}")


def build_gd(d: int) -> Topology:
    """The ring of 3d nodes labelled 0 .. 3d-1 (node i is v_i)."""
    check_even_d(d)
    n = 3 * d
    return Topology(range(n), [(i, (i + 1) % n) for i in range(n)])


def build_script_gd(d: int) -> Topology:
    """The ring plus one degree-1 input node per corner.

    Input node w_i has identifier 3d + i and is attached to corner v_{d*i}.
    """
    check_even_d(d)
    n = 3 * d
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(3 * d + i, d * i) for i in range(3)]
    return Topology(range(n + 3), edges)


def corner_nodes(d: int) -> tuple:
    return (0, d, 2 * d)


def input_nodes(d: int) -> tuple:
    return (3 * d, 3 * d + 1, 3 * d + 2)


def ring_distance(d: int, i: int, j: int) -> int:
    """Distance between labels i and j along the 3d-ring."""
    n = 3 * d
    delta = abs(i - j) % n
    return min(delta, n - delta)


def disjoint_copies(topology: Topology, k: int) -> Topology:
    """k disjoint copies; node u of copy c becomes (c, u)."""
    check_count("k", k, 1)
    nodes = [(c, u) for c in range(k) for u in topology.nodes]
    edges = [
        ((c, a), (c, b))
        for c in range(k)
        for a, b in (sorted(e) for e in topology.edges)
    ]
    return Topology(nodes, edges, allow_disconnected=True)
