"""The gate table that the path-sum arena and the stabilizer tableau both
read, and the gate constructors the protocols build with.

The module keeps the name it had when it also held a dense statevector
engine, which now lives with the tests: the benchmark's tracer imports
`qlocal.statevector` by name, so the rename waits for a change to the tracer.
"""
from __future__ import annotations

from dataclasses import dataclass

from .topology import Topology

# The one gate table every engine reads: kind -> (arity, e). A phase gate
# multiplies every basis state whose target bits are all 1 by i^e; H and
# CNOT have no e.
GATES = {
    "H": (1, None),
    "CNOT": (2, None),
    "S": (1, 1),
    "CZ": (2, 2),
    "CS": (2, 1),
}


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple

    def __post_init__(self):
        if self.kind not in GATES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        targets = tuple(self.targets)
        object.__setattr__(self, "targets", targets)
        arity = GATES[self.kind][0]
        if len(targets) != arity:
            raise ValueError(f"{self.kind} expects {arity} targets")
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate targets in {self.kind}")


def h(q) -> Gate:
    return Gate("H", (q,))


def s(q) -> Gate:
    return Gate("S", (q,))


def cz(a, b) -> Gate:
    return Gate("CZ", (a, b))


def graph_state_gates(topology: Topology) -> list:
    """H on every node's qubit, then CZ across every edge.

    Qubit q holds the q-th node in ascending identifier order.
    """
    index = {u: q for q, u in enumerate(topology.nodes)}
    gates = [h(q) for q in range(topology.num_nodes)]
    for e in sorted(tuple(sorted(e)) for e in topology.edges):
        gates.append(cz(index[e[0]], index[e[1]]))
    return gates
