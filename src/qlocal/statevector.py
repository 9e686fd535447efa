"""The gate table that the path-sum arena, the stabilizer tableau and the
dense test reference all read, and the one check of a gate. A gate is a
pair `(kind, targets)`: a kind of `GATES` and a sequence of qubits.

The module keeps the name it had when it also held a dense statevector
engine, which now lives with the tests: the benchmark's tracer imports
`qlocal.statevector` by name, so the rename waits for a change to the tracer.
"""
from __future__ import annotations

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


def check_gate(kind, targets):
    """The one gate check, for every engine that takes `(kind, targets)`: a
    kind of `GATES` on a sequence of as many distinct targets as its arity."""
    if kind not in GATES:
        raise ValueError(f"unknown gate kind {kind!r}")
    arity = GATES[kind][0]
    try:
        count = len(targets)
    except TypeError:
        raise ValueError(f"{kind} targets must be a sequence, got {targets!r}") from None
    if count != arity:
        raise ValueError(f"{kind} expects {arity} targets")
    if len(set(targets)) != arity:
        raise ValueError(f"duplicate targets in {kind}")


def graph_state_gates(topology: Topology) -> list:
    """H on every node's qubit, then CZ across every edge.

    Qubit q holds the q-th node in ascending identifier order.
    """
    index = {u: q for q, u in enumerate(topology.nodes)}
    gates = [("H", (q,)) for q in range(topology.num_nodes)]
    edges = sorted(tuple(sorted(e)) for e in topology.edges)
    return gates + [("CZ", (index[a], index[b])) for a, b in edges]
