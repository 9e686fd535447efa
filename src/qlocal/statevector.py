"""Exact dense statevector engine: the reference the tests compare the
arena and the stabilizer tableau against, capped at DEFAULT_MAX_QUBITS.

Gate set: the kinds in `GATES` (H, CNOT and the phase gates S, CZ and
CS). Qubit q corresponds to axis q of the amplitude tensor reshaped to
[2]*n, i.e. bit q of a basis index read in big-endian order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import OutcomeDistribution
from .errors import ResourceLimitError
from .topology import Topology

DEFAULT_MAX_QUBITS = 26
# An amplitude within PRUNE_TOL of zero is rounding noise; the exact law
# drops its entry.
PRUNE_TOL = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# The one gate table both engines dispatch on: kind -> (arity, phase). A
# phase gate multiplies every basis state whose target bits are all 1 by its
# phase; H and CNOT have none.
GATES = {
    "H": (1, None),
    "CNOT": (2, None),
    "S": (1, 1j),
    "CZ": (2, -1.0),
    "CS": (2, 1j),
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

    @property
    def phase(self):
        """The phase of a phase gate, or None for H and CNOT."""
        return GATES[self.kind][1]


def h(q) -> Gate:
    return Gate("H", (q,))


def s(q) -> Gate:
    return Gate("S", (q,))


def cnot(control, target) -> Gate:
    return Gate("CNOT", (control, target))


def cz(a, b) -> Gate:
    return Gate("CZ", (a, b))


def cs(a, b) -> Gate:
    return Gate("CS", (a, b))


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray


def new_state(n: int) -> StateVector:
    """The all-zeros basis state on n qubits.

    This is the one check of the dense engine's qubit cap, so every dense
    computation above DEFAULT_MAX_QUBITS fails here, before it allocates.
    """
    if n < 0:
        raise ValueError("qubit count must be nonnegative")
    if n > DEFAULT_MAX_QUBITS:
        raise ResourceLimitError(
            f"{n} qubits exceeds the dense statevector cap of "
            f"{DEFAULT_MAX_QUBITS}"
        )
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    n = state.num_qubits
    for q in gate.targets:
        if not (0 <= q < n):
            raise ValueError(f"target {q} out of range for {n} qubits")
    if gate.kind == "H":
        # Axis 1 of this view is qubit q: the two amplitudes an H mixes.
        (q,) = gate.targets
        pairs = state.amplitudes.reshape(2**q, 2, -1)
        a = pairs[:, 0] * _INV_SQRT2
        b = pairs[:, 1] * _INV_SQRT2
        out = np.empty_like(pairs)
        np.add(a, b, out=out[:, 0])
        np.subtract(a, b, out=out[:, 1])
        return StateVector(n, out.reshape(-1))
    amps = state.amplitudes.reshape([2] * n) if n else state.amplitudes
    out = amps.copy()
    if gate.kind == "CNOT":
        a, b = gate.targets
        sel1 = [slice(None)] * n
        sel1[a], sel1[b] = 1, 0
        sel2 = [slice(None)] * n
        sel2[a], sel2[b] = 1, 1
        out[tuple(sel1)], out[tuple(sel2)] = amps[tuple(sel2)], amps[tuple(sel1)]
    else:
        sel = [slice(None)] * n
        for q in gate.targets:
            sel[q] = 1
        out[tuple(sel)] *= gate.phase
    return StateVector(n, out.reshape(-1))


def graph_state_gates(topology: Topology) -> list:
    """H on every node's qubit, then CZ across every edge.

    Qubit q holds the q-th node in ascending identifier order.
    """
    index = {u: q for q, u in enumerate(topology.nodes)}
    gates = [h(q) for q in range(topology.num_nodes)]
    for e in sorted(tuple(sorted(e)) for e in topology.edges):
        gates.append(cz(index[e[0]], index[e[1]]))
    return gates


def run_gates(n: int, gates) -> StateVector:
    """The gates applied in order to the all-zeros state on n qubits."""
    state = new_state(n)
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def _outcomes(indices: np.ndarray, n: int):
    """The bit tuples of basis indices, big-endian, in the given order."""
    if n == 0:
        return [()] * len(indices)
    bits = (indices[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1
    return zip(*bits.tolist())


def exact_distribution(state: StateVector) -> OutcomeDistribution:
    """The exact measurement law of the state, keyed by bit tuples, without
    the outcomes whose amplitude is rounding noise."""
    n = state.num_qubits
    amps = np.abs(state.amplitudes)
    nz = np.nonzero(amps > PRUNE_TOL)[0]
    probs = amps[nz] ** 2
    entries = dict(zip(_outcomes(nz, n), probs.tolist()))
    return OutcomeDistribution(entries, space=("bits", n))


def fidelity(a: StateVector, b: StateVector) -> float:
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)

