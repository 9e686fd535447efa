"""Exact dense statevector engine: the reference the tests compare the
path-sum arena and the stabilizer tableau against, capped at
DEFAULT_MAX_QUBITS. No experiment runs it.

Gate set: the kinds in `qlocal.statevector.GATES`. Qubit q corresponds to
axis q of the amplitude tensor reshaped to [2]*n, i.e. bit q of a basis
index read in big-endian order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qlocal.distributions import OutcomeDistribution
from qlocal.errors import ResourceLimitError
from qlocal.sparse import PathSum
from qlocal.statevector import GATES, Gate

DEFAULT_MAX_QUBITS = 26
# An amplitude within PRUNE_TOL of zero is rounding noise; the exact law
# drops its entry.
PRUNE_TOL = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def cnot(control, target) -> Gate:
    return Gate("CNOT", (control, target))


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
        out[tuple(sel)] *= 1j ** GATES[gate.kind][1]
    return StateVector(n, out.reshape(-1))


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


def dense_vector(state: PathSum, order) -> np.ndarray:
    """A path-sum state's amplitudes over every live qubit, big-endian like
    StateVector: order[0] is the highest bit of the index."""
    if sorted(order) != sorted(state.forms):
        raise ValueError("order must cover exactly the live qubits")
    keys, amps = state._amplitudes(list(order)[::-1])
    out = np.zeros(1 << len(order), dtype=complex)
    out[keys] = amps / np.linalg.norm(amps)
    return out
