"""GF(2) stabilizer tableau for the Clifford kinds of `statevector.GATES`:
H, CNOT, and the phase gates whose Z4 exponent is 1 on one qubit (S) or 2
on two (CZ).

The state's n stabilizer generators are the rows of the bit blocks x and z
with sign bits r (Aaronson-Gottesman, arXiv:quant-ph/0406196); destabilizers
are not kept, since nothing here measures mid-circuit. The support of a
computational-basis measurement is an affine subspace: Gaussian elimination
on the x block leaves the Z-only stabilizers, and each one, with its sign,
is a parity check that every outcome string satisfies (qubit q at bit q of
its mask), which `AffineSupport.from_checks` turns into generators.
"""
from __future__ import annotations

import numpy as np

from .affine import AffineSupport
from .errors import NonCliffordError
from .statevector import GATES


class Tableau:
    """Stabilizer generators of an n-qubit state, starting from |0...0>."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("tableau needs at least one qubit")
        self.n = n
        self.x = np.zeros((n, n), dtype=np.uint8)
        self.z = np.eye(n, dtype=np.uint8)
        self.r = np.zeros(n, dtype=np.uint8)

    def apply(self, gate):
        """Apply one `statevector.Gate` to every generator at once.

        A phase gate is read off its arity and exponent: phase i^1 on one
        qubit is S and i^2 on two is CZ; any other phase gate is not
        Clifford.
        """
        for q in gate.targets:
            if not (0 <= q < self.n):
                raise ValueError(f"target {q} out of range for {self.n} qubits")
        x, z, r = self.x, self.z, self.r
        e = GATES[gate.kind][1]
        if gate.kind == "H":
            (q,) = gate.targets
            r ^= x[:, q] & z[:, q]
            x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
        elif gate.kind == "CNOT":
            a, b = gate.targets
            r ^= x[:, a] & z[:, b] & (x[:, b] ^ z[:, a] ^ 1)
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]
        elif (e, len(gate.targets)) == (1, 1):
            (q,) = gate.targets
            r ^= x[:, q] & z[:, q]
            z[:, q] ^= x[:, q]
        elif (e, len(gate.targets)) == (2, 2):
            a, b = gate.targets
            r ^= x[:, a] & x[:, b] & (z[:, a] ^ z[:, b])
            z[:, a] ^= x[:, b]
            z[:, b] ^= x[:, a]
        else:
            raise NonCliffordError(f"{gate.kind} is not a Clifford gate")

    def support(self) -> AffineSupport:
        """The law of the computational-basis outcomes, uniform on an
        affine subspace."""
        n = self.n
        x, z, r = self.x.copy(), self.z.copy(), self.r.copy()
        rank = 0
        for q in range(n):
            rows = np.flatnonzero(x[rank:, q]) + rank
            if not rows.size:
                continue
            p = rows[0]
            for block in (x, z, r):
                block[[rank, p]] = block[[p, rank]]
            _multiply_rows(x, z, r, rows[1:], rank)
            rank += 1
        masks = z[rank:].astype(object) @ (1 << np.arange(n, dtype=object))
        return AffineSupport.from_checks(n, zip(masks, r[rank:].tolist()))


def _multiply_rows(x, z, r, targets, pivot):
    """Replace each target generator by its product with the pivot one.

    The product's sign is i^e with e = 2 r_t + 2 r_p + sum_j g_j (mod 4),
    where g_j is the power of i that multiplying the two Paulis on qubit j
    contributes; summed across all columns of all target rows at once.
    """
    if not targets.size:
        return
    x1 = x[pivot].astype(np.int64)
    z1 = z[pivot].astype(np.int64)
    x2 = x[targets].astype(np.int64)
    z2 = z[targets].astype(np.int64)
    g = (
        x1 * z1 * (z2 - x2)  # Y times the target's Pauli
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)  # X
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)  # Z
    )
    e = 2 * r[targets].astype(np.int64) + 2 * int(r[pivot]) + g.sum(axis=1)
    r[targets] = (e % 4) // 2
    x[targets] ^= x[pivot]
    z[targets] ^= z[pivot]


def circuit_support(n: int, gates) -> AffineSupport:
    """The measurement support of the gates run on |0...0> of n qubits."""
    tableau = Tableau(n)
    for gate in gates:
        tableau.apply(gate)
    return tableau.support()
