"""GF(2) stabilizer tableau for the Clifford kinds of `statevector.GATES`.

The state's n stabilizer generators are the rows of the bit blocks x and z
with sign bits r (Aaronson-Gottesman, arXiv:quant-ph/0406196); destabilizers
are not kept, since nothing here measures mid-circuit. The support of a
computational-basis measurement is an affine subspace: Gaussian elimination
on the x block leaves the Z-only stabilizers, and each one, with its sign,
is a parity check that every outcome string satisfies.
"""
from __future__ import annotations

from collections.abc import Set

import numpy as np

from .errors import NonCliffordError

# bytes.translate tables between the bits 0/1 and the characters "0"/"1"; an
# entry other than a bit maps to "x", which int() rejects.
_TO_CHARS = b"01" + b"x" * 254
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


class AffineSupport(Set):
    """The bit tuples x of length `num_bits` with x . mask = sign (mod 2)
    for every (mask, sign) in `checks`. A mask packs a tuple big-endian:
    entry i of the tuple is bit num_bits-1-i, as in a dense basis index.
    It holds 2^dim tuples; past dim 62, `len()` overflows."""

    def __init__(self, num_bits: int, checks):
        self.num_bits = num_bits
        self.checks = _reduced(checks)
        self.dim = num_bits - len(self.checks)

    def __contains__(self, outcome):
        try:
            if len(outcome) != self.num_bits:
                return False
            chars = bytes(outcome).translate(_TO_CHARS)
            if len(chars) != self.num_bits:  # a buffer of wider integers
                return False
            packed = int(chars, 2)
        except (TypeError, ValueError):
            return False
        for mask, sign in self.checks:
            if (packed & mask).bit_count() & 1 != sign:
                return False
        return True

    def __len__(self):
        return 1 << self.dim

    def origin_and_basis(self):
        """(x0, basis) as packed masks: the set is x0 xor every subset sum
        of basis. x0 has every free bit 0, and entry i's lowest set bit is
        the i-th lowest free bit, which no other entry sets."""
        leads = {1 << (m.bit_length() - 1): (m, s) for m, s in self.checks}
        x = sum(lead for lead, (_, s) in leads.items() if s)
        basis = [
            free + sum(lead for lead, (m, _) in leads.items() if m & free)
            for free in (1 << i for i in range(self.num_bits))
            if free not in leads
        ]
        return x, basis

    def __iter__(self):
        """Gray-code order: x0, then one basis entry added per step."""
        x, basis = self.origin_and_basis()
        width = f"0{self.num_bits}b"
        yield tuple(format(x, width).encode().translate(_TO_BITS))
        for m in range(1, 1 << len(basis)):
            x ^= basis[(m & -m).bit_length() - 1]
            yield tuple(format(x, width).encode().translate(_TO_BITS))


def _reduced(checks) -> tuple:
    """The checks in reduced row-echelon form over GF(2): each row's leading
    bit is set in that row only."""
    rows = []
    for mask, sign in checks:
        for lead_mask, lead_sign in rows:
            if mask & (1 << (lead_mask.bit_length() - 1)):
                mask ^= lead_mask
                sign ^= lead_sign
        if not mask:
            if sign:
                raise ValueError("inconsistent parity checks")
            continue
        lead = 1 << (mask.bit_length() - 1)
        rows = [
            (m ^ mask, s ^ sign) if m & lead else (m, s) for m, s in rows
        ]
        rows.append((mask, sign))
    return tuple(rows)


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

        A phase gate is read off its arity and phase: a 1-qubit phase i is
        S and a 2-qubit phase -1 is CZ; any other phase gate is not
        Clifford.
        """
        for q in gate.targets:
            if not (0 <= q < self.n):
                raise ValueError(f"target {q} out of range for {self.n} qubits")
        x, z, r = self.x, self.z, self.r
        if gate.kind == "H":
            (q,) = gate.targets
            r ^= x[:, q] & z[:, q]
            x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
        elif gate.kind == "CNOT":
            a, b = gate.targets
            r ^= x[:, a] & z[:, b] & (x[:, b] ^ z[:, a] ^ 1)
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]
        elif gate.phase == 1j and len(gate.targets) == 1:
            (q,) = gate.targets
            r ^= x[:, q] & z[:, q]
            z[:, q] ^= x[:, q]
        elif gate.phase == -1 and len(gate.targets) == 2:
            a, b = gate.targets
            r ^= x[:, a] & x[:, b] & (z[:, a] ^ z[:, b])
            z[:, a] ^= x[:, b]
            z[:, b] ^= x[:, a]
        else:
            raise NonCliffordError(f"{gate.kind} is not a Clifford gate")

    def support(self) -> AffineSupport:
        """The affine subspace of computational-basis outcomes."""
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
        weights = 1 << np.arange(n - 1, -1, -1, dtype=object)
        return AffineSupport(
            n,
            [
                (int(row @ weights), int(sign))
                for row, sign in zip(z[rank:].astype(object), r[rank:])
            ],
        )


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
