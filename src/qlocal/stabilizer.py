"""GF(2) stabilizer tableau for the Clifford kinds of `statevector.GATES`:
H, CNOT, and the phase gates whose Z4 exponent is 1 on one qubit (S) or 2
on two (CZ).

The n stabilizer generators are Python-int bitsets, as in the path sum and
`AffineSupport`: bit i of x[q], z[q] and r holds generator i's X and Z part
on qubit q and its sign (Aaronson-Gottesman, arXiv:quant-ph/0406196), so a
gate acts on all generators at once. Nothing measures mid-circuit, so no
destabilizers. Elimination on the X parts leaves the Z-only stabilizers;
each, with its sign, is a parity check that every outcome string satisfies
(qubit q at bit q of its mask), which `AffineSupport.from_checks` reads.
"""
from __future__ import annotations

from .affine import AffineSupport, _transposed
from .errors import NonCliffordError
from .statevector import GATES, check_gate
from .topology import check_count, is_count


class Tableau:
    """Stabilizer generators of an n-qubit state, starting from |0...0>."""

    def __init__(self, n: int):
        check_count("qubit count", n, 1)
        self.n = n
        self.x = [0] * n
        self.z = [1 << q for q in range(n)]
        self.r = 0

    def apply(self, kind, targets):
        """Apply the gate `(kind, targets)` to every generator at once.

        A phase gate is read off its arity and exponent: phase i^1 on one
        qubit is S and i^2 on two is CZ; any other phase gate is not
        Clifford.
        """
        check_gate(kind, targets)
        for q in targets:
            if not (is_count(q, 0) and q < self.n):
                raise ValueError(f"target {q} out of range for {self.n} qubits")
        x, z = self.x, self.z
        if kind == "H":
            (q,) = targets
            self.r ^= x[q] & z[q]
            x[q], z[q] = z[q], x[q]
        elif kind == "CNOT":
            a, b = targets
            self.r ^= x[a] & z[b] & ~(x[b] ^ z[a])
            x[b] ^= x[a]
            z[a] ^= z[b]
        elif GATES[kind] == (1, 1):
            (q,) = targets
            self.r ^= x[q] & z[q]
            z[q] ^= x[q]
        elif GATES[kind] == (2, 2):
            a, b = targets
            self.r ^= x[a] & x[b] & (z[a] ^ z[b])
            z[a] ^= x[b]
            z[b] ^= x[a]
        else:
            raise NonCliffordError(f"{kind} is not a Clifford gate")

    def support(self) -> AffineSupport:
        """The law of the computational-basis outcomes, uniform on an
        affine subspace."""
        xs, zs = _transposed(self.x), _transposed(self.z)  # 1 << i -> generator i
        pivots = {}  # lowest X bit -> the one generator that leads with it
        checks = []
        for i in range(self.n):
            row = (xs.get(1 << i, 0), zs.get(1 << i, 0), self.r >> i & 1)
            while (lead := row[0] & -row[0]) in pivots:
                row = _times(pivots[lead], row)
            if lead:
                pivots[lead] = row
            else:
                checks.append(row[1:])
        return AffineSupport.from_checks(self.n, checks)


def _times(p, t):
    """The product of two commuting signed Paulis (x, z, sign bit), parts as
    qubit masks. Each qubit adds a power of i: +1 for XY, YZ and ZX, -1 for
    YX, ZY and XZ, else 0. The sum is even, as the two commute, and 2 mod 4
    flips the sign."""
    (px, pz, ps), (tx, tz, ts) = p, t
    py, ty = px & pz, tx & tz
    px, pz, tx, tz = px ^ py, pz ^ py, tx ^ ty, tz ^ ty
    up = (px & ty | py & tz | pz & tx).bit_count()
    down = (py & tx | pz & ty | px & tz).bit_count()
    return p[0] ^ t[0], p[1] ^ t[1], ps ^ ts ^ (up - down) >> 1 & 1


def circuit_support(n: int, gates) -> AffineSupport:
    """The measurement support of the gates run on |0...0> of n qubits."""
    tableau = Tableau(n)
    for kind, targets in gates:
        tableau.apply(kind, targets)
    return tableau.support()
