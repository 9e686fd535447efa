"""Exact path-sum state backing the network arena: the gates of
`statevector.GATES` keep every state of the form 2^{-h/2} sum_y i^{Q(y)}
|f(y)> over h path variables y (Dehaene-De Moor, arXiv:quant-ph/0304125; Amy,
arXiv:1805.06908). A live qubit's entry of f is a GF(2) affine form: a
variable mask (a Python int, one bit per variable) and a constant bit. Q maps
each monomial's variable mask to its coefficient mod 4."""
from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_, xor

import numpy as np

from .errors import EntangledDisposalError, ResourceLimitError
from .stabilizer import AffineSupport, circuit_support
from .statevector import cnot, cz, h, s

# A law enumerates at most 2^MAX_ENUMERATED_BITS outcomes, and a sum that is
# not a stabilizer state as many paths; the d=8 relation law has 2^23.
MAX_ENUMERATED_BITS = 23
_EXPONENT = {1j: 1, -1: 2}  # a gate's phase i^e -> e
_UNITS = np.array([1, 1j, -1, -1j])


def _bits(mask):
    """The single-bit masks set in `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _span(x0, basis, num_qubits, what) -> np.ndarray:
    """x0 xor every subset sum of basis, as int64 keys over num_qubits
    qubits: basis entry i is in the keys whose index has bit i set."""
    if num_qubits > 62:
        raise ResourceLimitError("too many qubits for joint distribution keys")
    if len(basis) > MAX_ENUMERATED_BITS:
        raise ResourceLimitError(
            f"2^{len(basis)} {what} exceed the enumeration cap of "
            f"2^{MAX_ENUMERATED_BITS}"
        )
    keys = np.array([x0], dtype=np.int64)
    for b in basis:
        keys = np.concatenate([keys, keys ^ b])
    return keys


class PathSum:
    """A normalized state of the live qubits, keyed by qubit id."""

    def __init__(self):
        self.forms = {}  # qid -> (variable mask, constant bit)
        self.q = {}  # monomial mask -> coefficient in 1..3
        self._next_var = 0

    def add(self, qid):
        """A fresh qubit in |0>."""
        self.forms[qid] = (0, 0)

    def apply(self, gate):
        """Apply one `statevector.Gate` to the qubits its targets name."""
        if gate.kind == "H":
            self._h(*gate.targets)
        elif gate.kind == "CNOT":
            (ma, ca), (mb, cb) = (self.forms[q] for q in gate.targets)
            self.forms[gate.targets[1]] = (ma ^ mb, ca ^ cb)
        elif gate.phase != 1:  # S_POWER with exponent 0 is the identity
            self._add_product(
                _EXPONENT[gate.phase], [self.forms[q] for q in gate.targets]
            )

    def _add_product(self, e, forms):
        """Q += e * prod [f], where [f] lifts a form's bit to Z4:
        [y1 ^ ... ^ yk] = sum y_i + 2 sum_{i<j} y_i y_j, [1 ^ g] = 1 - [g]."""
        poly = {0: e}
        for mask, const in forms:
            ys = list(_bits(mask))
            lift = dict.fromkeys(ys, 1)
            lift.update((a | b, 2) for a, b in combinations(ys, 2))
            if const:
                lift = {m: -c for m, c in lift.items()} | {0: 1}
            product = {}
            for m1, c1 in poly.items():
                for m2, c2 in lift.items():
                    product[m1 | m2] = product.get(m1 | m2, 0) + c1 * c2
            poly = product
        for m, c in poly.items():
            self.q[m] = (self.q.get(m, 0) + c) % 4
            if not self.q[m]:
                del self.q[m]

    def _lone_terms(self, qid):
        """Q's monomials that hold the qubit's variable z, or None unless its
        form is z alone (constant aside) and no other live qubit holds z."""
        z = self.forms[qid][0]
        if not z or z & (z - 1) or any(
            m & z for q, (m, _) in self.forms.items() if q != qid
        ):
            return None
        return [m for m in self.q if m & z]

    def _h(self, qid):
        mask, const = self.forms[qid]
        terms = self._lone_terms(qid)
        if terms is not None and all(
            self.q[m] == 2 and m.bit_count() <= 2 for m in terms
        ):
            # Q = Q' + 2 z g: H adds 2 w [z ^ const], and summing z out
            # leaves 2 [w = g], so the form becomes g and 2 const [g] stays.
            for m in terms:
                del self.q[m]
            g = (reduce(xor, terms, 0) & ~mask, int(mask in terms))
            self.forms[qid] = g
            if const:
                self._add_product(2, [g])
            return
        z = 1 << self._next_var
        self._next_var += 1
        self._add_product(2, [(z, 0), (mask, const)])
        self.forms[qid] = (z, 0)

    def discard(self, qid):
        """Drop a qubit whose form is constant, or a lone variable that Q
        holds only linearly: a product with the rest. Any other form raises
        EntangledDisposalError, though some (H S H |0>) are products too."""
        mask, _ = self.forms[qid]
        if mask:
            if self._lone_terms(qid) not in ([], [mask]):
                raise EntangledDisposalError(f"qubit {qid} may be entangled")
            self.q.pop(mask, None)
        del self.forms[qid]

    def _variables(self) -> list:
        masks = [mask for mask, _ in self.forms.values()] + list(self.q)
        return list(_bits(reduce(or_, masks, 0)))

    def distribution_over(self, qids):
        """Exact joint law of the given qubits: (keys, probabilities), keys
        ascending, with qids[j] at key bit j. Other live qubits are
        marginalized over."""
        rest = [q for q in self.forms if q not in qids]
        if all(
            m.bit_count() < 2 or (m.bit_count() == 2 and c == 2)
            for m, c in self.q.items()
        ):
            return self._stabilizer_law(list(qids), rest)
        keys, amps = self._amplitudes(list(qids) + rest)
        measured = keys & ((1 << len(qids)) - 1)
        keys, inverse = np.unique(measured, return_inverse=True)
        probs = np.bincount(inverse, weights=amps.real**2 + amps.imag**2)
        return keys, probs / probs.sum()

    def _stabilizer_law(self, qids, rest):
        """The law of a stabilizer state, uniform on the support of a
        tableau: H on one qubit per variable, S^c and CZ for Q, CNOTs and X
        for the forms into one qubit per live qubit, H on the variables, and
        those postselected on 0. The variables and unmeasured qubits take
        the high mask bits and are eliminated."""
        variables = self._variables()
        k, m = len(variables), len(qids)
        index = {v: i for i, v in enumerate(variables)}
        gates = [h(i) for i in range(k)]
        for mono, c in self.q.items():
            ys = [index[v] for v in _bits(mono)]
            gates += [cz(*ys)] if len(ys) == 2 else [s(y) for y in ys] * c
        for col, qid in enumerate(rest + qids, start=k):
            mask, const = self.forms[qid]
            gates += [cnot(index[v], col) for v in _bits(mask)]
            gates += [h(col), s(col), s(col), h(col)] * const  # X
        n = k + len(rest) + m
        checks = circuit_support(n, gates + [h(i) for i in range(k)]).checks
        postselect = tuple((1 << (n - 1 - i), 0) for i in range(k))
        checks = AffineSupport(n, checks + postselect).checks
        support = AffineSupport(m, [c for c in checks if c[0] >> m == 0])
        # qids[j] is mask bit m-1-j, so keys are masks reversed. An entry's
        # highest key bit is its free bit, which no other entry and not x0
        # sets: spanning from the highest one down sorts the keys.
        x0, basis = support.origin_and_basis()
        x0, *basis = (int(format(b, f"0{m}b")[::-1], 2)
                      for b in [x0] + basis[::-1])
        keys = _span(x0, basis, m, "outcomes")
        return keys, np.full(len(keys), 2.0**-support.dim)

    def _amplitudes(self, order):
        """Every path summed: (keys, amplitudes), one entry per basis state
        over `order` (order[j] at key bit j), the amplitudes unnormalized."""
        variables = self._variables()
        keys = _span(
            sum(self.forms[q][1] << j for j, q in enumerate(order)),
            [sum(1 << j for j, q in enumerate(order) if self.forms[q][0] & v)
             for v in variables],
            len(order), "paths",
        )
        # Path y sets variable i at bit i, as _span lays out the keys.
        y = np.arange(len(keys), dtype=np.int64)
        phase = np.zeros_like(y)
        for mono, c in self.q.items():
            cm = sum(1 << i for i, v in enumerate(variables) if mono & v)
            phase += c * ((y & cm) == cm)
        keys, inverse = np.unique(keys, return_inverse=True)
        amps = np.zeros(len(keys), dtype=complex)
        np.add.at(amps, inverse, _UNITS[phase % 4])
        return keys, amps

    def dense_vector(self, order) -> np.ndarray:
        """Dense amplitudes over every live qubit, big-endian like
        StateVector: order[0] is the highest bit of the index."""
        if sorted(order) != sorted(self.forms):
            raise ValueError("qid_order must cover exactly the live qubits")
        keys, amps = self._amplitudes(list(order)[::-1])
        out = np.zeros(1 << len(order), dtype=complex)
        out[keys] = amps / np.linalg.norm(amps)
        return out
