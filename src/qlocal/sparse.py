"""Exact path-sum state backing the network arena: the gates of
`statevector.GATES` keep every state of the form 2^{-h/2} sum_y i^{Q(y)}
|f(y)> over h path variables y (Dehaene-De Moor, arXiv:quant-ph/0304125; Amy,
arXiv:1805.06908). A live qubit's entry of f is a GF(2) affine form: a
variable mask (a Python int, one bit per variable) and a constant bit. Q maps
each monomial's variable mask to its coefficient mod 4; a phase gate adds its
exponent e from the table times the product of its targets' forms lifted to Z4.

A measurement law is read off the sum. When Q is Clifford, Amy's [HH] and
[omega] rules sum variables out of a copy until the forms have full column
rank; the law is then an `affine.AffineSupport`, which callers sample without
listing it. Any other Q is summed over the paths that `affine._span` lists."""
from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_, xor

import numpy as np

from .affine import AffineSupport, _bits, _span, _transposed
from .errors import EntangledDisposalError
from .statevector import GATES

_UNITS = np.array([1, 1j, -1, -1j])


def _kernel_vector(forms) -> int:
    """A nonzero set of the forms' variables whose columns XOR to zero, as
    a mask; 0 if the columns are independent."""
    pivots = {}  # leading bit -> (column, the variables it sums)
    for v, col in _transposed(m for m, _ in forms).items():
        combo = v
        while col:
            lead = 1 << (col.bit_length() - 1)
            if lead not in pivots:
                pivots[lead] = (col, combo)
                break
            col ^= pivots[lead][0]
            combo ^= pivots[lead][1]
        else:
            return combo
    return 0


def _reduced(vectors) -> dict:
    """A basis of the span of GF(2) vectors (ints) in reduced echelon form,
    as {leading bit: row}: each row's highest bit is set in no other row."""
    rows = {}
    for vec in vectors:
        for lead, row in rows.items():
            if vec & lead:
                vec ^= row
        if vec:
            lead = 1 << (vec.bit_length() - 1)
            for k, row in rows.items():
                if row & lead:
                    rows[k] = row ^ vec
            rows[lead] = vec
    return rows


class PathSum:
    """A normalized state of the live qubits, keyed by qubit id."""

    def __init__(self):
        self.forms = {}  # qid -> (variable mask, constant bit)
        self.q = {}  # monomial mask -> coefficient in 1..3
        self._next_var = 0

    def add(self, qid):
        """A fresh qubit in |0>."""
        self.forms[qid] = (0, 0)

    def apply(self, kind, targets):
        """Apply a gate that `statevector.check_gate` has passed."""
        if kind == "H":
            self._h(*targets)
        elif kind == "CNOT":
            (ma, ca), (mb, cb) = map(self.forms.__getitem__, targets)
            self.forms[targets[1]] = (ma ^ mb, ca ^ cb)
        else:
            self._add_product(GATES[kind][1], [self.forms[q] for q in targets])

    def _add_product(self, e, forms):
        """Q += e * prod [f], where [f] lifts a form's bit to Z4:
        [y1 ^ ... ^ yk] = sum y_i + 2 sum_{i<j} y_i y_j, [1 ^ g] = 1 - [g].
        For even e only [f] mod 2, sum y_i + const, matters."""
        poly = {0: e}
        for mask, const in forms:
            ys = list(_bits(mask))
            lift = dict.fromkeys(ys, 1)
            if e % 2:
                lift.update((a | b, 2) for a, b in combinations(ys, 2))
                if const:
                    lift = {m: -c for m, c in lift.items()} | {0: 1}
            elif const:
                lift[0] = 1
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

    def generator_law(self, qids):
        """The law of the given qubits of a stabilizer state, as an
        `AffineSupport` with qids[j] at bit j; None unless Q is Clifford."""
        if not all(
            m.bit_count() < 2 or (m.bit_count() == 2 and c == 2)
            for m, c in self.q.items()
        ):
            return None
        work = PathSum()
        work.forms, work.q = dict(self.forms), dict(self.q)
        work._reduce()
        forms = [work.forms[qid] for qid in qids]
        origin = sum(const << j for j, (_, const) in enumerate(forms))
        rows = _reduced(_transposed(m for m, _ in forms).values())
        origin ^= reduce(xor, (r for lead, r in rows.items() if origin & lead), 0)
        # a tuple of a list: growing one from a generator fragmented the heap
        return AffineSupport(len(qids), origin, tuple([rows[k] for k in sorted(rows)]))

    def _reduce(self):
        """Rewrite the sum, keeping the law of every subset of qubits, until
        no two paths reach one basis state (Amy, arXiv:1805.06908). A
        variable y that Q holds and no form does is summed out; with
        Q = y (a + 2[g]) + Q', the sum over y is 1 + i^a (-1)^[g]. For a in
        {0, 2} it vanishes unless [g] = a/2 [HH], which fixes one variable
        of g; for a in {1, 3} it is (1 + i^a) i^{(4-a)[g]} [omega]. While
        the forms' columns are dependent, a kernel vector k frees one of its
        variables p: y_i -> y_i ^ y_p for each other i in k, after which no
        form holds y_p. Q must be Clifford; it stays so."""
        while True:
            in_forms = reduce(or_, (m for m, _ in self.forms.values()), 0)
            loose = reduce(or_, self.q, 0) & ~in_forms
            if loose:
                p = loose & -loose
                a = self.q.pop(p, 0)
                g = 0
                for m in [m for m in self.q if m & p]:
                    del self.q[m]
                    g ^= m ^ p
                if a % 2:
                    self._add_product(4 - a, [(g, 0)])
                elif g:
                    v = g & -g
                    self._substitute({v: (g ^ v, a // 2)})
                continue
            k = _kernel_vector(self.forms.values())
            if not k:
                return
            p = k & -k
            self._substitute({v: (v | p, 0) for v in _bits(k ^ p)})

    def _substitute(self, subs):
        """y_v -> its affine form, for each {v: (mask, const)} of subs at
        once, in the forms and in Q."""
        moved = reduce(or_, subs, 0)
        for qid, (m, c) in self.forms.items():
            for v in _bits(m & moved):
                mask, const = subs[v]
                m, c = m ^ v ^ mask, c ^ const
            self.forms[qid] = (m, c)
        terms = [(m, self.q.pop(m)) for m in [m for m in self.q if m & moved]]
        for m, c in terms:
            self._add_product(c, [subs.get(v, (v, 0)) for v in _bits(m)])

    def distribution_over(self, qids):
        """Exact joint law of the given qubits: (keys, probabilities), keys
        ascending, with qids[j] at key bit j. Other live qubits are
        marginalized over."""
        law = self.generator_law(qids)
        if law is not None:
            keys = law.keys()
            return keys, np.full(len(keys), 2.0 ** -law.dim)
        rest = [q for q in self.forms if q not in qids]
        keys, amps = self._amplitudes(list(qids) + rest)
        measured = keys & ((1 << len(qids)) - 1)
        keys, inverse = np.unique(measured, return_inverse=True)
        probs = np.bincount(inverse, weights=amps.real**2 + amps.imag**2)
        return keys, probs / probs.sum()

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
