"""The path-sum state against the dense engine: laws on random circuits,
generator laws on random Clifford circuits (and against the stabilizer
tableau's support), key bit order, the circuits whose phase bookkeeping is
easy to get wrong, which discards it accepts, and its enumeration cap; and
H, which sums a variable out where it can, against the plain rule that never
does, bit for bit, on 64-qubit states measured up to the highest key bit."""
import copy
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocal.affine import MAX_ENUMERATED_BITS
from qlocal.errors import EntangledDisposalError, ResourceLimitError
from qlocal.sparse import PathSum
from qlocal.stabilizer import circuit_support
from qlocal.statevector import GATES, Gate, cz, h, s

from dense import cnot, cs, dense_vector, run_gates

# 64 live qubits, one more than the old slot arena held. A key holds 62
# qubits: 0..62 bar one untouched qubit, so qubit 62 (the old top slot) sits
# at key bit 61, the highest; qubit 63 stays unmeasured.
NUM_QUBITS = 64
TOP_SLOT = 62


def _path_sum(n, gates) -> PathSum:
    state = PathSum()
    for q in range(n):
        state.add(q)
    for gate in gates:
        state.apply(gate)
    return state


def _dense_law(n, gates, qids) -> np.ndarray:
    """P(key) from the dense engine, with qids[j] at key bit j."""
    probs = np.abs(run_gates(n, gates).amplitudes) ** 2
    index = np.arange(2**n)
    keys = np.zeros(2**n, dtype=np.int64)
    for j, q in enumerate(qids):
        keys |= ((index >> (n - 1 - q)) & 1) << j
    return np.bincount(keys, weights=probs, minlength=2 ** len(qids))


def _law(state, qids) -> np.ndarray:
    keys, probs = state.distribution_over(qids)
    assert np.all(np.diff(keys) > 0)
    law = np.zeros(2 ** len(qids))
    law[keys] = probs
    return law


@st.composite
def circuits(draw, kinds=tuple(sorted(GATES))):
    """Up to 10 qubits from a random basis state (H S S H flips a qubit),
    then up to 30 gates of the given kinds; in a paired circuit each CS is
    followed by the CS back, which together make a CZ."""
    n = draw(st.integers(1, 10))
    paired = draw(st.booleans())
    gates = []
    for q in draw(st.sets(st.integers(0, n - 1))):
        gates += [h(q), s(q), s(q), h(q)]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=30)):
        arity = GATES[kind][0]
        if arity > n:
            continue
        targets = draw(st.permutations(range(n)))[:arity]
        gates.append(Gate(kind, targets))
        if kind == "CS" and paired:
            gates.append(cs(*targets[::-1]))
    qids = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    return n, gates, qids


def _check_generator_law(state, dense, qids):
    """A generator law, where the state has one, is uniform on the dense
    law's support: origin xor every subset sum of its columns, each
    column's highest bit its own."""
    law = state.generator_law(qids)
    if law is None:
        return
    origin, columns = law.origin, law.columns
    leads = [1 << (c.bit_length() - 1) for c in columns]
    assert leads == sorted(set(leads))
    for lead in leads:
        assert [c & lead for c in columns].count(lead) == 1
        assert not origin & lead
    span = {origin}
    for c in columns:
        span |= {x ^ c for x in span}
    assert len(span) == 2 ** len(columns)
    assert np.flatnonzero(dense > 1e-12).tolist() == sorted(span)
    assert np.allclose(dense[sorted(span)], 2.0 ** -len(columns),
                       rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_law_equals_the_dense_marginal(circuit):
    n, gates, qids = circuit
    state = _path_sum(n, gates)
    dense = _dense_law(n, gates, qids)
    assert np.allclose(_law(state, qids), dense, rtol=0, atol=1e-12)
    _check_generator_law(state, dense, qids)


@settings(max_examples=300, deadline=None)
@given(circuits(kinds=("CNOT", "CZ", "H", "S")))
def test_generator_law_equals_the_dense_marginal(circuit):
    n, gates, qids = circuit
    state = _path_sum(n, gates)
    assert state.generator_law(qids) is not None
    _check_generator_law(state, _dense_law(n, gates, qids), qids)


@settings(max_examples=200, deadline=None)
@given(circuits(kinds=("CNOT", "CZ", "H", "S")))
def test_generator_law_is_the_tableau_support(circuit):
    # the two oracles head to head: the path sum's reduction and the
    # tableau's checks land on one reduced form
    n, gates, _ = circuit
    law = _path_sum(n, gates).generator_law(list(range(n)))
    assert law == circuit_support(n, gates)
    # membership reads the checks, the members come from the columns
    members = set(law)
    assert {x for x in itertools.product((0, 1), repeat=n) if x in law} == members
    assert len(members) == len(law)
    assert len(law.checks) == law.num_bits - law.dim


def test_a_non_clifford_state_is_summed_path_by_path():
    # CS then H on qubit 1, key bit j = qubit j: P(0) = 1/2, P(1) = P(3) =
    # 1/4. CS puts a cross term with coefficient 1 in Q, which is not
    # Clifford, so there is no generator law and the paths are summed.
    gates = [h(0), h(1), cs(0, 1), h(1)]
    state = _path_sum(2, gates)
    assert state.generator_law([0, 1]) is None
    keys, probs = state.distribution_over([0, 1])
    assert keys.tolist() == [0, 1, 2, 3]
    assert np.allclose(probs, [0.5, 0.25, 0.0, 0.25], rtol=0, atol=1e-12)
    assert np.allclose(_law(state, [0, 1]), _dense_law(2, gates, [0, 1]),
                       rtol=0, atol=1e-12)


def test_key_bit_j_is_the_jth_qubit():
    # qubit 1 is |1> (H S S H), qubits 0 and 2 are |0>
    state = _path_sum(3, [h(1), s(1), s(1), h(1)])
    assert state.distribution_over([1, 0, 2])[0].tolist() == [0b001]
    assert state.distribution_over([0, 2, 1])[0].tolist() == [0b100]
    assert state.distribution_over([2, 1])[0].tolist() == [0b10]


# Each circuit reaches one branch whose phase a slip would lose: a linear
# coefficient 2 that H sums out (H S S H = X); a linear coefficient 3 on a
# variable no form holds, which the law's reduction sums out by [omega];
# H summing out a variable whose form has constant 1,
# which leaves the phase 2 [g]; S on a form with constant 1, whose lift is
# 1 - [g]; and a degree-3 term, which H must not sum out.
# name -> (qubits, gates, measured qubits, support of their law)
TRICKY = {
    "HSSH": (1, [h(0), s(0), s(0), h(0)], [0], [0b1]),
    "HSHSSSH": (1, [h(0), s(0), h(0), s(0), s(0), s(0), h(0)], [0], [0b1]),
    "constant-one-sum": (
        3,
        [h(2), s(2), s(2), h(2), h(0), h(1), cnot(2, 0), cz(0, 1),
         h(0), h(0), h(1)],
        [0, 1],
        [0b00, 0b11],
    ),
    "constant-one-phase": (
        3,
        [h(2), s(2), s(2), h(2), h(0), cnot(0, 1), cnot(2, 0), s(0), s(1),
         h(0), h(1)],
        [0, 1],
        [0b00, 0b11],
    ),
    "degree-3": (
        4,
        [h(0), h(1), h(3), cnot(0, 2), cnot(1, 2), cs(2, 3)]
        + [cs(0, 3)] * 3 + [cs(1, 3)] * 3 + [h(3)],
        [3],
        [0b0, 0b1],
    ),
}


@pytest.mark.parametrize("name", list(TRICKY))
def test_phase_bookkeeping_on_tricky_circuits(name):
    n, gates, qids, support = TRICKY[name]
    state = _path_sum(n, gates)
    law = _law(state, qids)
    assert np.allclose(law, _dense_law(n, gates, qids), rtol=0, atol=1e-12)
    assert np.flatnonzero(law).tolist() == support
    assert np.allclose(dense_vector(state, list(range(n))),
                       run_gates(n, gates).amplitudes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("prep", [
    [],  # |0>
    [h(2)],  # |+>
    [h(2), s(2)],  # |+i>
    [h(2), h(2)],
    [h(2), s(2), s(2), h(2)],  # |1>
], ids=["zero", "plus", "plus-i", "HH", "HSSH"])
def test_product_qubit_is_discarded_exactly(prep):
    bell = [h(0), cnot(0, 1)]
    state = _path_sum(3, bell + prep)
    state.discard(2)
    expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(dense_vector(state, [0, 1]), expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("gates", [
    [h(0), cnot(0, 1)],  # half of a Bell pair
    [h(0), s(0), h(0)],  # a product, but H S H leaves a degree-2 term in Q
], ids=["bell-half", "HSH"])
def test_discard_rejects_a_form_it_cannot_split_off(gates):
    state = _path_sum(2, gates)
    with pytest.raises(EntangledDisposalError):
        state.discard(0)


@pytest.mark.parametrize("stabilizer", [True, False])
def test_enumeration_over_the_cap_raises(stabilizer):
    n = MAX_ENUMERATED_BITS + 1
    # uniform on 2^n keys, or 2^n paths once a lone CS makes Q odd
    gates = [h(q) for q in range(n)]
    if not stabilizer:
        gates += [cs(q, q + 1) for q in range(n - 1)]
    with pytest.raises(ResourceLimitError, match=f"2\\^{n} "):
        _path_sum(n, gates).distribution_over(list(range(n)))


def reference_h(state, qid):
    """H by the plain path-sum rule, never summing a variable out: a fresh
    variable z takes the qubit's form f, and Q gains 2 z [f]."""
    mask, const = state.forms[qid]
    z = 1 << state._next_var
    state._next_var += 1
    state._add_product(2, [(z, 0), (mask, const)])
    state.forms[qid] = (z, 0)


def random_circuit(rng, case, pos):
    """Gates on 11 random qubits, the top one unless it is `pos`, and `pos`;
    and the qubits they touch. All but `pos` get H, then random CNOTs, CZs
    and S among them; their forms stay independent, and the top one, never
    a CNOT target, keeps its own variable. `case` says what `pos` holds when
    its H comes: "fresh" a constant; "paired" a lone variable, with either
    constant, that Q holds only through CZs with some of the 12 and Z,
    which H sums out; "partial" a variable that a CNOT copied or an S made
    odd, which it cannot."""
    others = [q for q in range(TOP_SLOT) if q != pos]
    qubits = [int(q) for q in rng.choice(others, size=11, replace=False)]
    if pos != TOP_SLOT:
        qubits.append(TOP_SLOT)
    gates = [h(q) for q in qubits]
    for _ in range(30):
        a, b = (int(q) for q in rng.choice(qubits, size=2, replace=False))
        kind = rng.integers(3)
        if kind == 0 and b != TOP_SLOT:
            gates.append(cnot(a, b))
        elif kind == 1:
            gates.append(cz(a, b))
        else:
            gates.append(s(a))
    gates += [h(pos), s(pos), s(pos), h(pos)] * int(rng.integers(2))  # X
    if case != "fresh":
        gates.append(h(pos))
        partners = rng.choice(qubits, size=rng.integers(1, 5), replace=False)
        gates += [cz(pos, int(q)) for q in partners]
        gates += [s(pos), s(pos)] * int(rng.integers(2))  # Z
        if rng.integers(2):  # a CNOT from a |1> qubit gives the form constant 1
            one = int(rng.choice([q for q in others if q not in qubits]))
            gates += [h(one), s(one), s(one), h(one), cnot(one, pos)]
            qubits.append(one)
    if case == "partial":
        spoil = rng.integers(3)  # a CNOT, an S, or both
        if spoil != 1:
            target = rng.choice([q for q in qubits if q != TOP_SLOT])
            gates.append(cnot(pos, int(target)))
        if spoil != 0:
            gates.append(s(pos))
    return gates, qubits + [pos]


@pytest.mark.parametrize("case", ["fresh", "paired", "partial"])
@pytest.mark.parametrize("pos", [0, 1, 31, 61, TOP_SLOT])
@pytest.mark.parametrize("seed", range(4))
def test_h_matches_reference_bit_for_bit(case, pos, seed):
    rng = np.random.default_rng([seed, pos, len(case)])
    gates, touched = random_circuit(rng, case, pos)
    state = _path_sum(NUM_QUBITS, gates)
    reference = copy.deepcopy(state)
    variables = state._next_var
    state.apply(h(pos))
    assert (state._next_var == variables) == (case == "paired")
    reference_h(reference, pos)
    spare = next(q for q in range(TOP_SLOT) if q not in touched)
    qids = [q for q in range(TOP_SLOT + 1) if q != spare]
    got_keys, got_probs = state.distribution_over(qids)
    want_keys, want_probs = reference.distribution_over(qids)
    assert np.any(got_keys >> (len(qids) - 1))
    assert np.array_equal(got_keys, want_keys)
    assert np.array_equal(got_probs.view(np.uint64), want_probs.view(np.uint64))
    # The amplitudes, phases included, once the untouched |0> qubits are
    # discarded: against the reference and the dense engine.
    for q in range(NUM_QUBITS):
        if q not in touched:
            state.discard(q)
            reference.discard(q)
    local = {q: i for i, q in enumerate(touched)}
    dense = [replace(g, targets=[local[q] for q in g.targets])
             for g in gates + [h(pos)]]
    got = dense_vector(state, touched)
    assert np.allclose(got, dense_vector(reference, touched), rtol=0, atol=1e-12)
    assert np.allclose(got, run_gates(len(touched), dense).amplitudes,
                       rtol=0, atol=1e-12)


def test_h_twice_at_the_top_slot_returns_to_zero():
    state = _path_sum(TOP_SLOT + 1, [h(TOP_SLOT)])
    assert state.distribution_over([TOP_SLOT])[0].tolist() == [0, 1]
    state.apply(h(TOP_SLOT))
    assert state.forms[TOP_SLOT] == (0, 0)
    assert not state.q
    keys, probs = state.distribution_over([TOP_SLOT])
    assert keys.tolist() == [0]
    assert probs.tolist() == [1.0]


@pytest.mark.parametrize("seed", range(4))
def test_keys_match_the_per_bit_reference(seed):
    # 8 variables spread by random CNOTs and flipped by X (H S S H) over 64
    # qubits; 40 qubits measured in random order, so bits move both ways.
    # The reference tracks each qubit's form as a variable mask and a
    # constant, and reads key bit j off qubit positions[j] on every path.
    rng = np.random.default_rng(seed)
    masks = [1 << q if q < 8 else 0 for q in range(NUM_QUBITS)]
    consts = [0] * NUM_QUBITS
    gates = [h(q) for q in range(8)]
    for _ in range(100):
        a, b = (int(q) for q in rng.choice(NUM_QUBITS, size=2, replace=False))
        if rng.integers(4):
            gates.append(cnot(a, b))
            masks[b] ^= masks[a]
            consts[b] ^= consts[a]
        else:
            gates += [h(a), s(a), s(a), h(a)]
            consts[a] ^= 1
    positions = [int(p) for p in rng.permutation(NUM_QUBITS)[:40]]
    want = {
        sum((((masks[p] & y).bit_count() + consts[p]) & 1) << j
            for j, p in enumerate(positions))
        for y in range(2**8)
    }
    keys, probs = _path_sum(NUM_QUBITS, gates).distribution_over(positions)
    assert keys.tolist() == sorted(want)
    assert np.all(probs == 1 / len(want))
