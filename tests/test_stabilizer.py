import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocal.errors import NonCliffordError
from qlocal.protocols import process_gates
from qlocal.stabilizer import AffineSupport, Tableau, circuit_support
from qlocal.statevector import GATES, Gate, h
from qlocal.verify import enumerate_support

from dense import PRUNE_TOL, cs, exact_distribution, run_gates

TRIPLES = list(itertools.product((0, 1), repeat=3))


def _is_clifford(kind):
    try:
        Tableau(2).apply(Gate(kind, tuple(range(GATES[kind][0]))))
    except NonCliffordError:
        return False
    return True


# read off the gate table, so a new Clifford kind cannot skip the dense check
CLIFFORD_KINDS = [kind for kind in sorted(GATES) if _is_clifford(kind)]


def _check_matrix(support):
    """The parity checks as a 0/1 matrix, column i for tuple entry i, and
    their right-hand sides."""
    n = support.num_bits
    rows = [[(mask >> i) & 1 for i in range(n)] for mask, _ in support.checks]
    signs = [sign for _, sign in support.checks]
    return np.array(rows, dtype=np.int64).reshape(-1, n), np.array(signs, dtype=np.int64)


def _dense_bits(state):
    """The dense state's support as a (strings, qubits) 0/1 array."""
    n = state.num_qubits
    idx = np.flatnonzero(np.abs(state.amplitudes) > PRUNE_TOL)
    return (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1


@pytest.mark.parametrize("d", [2, 4, 6])
def test_tableau_support_equals_the_dense_support(d):
    # every dense support string passes every check, and the two sets have
    # the same size, so they are equal
    for b in TRIPLES:
        support = enumerate_support(d, b)
        bits = _dense_bits(run_gates(3 * d, process_gates(d, b)))
        checks, signs = _check_matrix(support)
        assert np.array_equal((bits @ checks.T) % 2, np.broadcast_to(signs, (len(bits), len(signs))))
        assert len(bits) == len(support)


@pytest.mark.parametrize("d", [8, 16, 32])
def test_support_codimension_beyond_the_dense_cap(d):
    # one check for an odd-weight triple, two for an even-weight one
    for b in TRIPLES:
        support = enumerate_support(d, b)
        assert support.num_bits == 3 * d
        assert len(support.checks) == 2 - sum(b) % 2
        assert support.dim == 3 * d - 2 + sum(b) % 2
        if d <= 16:
            assert len(support) == 2**support.dim


def test_iteration_yields_each_member_once():
    for b in TRIPLES:
        support = enumerate_support(4, b)
        strings = list(support)
        assert len(set(strings)) == len(strings) == len(support)
        assert all(x in support for x in strings)
        assert all(type(bit) is int for bit in strings[0])


def test_membership_rejects_malformed_strings():
    support = enumerate_support(2, (0, 0, 0))
    good = next(iter(support))
    assert good in support and list(good) in support
    assert good[:-1] not in support
    assert good + (0,) not in support
    assert (2,) + good[1:] not in support
    assert "0" * 6 not in support
    assert 6 not in support
    assert np.array(good) not in support  # 8 bytes per entry


def test_reduced_checks_keep_the_solution_set():
    # x0 ^ x1 = 1 and x1 ^ x2 = 0, given redundantly and out of order; a
    # mask holds entry i at bit i
    checks = [(0b011, 1), (0b110, 0), (0b101, 1)]
    support = AffineSupport.from_checks(3, checks)
    assert set(support) == {(0, 1, 1), (1, 0, 0)}
    assert support == AffineSupport(3, 0b001, (0b111,))
    assert support.checks == ((0b101, 1), (0b110, 0))
    with pytest.raises(ValueError):
        AffineSupport.from_checks(3, checks + [(0b101, 0)])


def test_cs_is_rejected():
    tableau = Tableau(2)
    with pytest.raises(NonCliffordError):
        tableau.apply(cs(0, 1))
    with pytest.raises(ValueError):
        tableau.apply(h(2))


def _random_clifford(seed, n, length):
    rng = np.random.default_rng(seed)
    gates = []
    for kind in rng.choice(CLIFFORD_KINDS, size=length):
        arity = GATES[kind][0]
        if arity <= n:
            targets = rng.choice(n, size=arity, replace=False)
            gates.append(Gate(kind, tuple(int(q) for q in targets)))
    return gates


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(20, 60))
def test_tableau_matches_the_dense_engine(seed, n, length):
    gates = _random_clifford(seed, n, length)
    state = run_gates(n, gates)
    tableau = Tableau(n)
    for gate in gates:
        tableau.apply(gate)
    # every generator, sign included, fixes the dense state; the support
    # alone would show a wrong sign only once a later H turned it into Z
    for x, z, r in zip(tableau.x, tableau.z, tableau.r):
        assert np.allclose(_pauli_times(state, x, z, r), state.amplitudes)
    dense = set(exact_distribution(state).entries)
    assert set(tableau.support()) == dense
    assert set(circuit_support(n, gates)) == dense


def _pauli_times(state, x, z, r):
    """(-1)^r times the Pauli with X part x and Z part z (Y where both are
    set), applied to the dense state."""
    n = state.num_qubits
    weights = 1 << np.arange(n - 1, -1, -1)
    bits = (np.arange(2**n)[:, None] & weights) != 0  # row i: index i's bits
    phased = state.amplitudes * (-1.0) ** (bits @ z)
    out = np.empty_like(phased)
    out[(bits ^ x.astype(bool)) @ weights] = phased
    return out * 1j ** int(x @ z) * (-1) ** int(r)
