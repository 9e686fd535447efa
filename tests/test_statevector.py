import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocal.errors import ResourceLimitError
from qlocal.network import QuantumArena
from qlocal.stabilizer import Tableau
from qlocal.statevector import GATES, check_gate, graph_state_gates
from qlocal.topology import Topology

from dense import (
    StateVector,
    apply_gate,
    cnot,
    cs,
    cz,
    exact_distribution,
    fidelity,
    h,
    new_state,
    run_gates,
    s,
)

INV_SQRT2 = 1 / np.sqrt(2)

# Each gate kind as an explicit matrix on its targets, in target order.
_P0, _P1 = np.diag([1, 0]), np.diag([0, 1])
_X = np.array([[0, 1], [1, 0]])
REFERENCE = {
    "H": [{0: np.array([[1, 1], [1, -1]]) * INV_SQRT2}],
    "S": [{0: np.diag([1, 1j])}],
    "CNOT": [{0: _P0}, {0: _P1, 1: _X}],
    "CZ": [{}, {0: -2 * _P1, 1: _P1}],
    "CS": [{}, {0: (1j - 1) * _P1, 1: _P1}],
}


def _reference_matrix(n, kind, targets):
    """The 2^n x 2^n matrix of the gate: a sum of Kronecker products, each
    with the given 2x2 factors on the gate's targets and the identity on
    every other qubit (qubit 0 is the leftmost factor)."""
    total = np.zeros((2**n, 2**n), dtype=complex)
    for term in REFERENCE[kind]:
        factors = [np.eye(2)] * n
        for j, op in term.items():
            factors[targets[j]] = op
        product = np.ones((1, 1))
        for f in factors:
            product = np.kron(product, f)
        total += product
    return total


def _every_gate(n):
    for kind, (arity, _) in sorted(GATES.items()):
        for targets in itertools.permutations(range(n), arity):
            yield kind, targets


def test_h_on_zero():
    state = apply_gate(new_state(1), *h(0))
    assert np.allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_s_phases_only_the_one_component():
    state = apply_gate(new_state(1), *h(0))
    state = apply_gate(state, *s(0))
    assert np.allclose(state.amplitudes, [INV_SQRT2, 1j * INV_SQRT2])


def test_cz_flips_sign_of_11():
    state = new_state(2)
    for q in (0, 1):
        state = apply_gate(state, *h(q))
    state = apply_gate(state, *cz(0, 1))
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_cs_puts_i_on_11():
    state = new_state(2)
    for q in (0, 1):
        state = apply_gate(state, *h(q))
    state = apply_gate(state, *cs(0, 1))
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5j])


def test_two_cs_compose_to_cz():
    a = new_state(2)
    for q in (0, 1):
        a = apply_gate(a, *h(q))
    b = apply_gate(apply_gate(a, *cs(0, 1)), *cs(0, 1))
    c = apply_gate(a, *cz(0, 1))
    assert np.allclose(b.amplitudes, c.amplitudes)


def test_cnot_on_plus_zero_makes_bell():
    state = apply_gate(new_state(2), *h(0))
    state = apply_gate(state, *cnot(0, 1))
    assert np.allclose(state.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2])


def test_qubit_cap():
    with pytest.raises(ResourceLimitError):
        new_state(27)


def _arena_apply(kind, targets):
    arena = QuantumArena()
    for _ in range(2):
        arena.create(0)
    arena.apply(0, 0, kind, targets)


# every engine that takes (kind, targets), on two qubits
ENGINES = {
    "check_gate": check_gate,
    "arena": _arena_apply,
    "tableau": lambda kind, targets: Tableau(2).apply(kind, targets),
    "dense": lambda kind, targets: apply_gate(new_state(2), kind, targets),
}


def test_gate_validation():
    # each engine runs the one gate check, which reads the kind first,
    # whatever the targets are
    for (kind, targets, message), apply in itertools.product([
        ("CNOT", (0, 0), "duplicate targets"),
        ("H", (0, 1), "expects 1 targets"),
        ("NOPE", (0,), "unknown gate kind"),
        ("NOPE", 5, "unknown gate kind"),
        ("H", 5, "must be a sequence"),
    ], ENGINES.values()):
        with pytest.raises(ValueError, match=message):
            apply(kind, targets)


def test_path_graph_state_amplitudes():
    # two nodes, one edge: (|00> + |01> + |10> - |11>) / 2
    topo = Topology([0, 1], [(0, 1)])
    state = run_gates(2, graph_state_gates(topo))
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_graph_state_has_full_support():
    topo = Topology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(exact_distribution(run_gates(4, graph_state_gates(topo))).entries) == 16


def test_exact_distribution_normalizes():
    topo = Topology(range(3), [(0, 1), (1, 2)])
    dist = exact_distribution(run_gates(3, graph_state_gates(topo)))
    assert abs(sum(dist.entries.values()) - 1.0) < 1e-12


def test_reference_matrices_cover_the_gate_table():
    assert set(REFERENCE) == set(GATES)


@pytest.mark.parametrize("n", range(1, 8))
def test_apply_gate_matches_kronecker_reference(n):
    rng = np.random.default_rng(n)
    for gate in _every_gate(n):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        before = state.amplitudes.copy()
        out = apply_gate(state, *gate)
        expected = _reference_matrix(n, *gate) @ before
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-15, gate
        assert np.array_equal(state.amplitudes, before), gate


def test_zero_qubit_state_has_the_empty_outcome():
    state = new_state(0)
    assert exact_distribution(state).entries == {(): 1.0}


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(new_state(1), new_state(2))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(GATES)),
                  st.integers(0, 3), st.integers(0, 3)),
        max_size=12,
    )
)
def test_random_circuits_preserve_norm(ops):
    state = new_state(4)
    for kind, a, b in ops:
        targets = (a, b)[:GATES[kind][0]]
        if len(set(targets)) == len(targets):
            state = apply_gate(state, kind, targets)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9
