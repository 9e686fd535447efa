import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocal.errors import ResourceLimitError
from qlocal.statevector import (
    GATES,
    Gate,
    apply_gate,
    build_graph_state,
    cnot,
    cs,
    cz,
    exact_distribution,
    fidelity,
    h,
    new_state,
    s,
    s_power,
    support,
)
from qlocal.topology import Topology

INV_SQRT2 = 1 / np.sqrt(2)


def test_h_on_zero():
    state = apply_gate(new_state(1), h(0))
    assert np.allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_s_phases_only_the_one_component():
    state = apply_gate(new_state(1), h(0))
    state = apply_gate(state, s(0))
    assert np.allclose(state.amplitudes, [INV_SQRT2, 1j * INV_SQRT2])


def test_s_power_zero_is_identity():
    state = apply_gate(new_state(1), h(0))
    out = apply_gate(state, s_power(0, 0))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_cz_flips_sign_of_11():
    state = new_state(2)
    for q in (0, 1):
        state = apply_gate(state, h(q))
    state = apply_gate(state, cz(0, 1))
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_cs_puts_i_on_11():
    state = new_state(2)
    for q in (0, 1):
        state = apply_gate(state, h(q))
    state = apply_gate(state, cs(0, 1))
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5j])


def test_two_cs_compose_to_cz():
    a = new_state(2)
    for q in (0, 1):
        a = apply_gate(a, h(q))
    b = apply_gate(apply_gate(a, cs(0, 1)), cs(0, 1))
    c = apply_gate(a, cz(0, 1))
    assert np.allclose(b.amplitudes, c.amplitudes)


def test_cnot_on_plus_zero_makes_bell():
    state = apply_gate(new_state(2), h(0))
    state = apply_gate(state, cnot(0, 1))
    assert np.allclose(state.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2])


def test_qubit_cap():
    with pytest.raises(ResourceLimitError):
        new_state(27)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (0, 0))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("NOPE", (0,))
    with pytest.raises(ValueError):
        s_power(2, 0)


@pytest.mark.parametrize("kind,exponent", [
    (kind, exponent)
    for kind in sorted(GATES)
    for exponent in ((2, -1) if kind == "S_POWER" else (0, 2, 7))
])
def test_gate_rejects_exponent(kind, exponent):
    with pytest.raises(ValueError):
        Gate(kind, tuple(range(GATES[kind][0])), exponent)


def test_path_graph_state_amplitudes():
    # two nodes, one edge: (|00> + |01> + |10> - |11>) / 2
    topo = Topology([0, 1], [(0, 1)])
    state = build_graph_state(topo)
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_graph_state_has_full_support():
    topo = Topology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(support(build_graph_state(topo))) == 16


def test_exact_distribution_normalizes():
    topo = Topology(range(3), [(0, 1), (1, 2)])
    dist = exact_distribution(build_graph_state(topo))
    assert abs(sum(dist.entries.values()) - 1.0) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(new_state(1), new_state(2))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["H", "S", "CNOT", "CZ", "CS"]),
                  st.integers(0, 3), st.integers(0, 3)),
        max_size=12,
    )
)
def test_random_circuits_preserve_norm(ops):
    state = new_state(4)
    for kind, a, b in ops:
        if kind in ("H", "S"):
            state = apply_gate(state, Gate(kind, (a,)))
        elif a != b:
            state = apply_gate(state, Gate(kind, (a, b)))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9
