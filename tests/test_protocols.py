import ast
import itertools

import numpy as np
import pytest

from qlocal.experiments import subgraph_fidelity_case, xor_oracle
from qlocal.distributions import OutcomeDistribution, tv_distance
from qlocal.errors import EntangledDisposalError, ProtocolError
from qlocal.network import (
    EMPTY_MESSAGE,
    LocalView,
    Message,
    NodeContext,
    NodeProgram,
    run,
    run_exact,
)
from qlocal.protocols import (
    AffineStrategy,
    AffineTermProgram,
    DerandomizedProgram,
    GraphStateProgram,
    InputFloodProgram,
    RelationProgram,
    _carrier_slots,
    affine_output_string,
    affine_strategy_programs,
    all_affine_strategies,
    derandomize_function_protocol,
    process_gates,
    relation_inputs,
    relation_protocol_programs,
    sampling_protocol_programs,
)
from qlocal.statevector import graph_state_gates
from qlocal.topology import Topology, build_script_gd, input_nodes, ring_distance
from qlocal.verify import enumerate_support

from dense import StateVector, dense_vector, exact_distribution, fidelity, run_gates

TRIANGLE = Topology(range(3), [(0, 1), (1, 2), (2, 0)])

# what `protocols._read_bit` refuses: no bit, no byte, a byte not 0 or 1, two bytes
BAD_BITS = (None, b"", b"\x02", b"\x01\x00")


def _dense_fidelity(topology, assignment, program=GraphStateProgram):
    """The built state, read out of the arena densely, against the graph
    state of the kept edges built centrally by the dense engine."""
    programs = {u: program() for u in topology.nodes}
    inputs = {u: bytes([assignment[u]]) for u in topology.nodes}
    result = run(topology, programs, rounds=2, inputs=inputs)
    n = topology.num_nodes
    built = dense_vector(result.arena.state, [programs[u].qubit for u in topology.nodes])
    kept = Topology(
        topology.nodes,
        [e for e in topology.edges if all(assignment[u] for u in e)],
        allow_disconnected=True,
    )
    return fidelity(run_gates(n, graph_state_gates(kept)), StateVector(n, built))


def _triangle_fidelity(assignment):
    """The arena's fidelity, checked against the dense one."""
    fid, msg_rounds = subgraph_fidelity_case(TRIANGLE, assignment)
    assert fid == pytest.approx(_dense_fidelity(TRIANGLE, assignment), abs=1e-12)
    return fid, msg_rounds


def test_full_selection_builds_the_graph_state():
    fid, msg_rounds = _triangle_fidelity({0: 1, 1: 1, 2: 1})
    assert fid == pytest.approx(1.0, abs=1e-12)
    assert msg_rounds == 2


def test_partial_selection_builds_induced_subgraph_state():
    # only the 0-1 edge survives; node 2 must end in |+>
    fid, _ = _triangle_fidelity({0: 1, 1: 1, 2: 0})
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_no_selection_leaves_product_of_plus_states():
    fid, _ = _triangle_fidelity({0: 0, 1: 0, 2: 0})
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_subgraph_fidelity_equals_the_dense_fidelity_on_every_d2_assignment():
    g2 = build_script_gd(2)
    for bits in itertools.product((0, 1), repeat=g2.num_nodes):
        assignment = dict(zip(g2.nodes, bits))
        fid, _ = subgraph_fidelity_case(g2, assignment)
        dense = _dense_fidelity(g2, assignment)
        assert fid == pytest.approx(dense, abs=1e-12), bits


class _PhaseSlip(GraphStateProgram):
    """Builds its share, then applies a stray S to its own qubit."""

    def _after_disentangle(self):
        self.ctx.apply("S", self.qubit)


def test_subgraph_fidelity_sees_a_wrong_state(monkeypatch):
    # S = ((1+i) I + (1-i) Z) / 2, and no Z string stabilizes a graph state,
    # so a stray S on each of the 3 qubits leaves fidelity |(1+i)/2|^6 = 1/8
    monkeypatch.setattr("qlocal.experiments.GraphStateProgram", _PhaseSlip)
    for assignment in ({0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 0}, {0: 0, 1: 0, 2: 0}):
        fid, _ = subgraph_fidelity_case(TRIANGLE, assignment)
        dense = _dense_fidelity(TRIANGLE, assignment, _PhaseSlip)
        assert fid == pytest.approx(dense, abs=1e-12)
        assert fid == pytest.approx(1 / 8, abs=1e-12)


class _ZSlip(GraphStateProgram):
    """Builds its share, then applies a stray Z (S S) to its own qubit."""

    def _after_disentangle(self):
        self.ctx.apply("S", self.qubit)
        self.ctx.apply("S", self.qubit)


def test_subgraph_fidelity_of_an_orthogonal_state_is_zero(monkeypatch):
    # a Z string stabilizes no graph state, so Z on every qubit leaves a
    # state orthogonal to |G>: the law's origin is not all zeros
    monkeypatch.setattr("qlocal.experiments.GraphStateProgram", _ZSlip)
    for assignment in ({0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 0}, {0: 0, 1: 0, 2: 0}):
        fid, _ = subgraph_fidelity_case(TRIANGLE, assignment)
        assert fid == 0.0
        assert _dense_fidelity(TRIANGLE, assignment, _ZSlip) == pytest.approx(
            0.0, abs=1e-12
        )


def test_indicator_from_inputs():
    topo = Topology([0, 1], [(0, 1)])
    programs = {u: GraphStateProgram() for u in topo.nodes}
    run(topo, programs, rounds=2, inputs={0: b"\x01", 1: b"\x01"})
    assert programs[0].qubit is not None


def test_missing_indicator_rejected():
    # no input, and an input that is not one byte 0 or 1, alike
    topo = Topology([0, 1], [(0, 1)])
    for raw in BAD_BITS:
        with pytest.raises(ProtocolError, match="^node 0 needs one indicator bit"):
            run(topo, {u: GraphStateProgram() for u in topo.nodes}, rounds=2,
                inputs={0: raw, 1: b"\x01"})


def test_relation_protocol_outputs_follow_process_law():
    """Conditioned on an input triple, the distributed protocol's outcome
    law must equal the centralized process law exactly."""
    for d in (2, 4):
        for b in itertools.product((0, 1), repeat=3):
            dist = run_exact(
                build_script_gd(d),
                lambda: relation_protocol_programs(d),
                rounds=2,
                inputs=relation_inputs(d, b),
            )
            law = {}
            for record, p in dist.items():
                assert all(out == b"" for out in record[3 * d:])
                x = tuple(record[i][0] for i in range(3 * d))
                law[x] = law.get(x, 0.0) + p
            reference = exact_distribution(run_gates(3 * d, process_gates(d, b)))
            got = OutcomeDistribution(law, reference.space)
            assert tv_distance(got, reference) <= 1e-12, (d, b)


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("b", list(itertools.product((0, 1), repeat=3)))
def test_relation_input_nodes_hold_no_qubits(d, b):
    programs = relation_protocol_programs(d)
    result = run(build_script_gd(d), programs, rounds=2,
                 inputs=relation_inputs(d, b))
    ring_qubits = [programs[u].qubit for u in range(3 * d)]
    # raises unless the ring qubits are exactly the live ones
    dense_vector(result.arena.state, ring_qubits)
    keys, _ = result.arena.distribution_over(ring_qubits)
    assert len(keys) == (2 ** (3 * d - 1) if sum(b) % 2 else 2 ** (3 * d - 2))


@pytest.mark.parametrize("d", [8, 16, 32, 128])
def test_relation_generator_law_is_the_tableau_support(d):
    """Past the dense engine, the arena's law (path-sum reduction) against
    the support of the process circuit's stabilizer tableau: both come in
    one reduced form, so they are equal exactly when the laws are."""
    for b in itertools.product((0, 1), repeat=3):
        programs = relation_protocol_programs(d)
        result = run(build_script_gd(d), programs, rounds=2,
                     inputs=relation_inputs(d, b))
        ring_qubits = [programs[u].qubit for u in range(3 * d)]
        law = result.arena.state.generator_law(ring_qubits)
        assert law == enumerate_support(d, b), b


@pytest.mark.parametrize("d", [2, 4])
def test_sampling_input_nodes_hold_no_qubits(d):
    programs = sampling_protocol_programs(d)
    result = run(build_script_gd(d), programs, rounds=2, seed=3)
    dense_vector(result.arena.state, [programs[u].qubit for u in range(3 * d)])


class _KeepsRelaysEntangled(GraphStateProgram):
    """Discards its returned relays without the disentangling CNOT."""

    def round(self, t, inbox):
        if t != 2:
            return super().round(t, inbox)
        for relay in self._relays.values():
            self.ctx.discard(relay)
        return {}


def test_discarding_an_entangled_relay_raises():
    programs = {u: _KeepsRelaysEntangled() for u in TRIANGLE.nodes}
    with pytest.raises(EntangledDisposalError):
        run(TRIANGLE, programs, rounds=2,
            inputs=dict.fromkeys(TRIANGLE.nodes, b"\x01"))


class _SendsTwo(RelationProgram):
    """Relation input node that sends the byte 2 as its bit."""

    def _input_bit(self, ctx):
        return 2


@pytest.mark.parametrize("input_program", [GraphStateProgram, NodeProgram, _SendsTwo])
def test_corner_rejects_an_input_node_that_sends_no_bit(input_program):
    # a graph-state input node sends a relay, a bare one sends nothing, and
    # a 2 is no bit
    d = 2
    programs = relation_protocol_programs(d)
    programs[input_nodes(d)[0]] = input_program()
    with pytest.raises(ProtocolError, match="needs one input bit"):
        run(build_script_gd(d), programs, rounds=2,
            inputs=relation_inputs(d, (1, 0, 1)))


class _BadNeighbour(NodeProgram):
    """Neighbour of a graph-state node that breaks the relay exchange."""

    def __init__(self, fault):
        self.fault = fault

    def round(self, t, inbox):
        if t == 1 and self.fault != "keeps-relay":
            return {0: Message(b"", inbox[0].qubits)}  # hands the relay back
        if t != 0:
            return {}
        qubits = (self.ctx.new_qubit(),)
        payload = b"\x01"
        if self.fault == "two-qubits":
            qubits += (self.ctx.new_qubit(),)
        elif self.fault == "empty-payload":
            payload = b""
        elif self.fault == "indicator-2":
            payload = b"\x02"
        return {0: Message(payload, qubits)}


@pytest.mark.parametrize("fault", ["keeps-relay", "two-qubits",
                                   "empty-payload", "indicator-2"])
def test_graph_state_node_rejects_a_broken_relay_exchange(fault):
    topo = Topology([0, 1], [(0, 1)])
    programs = {0: GraphStateProgram(), 1: _BadNeighbour(fault)}
    with pytest.raises(ProtocolError, match="^node 0 "):
        run(topo, programs, rounds=2, inputs={0: b"\x01"})


def test_relation_inputs_shape():
    assert relation_inputs(2, (1, 0, 1)) == {6: b"\x01", 7: b"\x00", 8: b"\x01"}
    assert relation_inputs(2, np.array([1, 0, 1])) == relation_inputs(2, (1, 0, 1))
    for bad in ((1, 2, 0), (1.0, 0, 1), (True, 0, 1)):
        with pytest.raises(ValueError, match="three bits"):
            relation_inputs(2, bad)


def test_sampling_programs_declare_one_bit_at_inputs():
    programs = sampling_protocol_programs(2)
    for w in input_nodes(2):
        assert programs[w].randomness_bits == 1
    assert programs[0].randomness_bits == 0


def _affine_programs(d):
    return affine_strategy_programs(d, next(all_affine_strategies()), rounds=1)


def _relation_inputs(d):
    return relation_inputs(d, (1, 0, 1))


@pytest.mark.parametrize("build", [relation_protocol_programs,
                                   sampling_protocol_programs,
                                   _affine_programs,
                                   _relation_inputs])
def test_program_builders_check_d_and_key_every_node(build):
    # programs key every node, inputs every input node
    for bad_d in (3, -2, 4.0):
        with pytest.raises(ValueError):
            build(bad_d)
    for d in (2, 4, 6):
        keyed = input_nodes(d) if build is _relation_inputs else build_script_gd(d).nodes
        assert tuple(build(d)) == keyed


@pytest.mark.parametrize("raw", BAD_BITS, ids=["none", "empty", "two", "two-bytes"])
@pytest.mark.parametrize("build", [relation_protocol_programs, _affine_programs],
                         ids=["relation", "affine-flood"])
def test_an_input_node_reads_one_bit(build, raw):
    # the relation input node and InputFloodProgram read their bit alike
    w = input_nodes(2)[0]
    with pytest.raises(ProtocolError, match=f"^node {w} needs one input bit"):
        run(build_script_gd(2), build(2), rounds=2,
            inputs={**relation_inputs(2, (1, 0, 1)), w: raw})


def test_process_gates_keep_the_norm():
    state = run_gates(6, process_gates(2, (1, 1, 1)))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


# --- affine strategies ------------------------------------------------------


def test_admissible_strategy_count():
    strategies = list(all_affine_strategies())
    assert len(strategies) == 512
    assert all(s.is_admissible() for s in strategies)
    # 32 distinct side triples, each paired with all 16 even functions
    triples = {(s.right, s.bottom, s.left) for s in strategies}
    assert len(triples) == 32


@pytest.mark.parametrize("bit", [1.0, True, 2, -1, "1"])
def test_strategy_coefficients_follow_the_bit_rule(bit):
    with pytest.raises(ValueError, match="even needs 4 coefficient bits"):
        AffineStrategy((bit, 0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="left needs 3 coefficient bits"):
        AffineStrategy((0, 0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, bit))


def test_strategy_coefficients_are_plain_ints():
    strategy = AffineStrategy(np.ones(4, dtype=np.int64), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert strategy.even == (1, 1, 1, 1)
    assert all(type(c) is int for c in strategy.even)


def test_inadmissible_strategy_detected():
    bad = AffineStrategy((0, 0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert not bad.is_admissible()
    with pytest.raises(ValueError):
        affine_strategy_programs(4, bad, rounds=2)


def test_carrier_terms_realize_the_parities():
    # pins the one carrier table against the independent `parity_tuple`
    from qlocal.verify import parities

    for d, strategy in itertools.product((2, 4, 6), all_affine_strategies()):
        for b in itertools.product((0, 1), repeat=3):
            x = affine_output_string(d, strategy, b)
            assert parities(d, x) == strategy.parity_tuple(b), (d, strategy, b)


def test_strategy_protocol_reproduces_output_string():
    # every strategy's programs output the carrier table's string
    d = 4
    for strategy in all_affine_strategies():
        for b in ((1, 1, 1), (0, 1, 1)):
            result = run(
                build_script_gd(d),
                affine_strategy_programs(d, strategy, rounds=2),
                rounds=2,
                inputs=relation_inputs(d, b),
                classical_only=True,
            )
            got = tuple(result.outputs[i][0] for i in range(3 * d))
            assert got == affine_output_string(d, strategy, b), (strategy, b)


def test_strategy_protocol_needs_every_input_bit():
    # a silent input node leaves its bit unknown to the terms that read it
    d = 4
    strategy = AffineStrategy((0, 0, 0, 1), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    programs = affine_strategy_programs(d, strategy, rounds=2)
    programs[input_nodes(d)[2]] = NodeProgram()
    with pytest.raises(ProtocolError, match="never saw input 2"):
        run(build_script_gd(d), programs, rounds=2,
            inputs=relation_inputs(d, (1, 1, 1)), classical_only=True)


def test_round_budget_enforced():
    strategy = next(all_affine_strategies())
    with pytest.raises(ValueError):
        affine_strategy_programs(4, strategy, rounds=3)  # > d/2
    # checked before the cached table, so 2.0 cannot pass as 2
    for bad in (1.5, -1, True, 2.0, "2"):
        with pytest.raises(ValueError, match="rounds must be an integer"):
            affine_strategy_programs(4, strategy, rounds=bad)


def test_nonconstant_terms_need_visibility():
    # a side term cannot run in a single round: the bit needs one hop to
    # reach the corner and one more to reach the side carrier
    strategy = AffineStrategy((0, 0, 0, 0), (0, 1, 0), (0, 0, 0), (0, 1, 0))
    assert strategy.is_admissible()
    with pytest.raises(ValueError):
        affine_strategy_programs(4, strategy, rounds=1)


def test_constant_strategies_run_in_any_budget():
    strategy = AffineStrategy((1, 0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 0, 0))
    programs = affine_strategy_programs(8, strategy, rounds=1)
    assert len(programs) == 27


def test_carrier_terms_only_use_adjacent_labels():
    # the invariant that lets the adversary search ignore the round budget:
    # every nonconstant slot is within one hop of the corner holding its bit
    for d in range(2, 200, 2):
        for node, origin in _carrier_slots(d):
            assert origin is None or ring_distance(d, node, d * origin) <= 1, (d, node)


# --- derandomization --------------------------------------------------------


def test_derandomize_tie_is_an_error():
    topo = Topology([0, 1], [(0, 1)])
    coin = lambda node, known: {0: 0.5, 1: 0.5}
    programs = derandomize_function_protocol(topo, coin, rounds=1)
    with pytest.raises(ProtocolError):
        run(topo, programs, rounds=1, inputs={0: b"\x00", 1: b"\x00"},
            classical_only=True)


def test_derandomize_majority_output():
    topo = Topology([0, 1], [(0, 1)])
    skew = lambda node, known: {0: 0.3, 1: 0.7}
    programs = derandomize_function_protocol(topo, skew, rounds=1)
    result = run(topo, programs, rounds=1, inputs={0: b"\x00", 1: b"\x01"},
                 classical_only=True)
    assert result.outputs == {0: b"\x01", 1: b"\x01"}


@pytest.mark.parametrize(
    "node_id", [lambda c, u: (c, u), lambda c, u: f"{c}.{u}"], ids=["tuple", "str"]
)
def test_derandomize_on_node_ids(node_id):
    # node ids cross the flood as the repr of the known items and must come
    # back as the same tuples or strings
    cycle_edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    topo = Topology(
        [node_id(c, u) for c in range(2) for u in range(4)],
        [(node_id(c, a), node_id(c, b)) for c in range(2) for a, b in cycle_edges],
        allow_disconnected=True,
    )
    programs = derandomize_function_protocol(topo, xor_oracle, rounds=2)
    bits = {(0, 0): 1, (0, 1): 0, (0, 2): 1, (0, 3): 1,
            (1, 0): 0, (1, 1): 1, (1, 2): 1, (1, 3): 0}
    inputs = {node_id(*cu): bytes([b]) for cu, b in bits.items()}
    result = run(topo, programs, rounds=2, inputs=inputs, classical_only=True)
    for c, want in ((0, 1), (1, 0)):
        for u in range(4):
            assert result.outputs[node_id(c, u)] == bytes([want])


def test_flooding_sends_a_fresh_message_when_a_known_bit_changes():
    # change-only flooding: nothing new, nothing sent; a changed bit, not
    # only a grown `known`, is news and goes out in a fresh message
    prog = InputFloodProgram(2, origin=0)
    prog.init(NodeContext(LocalView("w", frozenset({0}), 2), b"\x00", (), None, False))
    first = prog.round(0, {0: EMPTY_MESSAGE})[0]
    assert first.payload == b"((0, 0),)"
    assert prog.round(1, {0: first}) is None
    update = Message(repr(((0, 1),)).encode())
    assert prog.round(1, {0: update})[0].payload == b"((0, 1),)"


@pytest.mark.parametrize(
    "payload", [b"xyz", b"\xff", b"(1, 2)", b"((0, 1, 2),)", b"((0, 1),"]
)
@pytest.mark.parametrize(
    "make",
    [lambda: DerandomizedProgram(2, xor_oracle), lambda: AffineTermProgram(2, ())],
    ids=["derandomized", "affine-term"],
)
def test_an_undecodable_flood_payload_is_a_protocol_error(make, payload):
    prog = make()
    prog.init(NodeContext(LocalView("u", frozenset({"v"}), 2), None, (), None, False))
    with pytest.raises(ProtocolError, match=r"node 'u' .* from 'v' in round 1"):
        prog.round(1, {"v": Message(payload)})


def test_a_derandomized_node_reads_one_input_byte():
    # the oracle defines the domain, so any one byte seeds; no input, nothing
    view = LocalView("u", frozenset({"v"}), 2)
    for raw, known in ((None, {}), (b"\x05", {"u": 5})):
        prog = DerandomizedProgram(2, xor_oracle)
        prog.init(NodeContext(view, raw, (), None, False))
        assert prog.known == known
    for raw in (b"", b"\x01\x00"):
        prog = DerandomizedProgram(2, xor_oracle)
        with pytest.raises(ProtocolError, match="^node 'u' needs one input byte"):
            prog.init(NodeContext(view, raw, (), None, False))


class _FullFlood(DerandomizedProgram):
    """The reference flood: re-sends all of `known` on every round call
    t < T, and an empty message while it knows nothing."""

    def round(self, t, inbox):
        for msg in inbox.values():
            if msg.payload:
                self.known.update(ast.literal_eval(msg.payload.decode()))
        if t >= self.rounds:
            return None
        items = tuple(sorted(self.known.items()))
        msg = Message(repr(items).encode()) if items else EMPTY_MESSAGE
        return dict.fromkeys(self.ctx.neighbors, msg)


class _KnownTrace(NodeProgram):
    """Runs a flooding program and records a copy of its `known` after
    every round call."""

    def __init__(self, inner):
        self.inner = inner
        self.trace = []

    def init(self, ctx):
        self.inner.init(ctx)

    def round(self, t, inbox):
        out = self.inner.round(t, inbox)
        self.trace.append(dict(self.inner.known))
        return out

    def finalize(self, measured):
        return self.inner.finalize(measured)


@pytest.mark.parametrize("ids", ["int", "tuple"])
def test_change_only_flooding_matches_full_flooding(ids):
    rng = np.random.default_rng(35)
    label = (lambda i: i) if ids == "int" else (lambda i: ("n", i % 3, i))
    for _ in range(12):
        n = int(rng.integers(2, 8))
        while True:
            edges = [(label(i), label(j)) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            try:
                topo = Topology([label(i) for i in range(n)], edges)
                break
            except ValueError:  # not connected: draw again
                continue
        inputs = {u: bytes([int(rng.integers(2))]) for u in topo.nodes
                  if rng.random() < 0.7}
        for T in range(4):
            traces, outputs = [], []
            for cls in (_FullFlood, DerandomizedProgram):
                programs = {u: _KnownTrace(cls(T, xor_oracle)) for u in topo.nodes}
                result = run(topo, programs, rounds=T, inputs=inputs,
                             classical_only=True)
                traces.append({u: p.trace for u, p in programs.items()})
                outputs.append(result.outputs)
            assert traces[0] == traces[1], (edges, inputs, T)
            assert outputs[0] == outputs[1]


def test_flooding_past_the_diameter_sends_only_while_knowledge_moves():
    # on the path 0-1-2 the ends learn the far end's bit in round call 2
    # from node 1, whose payload already holds all they know, so they send
    # nothing back; calls 2-4 send nothing, where full flooding would send
    # in all five calls 0-4
    path = Topology(range(3), [(0, 1), (1, 2)])
    programs = derandomize_function_protocol(path, xor_oracle, rounds=5)
    inputs = {0: b"\x01", 1: b"\x00", 2: b"\x01"}
    result = run(path, programs, rounds=5, inputs=inputs, classical_only=True)
    assert result.message_rounds == 2
    assert set(result.outputs.values()) == {b"\x00"}
