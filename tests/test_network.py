"""Engine semantics: round timing, locality enforcement, reproducibility,
gate validation, and agreement of the arena with the dense engine."""
import itertools
from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocal.affine import AffineSupport
from qlocal.errors import (
    LocalityError,
    ModelViolationError,
    ProtocolError,
)
from qlocal.network import (
    LocalView,
    Message,
    NodeProgram,
    QuantumArena,
    node_randomness,
    role_of,
    run,
    run_exact,
    run_sampled,
)
from qlocal.protocols import (
    AffineStrategy,
    affine_strategy_programs,
    k_copies_topology,
    relation_inputs,
    relation_protocol_programs,
)
from qlocal.statevector import GATES, Gate
from qlocal.topology import Topology, build_script_gd, input_nodes

from dense import apply_gate, dense_vector, exact_distribution, new_state

PATH2 = Topology([0, 1], [(0, 1)])


class Echo(NodeProgram):
    """Sends its id in round 0; records what arrived and when."""

    def init(self, ctx):
        self.ctx = ctx
        self.log = []

    def round(self, t, inbox):
        for v, msg in inbox.items():
            if msg.payload:
                self.log.append((t, msg.payload))
        if t == 0:
            return {v: Message(repr(self.ctx.self_id).encode())
                    for v in self.ctx.neighbors}
        return {}

    def finalize(self, measured):
        return repr(self.log).encode()


def test_round0_messages_arrive_in_round1():
    result = run(PATH2, {0: Echo(), 1: Echo()}, rounds=1)
    assert result.outputs[0] == repr([(1, b"1")]).encode()
    assert result.outputs[1] == repr([(1, b"0")]).encode()


def test_zero_round_execution_cannot_send():
    with pytest.raises(ProtocolError):
        run(PATH2, {0: Echo(), 1: Echo()}, rounds=0)


def test_sending_to_non_neighbor_rejected():
    class Bad(NodeProgram):
        def round(self, t, inbox):
            if t == 0 and self.ctx.self_id == 0:
                return {2: Message(b"x")}
            return {}

    topo = Topology([0, 1, 2], [(0, 1), (1, 2)])
    with pytest.raises(ProtocolError):
        run(topo, {u: Bad() for u in topo.nodes}, rounds=1)


def test_gate_on_unowned_qubit_raises():
    class Sender(NodeProgram):
        def round(self, t, inbox):
            if t == 0:
                self.q = self.ctx.new_qubit()
                return {1: Message(b"", (self.q,))}
            if t == 1:
                self.ctx.apply("H", self.q)  # no longer ours
            return {}

    with pytest.raises(LocalityError) as err:
        run(PATH2, {0: Sender(), 1: NodeProgram()}, rounds=1)
    assert err.value.node == 0


@pytest.mark.parametrize("kind,arity", [("H", 2), ("S", 2), ("CNOT", 1), ("CZ", 1)])
def test_gate_with_wrong_target_count_rejected(kind, arity):
    class Misuse(NodeProgram):
        def round(self, t, inbox):
            qubits = [self.ctx.new_qubit() for _ in range(arity)]
            self.ctx.apply(kind, *qubits)
            return {}

    with pytest.raises(ValueError):
        run(PATH2, {0: Misuse(), 1: NodeProgram()}, rounds=0)


def test_locality_is_checked_before_the_gate():
    arena = QuantumArena()
    mine, theirs = arena.create(0), arena.create(1)
    with pytest.raises(LocalityError):
        arena.apply(0, 0, "H", (mine, theirs))
    with pytest.raises(LocalityError):
        arena.apply(0, 0, "CNOT", (theirs,))


_QUBITS = 5


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(GATES)), st.permutations(range(_QUBITS))),
        max_size=30,
    )
)
def test_arena_agrees_with_dense_engine(ops):
    arena = QuantumArena()
    qids = [arena.create("u") for _ in range(_QUBITS)]
    state = new_state(_QUBITS)
    for kind, order in ops:
        targets = order[:GATES[kind][0]]
        arena.apply("u", 0, kind, [qids[q] for q in targets])
        state = apply_gate(state, Gate(kind, targets))
    assert np.allclose(dense_vector(arena.state, qids), state.amplitudes,
                       rtol=0, atol=1e-12)


_FUZZ_ROUNDS = 2
_NEVER_CREATED = 99


class Holder(NodeProgram):
    """Owns one qubit for the whole execution."""

    def init(self, ctx):
        self.ctx = ctx
        self.qubit = ctx.new_qubit()


class Intruder(NodeProgram):
    """Owns `mine`, hands `gone` to node 1 in round call 0 and has
    discarded `dropped`; in round call `when` it applies `action` to the
    qubit named by `target`, which it does not own."""

    def __init__(self, holder, when, target, action):
        self.holder = holder
        self.when, self.target, self.action = when, target, action

    def init(self, ctx):
        self.ctx = ctx
        self.mine = ctx.new_qubit()
        self.gone = ctx.new_qubit()
        self.dropped = ctx.new_qubit()
        ctx.discard(self.dropped)

    def round(self, t, inbox):
        out = {1: Message(b"", (self.gone,))} if t == 0 else {}
        if t != self.when:
            return out
        q = {
            "foreign": self.holder.qubit,
            "sent": self.gone,
            "discarded": self.dropped,
            "never-created": _NEVER_CREATED,
        }[self.target]
        if self.action == "send":
            out[1] = Message(b"", out.get(1, Message()).qubits + (q,))
        elif self.action == "measure":
            self.ctx.measure(q)
        elif self.action == "discard":
            self.ctx.discard(q)
        elif self.action == "CNOT":
            self.ctx.apply("CNOT", self.mine, q)
        else:
            self.ctx.apply(self.action, q)
        return out


def _intrusion_run(when, target, action):
    holder = Holder()
    programs = {0: Intruder(holder, when, target, action), 1: holder}
    return run(PATH2, programs, rounds=_FUZZ_ROUNDS)


def test_intruder_without_misuse_runs():
    _intrusion_run(None, "foreign", "H")


# In round call 0 nothing has been delivered yet, so "already sent" there
# means listing `gone` a second time in the same round call.
@pytest.mark.parametrize("when,target,action", [
    (when, target, action)
    for when in range(_FUZZ_ROUNDS + 1)
    for target in ("foreign", "sent", "discarded", "never-created")
    for action in ("H", "CNOT", "measure", "discard", "send")
    if not (when == 0 and target == "sent" and action != "send")
])
def test_locality_fuzz(when, target, action):
    with pytest.raises((LocalityError, ProtocolError)):
        _intrusion_run(when, target, action)


def test_sending_unowned_qubit_raises():
    class Forwarder(NodeProgram):
        def round(self, t, inbox):
            if t == 0 and self.ctx.self_id == 0:
                q = self.ctx.new_qubit()
                return {1: Message(b"", (q,))}
            if t == 1 and self.ctx.self_id == 0:
                # qubit 0 was created by us but transferred away last round
                return {1: Message(b"", (0,))}
            return {}

    with pytest.raises(LocalityError):
        run(PATH2, {0: Forwarder(), 1: NodeProgram()}, rounds=2)


PATH3 = Topology([0, 1, 2], [(0, 1), (1, 2)])


class FlagThenSend(NodeProgram):
    """Node 0 flags a fresh qubit and sends it to node 1 in round call 0;
    node 2 sends its input bit to node 1 at the same time. In round call 1
    node 1 applies X = H S S H to the qubit if that bit is 1, and returns
    the qubit to node 0 if `give_back`."""

    def __init__(self, give_back):
        self.give_back = give_back

    def round(self, t, inbox):
        ctx = self.ctx
        if t == 0 and ctx.self_id == 0:
            self.q = ctx.new_qubit()
            ctx.measure(self.q)
            return {1: Message(b"", (self.q,))}
        if t == 0 and ctx.self_id == 2:
            return {1: Message(ctx.input)}
        if t == 1 and ctx.self_id == 1:
            (q,) = inbox[0].qubits
            if inbox[2].payload == b"\x01":
                for kind in ("H", "S", "S", "H"):
                    ctx.apply(kind, q)
            if self.give_back:
                return {0: Message(b"", (q,))}
        return {}

    def finalize(self, measured):
        return bytes([measured[self.q]]) if self.ctx.self_id == 0 else b""


def test_flagged_qubit_sent_away_cannot_be_measured():
    # Node 0 would read node 2's input, at distance 2 > T = 1.
    programs = {u: FlagThenSend(give_back=False) for u in PATH3.nodes}
    with pytest.raises(LocalityError) as err:
        run(PATH3, programs, rounds=1, inputs={2: b"\x01"})
    assert err.value.node == 0


def test_flagged_qubit_sent_away_and_returned_is_measured():
    programs = {u: FlagThenSend(give_back=True) for u in PATH3.nodes}
    result = run(PATH3, programs, rounds=2, inputs={2: b"\x01"})
    assert result.outputs[0] == b"\x01"


def test_flagged_qubit_discarded_cannot_be_measured():
    class FlagThenDiscard(NodeProgram):
        def round(self, t, inbox):
            q = self.ctx.new_qubit()
            self.ctx.measure(q)
            self.ctx.discard(q)
            return {}

    with pytest.raises(LocalityError):
        run(PATH2, {0: FlagThenDiscard(), 1: NodeProgram()}, rounds=0)


def test_quantum_ops_blocked_in_classical_mode():
    class Quantum(NodeProgram):
        def round(self, t, inbox):
            self.ctx.new_qubit()
            return {}

    with pytest.raises(ModelViolationError):
        run(PATH2, {0: Quantum(), 1: NodeProgram()}, rounds=0,
            classical_only=True)


def test_ownership_transfers_at_round_boundary():
    class Handoff(NodeProgram):
        def round(self, t, inbox):
            if t == 0 and self.ctx.self_id == 0:
                q = self.ctx.new_qubit()
                self.ctx.apply("H", q)
                return {1: Message(b"", (q,))}
            if t == 1 and self.ctx.self_id == 1:
                (q,) = inbox[0].qubits
                self.ctx.apply("H", q)  # receiver may operate after delivery
                self.ctx.measure(q)
                self.q = q
            return {}

        def finalize(self, measured):
            if self.ctx.self_id == 1:
                return bytes([measured[self.q]])
            return b""

    result = run(PATH2, {0: Handoff(), 1: Handoff()}, rounds=1, seed=5)
    assert result.outputs[1] == b"\x00"  # HH = identity on |0>


def test_receiver_cannot_touch_a_qubit_sent_in_the_same_round_call():
    sent = []

    class Handoff(NodeProgram):
        def round(self, t, inbox):
            if t == 0 and self.ctx.self_id == 0:
                sent.append(self.ctx.new_qubit())
                return {1: Message(b"", (sent[0],))}
            if t == 0 and self.ctx.self_id == 1:
                self.ctx.apply("H", sent[0])  # still node 0's until delivery
            return {}

    with pytest.raises(LocalityError) as err:
        run(PATH2, {0: Handoff(), 1: Handoff()}, rounds=1)
    assert err.value.node == 1


# A bytearray payload or a list of qubits stays writable by its sender after
# it is sent, so a later write would reach the receiver.
@pytest.mark.parametrize("make_message", [
    lambda ctx: Message(bytearray(b"x")),
    lambda ctx: Message(b"", [ctx.new_qubit()]),
], ids=["bytearray-payload", "list-of-qubits"])
def test_mutable_message_parts_rejected(make_message):
    class Sender(NodeProgram):
        def round(self, t, inbox):
            if t == 0 and self.ctx.self_id == 0:
                return {1: make_message(self.ctx)}
            return {}

    with pytest.raises(ProtocolError, match="not bytes"):
        run(PATH2, {0: Sender(), 1: NodeProgram()}, rounds=1)


STAR = Topology([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
# The hub creates qubit j and hands it to node OWNER[j]: the leaves flag 1,
# 2 and 3 qubits, the hub keeps one entangled qubit and flags none.
OWNER = (3, 1, 0, 3, 2, 3, 2)
CIRCUIT = (
    ("H", (0,)), ("H", (2,)), ("H", (4,)), ("CNOT", (0, 1)),
    ("CS", (2, 3)), ("H", (3,)), ("CNOT", (4, 5)), ("CZ", (1, 6)),
    ("H", (6,)), ("S", (5,)), ("CNOT", (2, 6)), ("H", (5,)),
    ("CS", (0, 4)), ("H", (0,)), ("CNOT", (3, 1)), ("H", (1,)),
)


def _leaf_positions(leaf):
    """Circuit qubits of a leaf in the order it flags them: reversed."""
    return [j for j, owner in enumerate(OWNER) if owner == leaf][::-1]


class StarNode(NodeProgram):
    def init(self, ctx):
        self.ctx = ctx
        self.flags = []

    def round(self, t, inbox):
        ctx = self.ctx
        if t == 0 and ctx.self_id == 0:
            qids = [ctx.new_qubit() for _ in OWNER]
            for kind, targets in CIRCUIT:
                ctx.apply(kind, *(qids[j] for j in targets))
            out = {}
            for leaf in (1, 2, 3):
                sent = [qids[j] for j in _leaf_positions(leaf)[::-1]]
                out[leaf] = Message(b"", tuple(sent))
            return out
        if t == 1 and ctx.self_id != 0:
            self.flags = list(inbox[0].qubits[::-1])
            for q in self.flags:
                ctx.measure(q)
        return {}

    def finalize(self, measured):
        return bytes(measured[q] for q in self.flags)


def test_run_exact_matches_the_dense_law_across_flag_widths():
    state = new_state(len(OWNER))
    for kind, targets in CIRCUIT:
        state = apply_gate(state, Gate(kind, targets))
    expected = {}
    for bits, p in exact_distribution(state).items():
        record = (b"",) + tuple(
            bytes(bits[j] for j in _leaf_positions(leaf)) for leaf in (1, 2, 3)
        )
        expected[record] = expected.get(record, 0.0) + p
    law = run_exact(STAR, lambda: {u: StarNode() for u in STAR.nodes}, rounds=1)
    assert len(expected) > 8
    for record in set(expected) | set(law.entries):
        assert law.probability(record) == pytest.approx(
            expected.get(record, 0.0), abs=1e-12
        )


class CountingCoins(NodeProgram):
    """Flags `width` qubits in |+> and logs every finalize call."""

    randomness_bits = 1

    def __init__(self, width, branch, calls):
        self.width, self.branch, self.calls = width, branch, calls

    def round(self, t, inbox):
        self.flags = [self.ctx.new_qubit() for _ in range(self.width)]
        for q in self.flags:
            self.ctx.apply("H", q)
            self.ctx.measure(q)
        return {}

    def finalize(self, measured):
        self.calls.append(
            (self.branch, self.ctx.self_id, tuple(sorted(measured.items())))
        )
        return bytes(measured[q] for q in self.flags)


def test_finalize_runs_once_per_value_of_the_node_bits():
    topo = Topology([0, 1, 2], [(0, 1), (1, 2)])
    widths = {0: 2, 1: 0, 2: 1}
    calls = []
    branches = iter(range(100))

    def make_programs():
        branch = next(branches)
        return {u: CountingCoins(w, branch, calls) for u, w in widths.items()}

    law = run_exact(topo, make_programs, rounds=0)
    assert len(law) == 8  # 2^3 terminal keys per branch, 8 branches
    assert len(calls) == len(set(calls))
    per_node = {}
    for branch, node, _ in calls:
        per_node[branch, node] = per_node.get((branch, node), 0) + 1
    assert len({branch for branch, _ in per_node}) == 8
    assert all(n == 2 ** widths[node] for (_, node), n in per_node.items())

    calls.clear()
    run_sampled(topo, make_programs(), rounds=0, shots=200)
    per_node = {}
    for _, node, _ in calls:
        per_node[node] = per_node.get(node, 0) + 1
    assert all(n <= 2 ** widths[node] for node, n in per_node.items())
    assert per_node[1] == 1


def test_message_rounds_counts_the_round_calls_that_send():
    class SendsIn0And2(NodeProgram):
        def round(self, t, inbox):
            if self.ctx.self_id == 0 and t in (0, 2):
                return {1: Message(b"x")}
            return {}

    result = run(PATH2, {0: SendsIn0And2(), 1: SendsIn0And2()}, rounds=3)
    assert result.message_rounds == 2


def test_message_rounds_is_zero_without_messages():
    result = run(PATH2, {0: NodeProgram(), 1: NodeProgram()}, rounds=2)
    assert result.message_rounds == 0


def test_runs_with_the_same_seed_are_equal():
    a = run(PATH2, {0: Echo(), 1: Echo()}, rounds=1, seed=9)
    b = run(PATH2, {0: Echo(), 1: Echo()}, rounds=1, seed=9)
    assert (a.outputs, a.message_rounds) == (b.outputs, b.message_rounds)
    assert a.message_rounds == 1


class ReversedOutbox(NodeProgram):
    """Runs another program but returns each outbox in reverse order."""

    def __init__(self, inner):
        self.inner = inner
        self.randomness_bits = inner.randomness_bits

    def init(self, ctx):
        self.inner.init(ctx)

    def round(self, t, inbox):
        out = self.inner.round(t, inbox) or {}
        return dict(reversed(out.items()))

    def finalize(self, measured):
        return self.inner.finalize(measured)


def _reversed(programs):
    return {u: ReversedOutbox(p) for u, p in programs.items()}


def _unchanged(programs):
    return programs


def test_outbox_order_leaves_results_unchanged():
    d, b = 2, (1, 0, 1)

    def relation_records(wrap):
        return run_sampled(
            build_script_gd(d), wrap(relation_protocol_programs(d)),
            rounds=2, shots=50, seed=11, inputs=relation_inputs(d, b),
        )

    assert relation_records(_reversed) == relation_records(_unchanged)

    d, k = 4, 2
    # Nonconstant terms on every side, so outputs read relayed input bits.
    strategy = AffineStrategy((0, 1, 0, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1))
    inputs = {
        (c, w): bytes([bit])
        for c, b in enumerate([(0, 1, 1), (1, 1, 0)])
        for w, bit in zip(input_nodes(d), b)
    }

    def k_copies_outputs(wrap):
        programs = {
            (c, u): p
            for c in range(k)
            for u, p in wrap(affine_strategy_programs(d, strategy, 2)).items()
        }
        return run(k_copies_topology(d, k), programs, rounds=2,
                   inputs=inputs, classical_only=True).outputs

    assert k_copies_outputs(_reversed) == k_copies_outputs(_unchanged)


def test_node_randomness_is_stable_and_seed_dependent():
    r1 = node_randomness(7, "u", 16)
    assert r1 == node_randomness(7, "u", 16)
    assert r1 != node_randomness(8, "u", 16)
    assert node_randomness(7, "u", 0) == ()


class CoinFlip(NodeProgram):
    randomness_bits = 1

    def finalize(self, measured):
        return bytes([self.ctx.randomness[0]])


def test_run_exact_enumerates_randomness():
    dist = run_exact(PATH2, lambda: {0: CoinFlip(), 1: CoinFlip()}, rounds=0)
    assert len(dist) == 4
    for p in dist.entries.values():
        assert abs(p - 0.25) < 1e-12


def test_run_exact_rejects_a_build_that_changes_its_randomness_width():
    # the probe build declares no bits and every later build one: the node
    # must not run on bits that no branch enumerated
    widths = itertools.chain([0], itertools.repeat(1))

    def make_programs():
        coin = CoinFlip()
        coin.randomness_bits = next(widths)
        return {0: coin}

    with pytest.raises(ValueError, match="random bits"):
        run_exact(Topology([0], []), make_programs, rounds=0)


def test_run_sampled_matches_single_runs_shape():
    # one record per shot: the node outputs, in node order
    outs = run_sampled(PATH2, {0: Echo(), 1: Echo()}, rounds=1, shots=3)
    heard = (repr([(1, b"1")]).encode(), repr([(1, b"0")]).encode())
    assert outs == [heard] * 3
    d = 2
    topology = build_script_gd(d)
    (record,) = run_sampled(
        topology, relation_protocol_programs(d), rounds=2, shots=1, seed=4,
        inputs=relation_inputs(d, (1, 0, 1)),
    )
    assert len(record) == topology.num_nodes == 3 * d + 3
    assert all(len(out) == 1 for out in record[:3 * d])
    assert record[3 * d:] == (b"", b"", b"")


def test_one_shot_of_run_sampled_is_the_record_of_run():
    # both runners draw through one rng seeded alike
    d = 4
    topology = build_script_gd(d)
    for b in itertools.product((0, 1), repeat=3):
        for seed in (0, 1, 7, 1234):
            kwargs = dict(seed=seed, inputs=relation_inputs(d, b))
            (record,) = run_sampled(
                topology, relation_protocol_programs(d), 2, shots=1, **kwargs
            )
            outputs = run(
                topology, relation_protocol_programs(d), 2, **kwargs
            ).outputs
            assert record == tuple(outputs[u] for u in topology.nodes)


def test_missing_program_rejected():
    with pytest.raises(ValueError):
        run(PATH2, {0: Echo()}, rounds=1)


@pytest.mark.parametrize("degree,role", [(1, "input-node"), (2, "side"),
                                         (3, "corner")])
def test_role_of(degree, role):
    view = LocalView(0, frozenset(range(1, degree + 1)), 10)
    assert role_of(view) == role


def test_role_of_rejects_degree_4():
    with pytest.raises(ProtocolError):
        role_of(LocalView(0, frozenset(range(1, 5)), 10))


class TwoQubitLaw(NodeProgram):
    """Flags two fresh qubits after H on each and then the given gates."""

    def __init__(self, gates):
        self.gates = gates

    def round(self, t, inbox):
        self.flags = [self.ctx.new_qubit(), self.ctx.new_qubit()]
        for kind, targets in self.gates:
            self.ctx.apply(kind, *(self.flags[j] for j in targets))
        for q in self.flags:
            self.ctx.measure(q)
        return {}

    def finalize(self, measured):
        return bytes(measured[q] for q in self.flags)


def _two_qubit_draws(gates, shots, seed):
    """(law keys, law probabilities, the generator law or None, the key
    each shot drew)."""
    arena = QuantumArena()
    qids = [arena.create(0), arena.create(0)]
    for kind, targets in [("H", (0,)), ("H", (1,))] + gates:
        arena.apply(0, 0, kind, [qids[j] for j in targets])
    keys, probs = arena.distribution_over(qids)
    law = arena.state.generator_law(qids)
    topo = Topology([0], [])
    outputs = run_sampled(
        topo, {0: TwoQubitLaw([("H", (0,)), ("H", (1,))] + gates)},
        rounds=0, shots=shots, seed=seed,
    )
    drawn = np.array([out[0][0] | out[0][1] << 1 for out in outputs])
    return keys, probs, law, drawn


def _within_binomial_tolerance(keys, probs, drawn):
    # each key's count is Binomial(shots, p): allow 5 standard deviations
    shots = len(drawn)
    for key, p in zip(keys, probs):
        count = int(np.sum(drawn == key))
        assert abs(count - shots * p) <= 5 * np.sqrt(shots * p * (1 - p))


def test_a_uniform_law_is_drawn_uniformly():
    keys, probs, law, drawn = _two_qubit_draws([], shots=4000, seed=3)
    assert keys.tolist() == [0, 1, 2, 3]
    assert probs.tolist() == [0.25] * 4
    _within_binomial_tolerance(keys, probs, drawn)
    # shot i is origin xor the columns its row of uniform bits r selects
    assert law == AffineSupport(2, 0, (0b01, 0b10))
    r = np.random.default_rng(3).integers(2, size=(4000, 2), dtype=np.uint8)
    replay = [
        reduce(xor, (c for c, bit in zip(law.columns, row) if bit), law.origin)
        for row in r.tolist()
    ]
    assert drawn.tolist() == replay


def test_a_non_uniform_law_is_drawn_with_its_probabilities():
    # CS then H on qubit 1, key bit j = qubit j: P(0) = 1/2, P(1) = P(3) = 1/4
    # and key 2 stays in the law with probability 0
    keys, probs, law, drawn = _two_qubit_draws(
        [("CS", (0, 1)), ("H", (1,))], shots=4000, seed=3
    )
    assert law is None  # CS leaves Q non-Clifford
    assert keys.tolist() == [0, 1, 2, 3]
    assert probs == pytest.approx([0.5, 0.25, 0.0, 0.25], abs=1e-12)
    _within_binomial_tolerance(keys, probs, drawn)
    picks = np.random.default_rng(3).choice(len(keys), p=probs, size=4000)
    assert drawn.tolist() == keys[picks].tolist()
