"""The concrete node programs: distributed graph-state construction, the
ring measurement protocols, classical affine strategies, and the
derandomization transformer.

The graph-state protocol is 2 rounds: round 0 each node entangles a fresh
relay register per neighbor with its own qubit and ships it out together
with its indicator bit; round 1 each node applies CS between its qubit and
every received relay whose two endpoints are both selected, then ships the
relays back; the final round call disentangles and discards the relays.
The pair of CS gates across an edge composes to CZ between the endpoint
qubits, which is exactly the graph-state entangler.
"""
from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import ProtocolError
from .network import Message, NodeProgram, role_of
from .statevector import graph_state_gates
from .topology import (
    Topology,
    build_gd,
    build_script_gd,
    check_count,
    check_even_d,
    corner_nodes,
    disjoint_copies,
    input_nodes,
    is_count,
    ring_distance,
)


class GraphStateProgram(NodeProgram):
    """Distributed 2-round subgraph graph-state construction.

    The indicator bit is the node's LOCAL-model input: `ctx.input` is one
    byte, 0 or 1. After the run, `self.qubit` is the node's share of the
    constructed state (|+> for unselected nodes).
    """

    def _indicator(self, ctx):
        return _read_bit(ctx.self_id, "indicator bit", ctx.input)

    def init(self, ctx):
        self.ctx = ctx
        self.c = self._indicator(ctx)
        self.qubit = None
        self._relays = {}

    def _after_disentangle(self):
        pass

    def round(self, t, inbox):
        ctx = self.ctx
        neighbors = sorted(ctx.neighbors)
        if t == 0:
            q = ctx.new_qubit()
            ctx.apply("H", q)
            self.qubit = q
            out = {}
            for v in neighbors:
                relay = ctx.new_qubit()
                ctx.apply("CNOT", q, relay)
                self._relays[v] = relay
                out[v] = Message(bytes([self.c]), (relay,))
            return out
        if t == 1:
            out = {}
            for v in neighbors:
                msg = inbox[v]
                if not msg.qubits:
                    continue  # a classical neighbor: no edge to entangle
                if len(msg.qubits) != 1:
                    raise ProtocolError(f"node {ctx.self_id!r} needs one relay from {v!r}")
                (relay,) = msg.qubits
                c = _read_bit(ctx.self_id, f"indicator bit from {v!r}", msg.payload)
                if self.c and c:
                    ctx.apply("CS", self.qubit, relay)
                out[v] = Message(b"", (relay,))
            return out
        if t == 2:
            for v in neighbors:
                relay = self._relays[v]
                if inbox[v].qubits != (relay,):
                    raise ProtocolError(
                        f"node {ctx.self_id!r} did not get its relay back "
                        f"from {v!r}"
                    )
                ctx.apply("CNOT", self.qubit, relay)
                ctx.discard(relay)
            self._after_disentangle()
        return {}


class GraphStateSampleProgram(GraphStateProgram):
    """Subgraph construction followed by an H-basis measurement of the
    node's qubit. The locality tests run it as is; `RelationProgram`
    extends it with the corners' conditional phase."""

    def _after_disentangle(self):
        self.ctx.apply("H", self.qubit)
        self.ctx.measure(self.qubit)

    def finalize(self, measured):
        return bytes([measured[self.qubit]])


class RelationProgram(GraphStateSampleProgram):
    """One node of the 2-round ring-measurement protocol.

    Roles are read off the degree. A degree-1 input node is classical: it
    sends its bit to its corner in round 0 and hands the corner's relay
    back untouched in round 1. The ring nodes build the graph state;
    degree-3 corners apply the conditional phase; every ring node ends
    with H and a measurement.
    """

    def _indicator(self, ctx):
        return 1

    def _input_bit(self, ctx):
        return _read_bit(ctx.self_id, "input bit", ctx.input)

    def init(self, ctx):
        self.role = role_of(ctx.view)
        self.b = self._input_bit(ctx) if self.role == "input-node" else None
        super().init(ctx)

    def round(self, t, inbox):
        if self.role == "input-node":
            (corner,) = self.ctx.neighbors
            if t == 0:
                return {corner: Message(bytes([self.b]))}
            if t == 1:
                return {corner: Message(b"", inbox[corner].qubits)}
            return {}
        if t == 1 and self.role == "corner":
            bits = [m.payload for m in inbox.values() if not m.qubits]
            self.b = _read_bit(self.ctx.self_id, "input bit from its input node",
                               bits[0] if len(bits) == 1 else None)
        return super().round(t, inbox)

    def _after_disentangle(self):
        if self.role == "corner" and self.b:
            self.ctx.apply("S", self.qubit)
        super()._after_disentangle()

    def finalize(self, measured):
        if self.role == "input-node":
            return b""
        return super().finalize(measured)


class SamplingInputProgram(RelationProgram):
    """Input node of the sampling protocol: draws its bit from its finite
    random string and outputs it."""

    randomness_bits = 1

    def _input_bit(self, ctx):
        return ctx.randomness[0]

    def finalize(self, measured):
        return bytes([self.b])


def relation_protocol_programs(d: int) -> dict:
    """Programs for every node of the augmented ring; input bits are fed
    through the runner's `inputs` map (see `relation_inputs`)."""
    check_even_d(d)
    return {u: RelationProgram() for u in (*range(3 * d), *input_nodes(d))}


def relation_inputs(d: int, b) -> dict:
    check_even_d(d)
    b = _check_bits(b)
    return {w: bytes([bit]) for w, bit in zip(input_nodes(d), b)}


def sampling_protocol_programs(d: int) -> dict:
    check_even_d(d)
    programs = {u: RelationProgram() for u in range(3 * d)}
    for w in input_nodes(d):
        programs[w] = SamplingInputProgram()
    return programs


def k_copies_topology(d: int, k: int) -> Topology:
    return disjoint_copies(build_script_gd(d), k)


def _is_bit(x) -> bool:
    """The one rule for bits: 0 or 1 by `is_count`'s, so not 1.0 or True."""
    return is_count(x, 0) and x <= 1


def _read_bit(node, what, raw) -> int:
    """The one rule for a bit a node reads: one byte, 0 or 1, else a ProtocolError."""
    if raw in (b"\0", b"\1"):
        return raw[0]
    raise ProtocolError(f"node {node!r} needs one {what}, got {raw!r}")


def _check_bits(b) -> tuple:
    b = tuple(b)
    if len(b) != 3 or not all(map(_is_bit, b)):
        raise ValueError("input must be three bits")
    return tuple(map(int, b))


def process_gates(d: int, b) -> list:
    """The ring measurement process as a Clifford circuit on 3d qubits:
    graph state on the 3d-ring, conditional S at the corners, H everywhere.
    `verify.enumerate_support` runs it on a stabilizer tableau, and the
    tests run it densely as the reference."""
    b = _check_bits(b)
    gates = graph_state_gates(build_gd(d))
    gates += [("S", (d * i,)) for i, bit in enumerate(b) if bit]
    gates += [("H", (q,)) for q in range(3 * d)]
    return gates


# --- classical affine strategies -------------------------------------------


@dataclass(frozen=True)
class AffineStrategy:
    """Coefficients of the four affine parity functions.

    even:   q_E(b0,b1,b2) = e[0] ^ e[1]b0 ^ e[2]b1 ^ e[3]b2
    right:  q_R(b0,b1)    = r[0] ^ r[1]b0 ^ r[2]b1
    bottom: q_B(b1,b2)    = t[0] ^ t[1]b1 ^ t[2]b2
    left:   q_L(b0,b2)    = l[0] ^ l[1]b0 ^ l[2]b2
    """

    even: tuple
    right: tuple
    bottom: tuple
    left: tuple

    def __post_init__(self):
        for name, coeffs, width in (
            ("even", self.even, 4),
            ("right", self.right, 3),
            ("bottom", self.bottom, 3),
            ("left", self.left, 3),
        ):
            coeffs = tuple(coeffs)
            if len(coeffs) != width or not all(map(_is_bit, coeffs)):
                raise ValueError(f"{name} needs {width} coefficient bits")
            object.__setattr__(self, name, tuple(map(int, coeffs)))

    def is_admissible(self) -> bool:
        """q_R ^ q_B ^ q_L vanishes on all eight inputs."""
        return all(
            r ^ t ^ l == 0
            for _, r, t, l in map(self.parity_tuple, product((0, 1), repeat=3))
        )

    def parity_tuple(self, b) -> tuple:
        """(q_E, q_R, q_B, q_L) on input b = (b0, b1, b2)."""
        b0, b1, b2 = b
        e, r, t, l = self.even, self.right, self.bottom, self.left
        return (
            e[0] ^ (e[1] & b0) ^ (e[2] & b1) ^ (e[3] & b2),
            r[0] ^ (r[1] & b0) ^ (r[2] & b1),
            t[0] ^ (t[1] & b1) ^ (t[2] & b2),
            l[0] ^ (l[1] & b0) ^ (l[2] & b2),
        )


def _coefficient_bits(strategy: AffineStrategy) -> tuple:
    """The strategy's 13 coefficient bits in `_carrier_slots` order."""
    return strategy.even + strategy.right + strategy.bottom + strategy.left


def _carrier_slots(d: int) -> tuple:
    """The one carrier layout of the affine family: for each coefficient
    bit, in `_coefficient_bits` order, the ring node that outputs its term
    and the input index the term reads, or None for a constant. Every
    nonconstant term rides on or next to the corner holding its input bit,
    and no two slots share a (node, input) pair."""
    check_even_d(d)
    c0, c1, c2 = corner_nodes(d)
    return (
        (c0, None), (c0, 0), (c1, 1), (c2, 2),  # even: the corners
        # each side: the odd nodes nearest the corner holding the visible bit
        (1, None), (1, 0), (d - 1, 1),
        (d + 1, None), (d + 1, 1), (2 * d - 1, 2),
        (2 * d + 1, None), (3 * d - 1, 0), (2 * d + 1, 2),
    )


def _set_slots(d: int, strategy: AffineStrategy) -> list:
    """The (node, input index or None) slots of the strategy's set bits."""
    return [slot for bit, slot in zip(_coefficient_bits(strategy), _carrier_slots(d)) if bit]


# Flooding nodes send and receive the same few payloads in every execution,
# so both directions of the codec are memoized. They are pure, and a
# `Message` is immutable, so one cached message may go to any node.
# `literal_eval` gives back node ids as they were sent, tuples and strings alike.
@lru_cache(maxsize=4096)
def _encode_known(items: tuple) -> Message:
    """The message of a `known` dict's sorted items."""
    return Message(repr(items).encode())


@lru_cache(maxsize=4096)
def _decode_known(payload: bytes):
    """The (node, bit) pairs of a nonempty payload, as a dict's read-only
    items view so that no caller can change the cached value."""
    return dict(ast.literal_eval(payload.decode())).items()


class _FloodingProgram(NodeProgram):
    """Classical full-information flooding for T rounds; subclasses decide
    what seeds the flood and what to output.

    Change-only: a node sends `known` in a round call t < T only if
    `known` changed since its last send (a seeded node sends in round 0),
    and returns None otherwise. It skips each neighbor whose payload in
    this call already holds all of `known` and all of the node's last
    send, so no bit of it changed: that neighbor has nothing to learn.
    Every node's `known` after every round call is the same as if all
    nodes re-sent it to every neighbor each round, since a pair a node
    already held reached its neighbors the round it first arrived, and a
    skipped neighbor already holds all it would get.
    """

    def __init__(self, rounds: int):
        self.rounds = rounds

    def _seed_known(self, ctx) -> dict:
        return {}

    def init(self, ctx):
        self.ctx = ctx
        self.known = self._seed_known(ctx)
        self._fresh = bool(self.known)  # changed since the last send
        self._told = b""  # the payload of its last send

    def round(self, t, inbox):
        heard = ()  # (neighbor, its pairs) per payload of this call
        for v, msg in inbox.items():
            if msg.payload:
                try:
                    pairs = _decode_known(msg.payload)
                except (ValueError, TypeError, SyntaxError) as err:
                    raise ProtocolError(
                        f"node {self.ctx.self_id!r} got a flood payload from "
                        f"{v!r} in round {t} that is not (node, value) pairs"
                    ) from err
                heard += ((v, pairs),)
                if not self.known.items() >= pairs:
                    self.known.update(pairs)
                    self._fresh = True
        if self._fresh and t < self.rounds:
            self._fresh = False
            known, told = self.known.items(), self._told
            msg = _encode_known(tuple(sorted(known)))
            out = dict.fromkeys(self.ctx.neighbors, msg)
            for v, pairs in heard:
                if pairs >= known and (not told or pairs >= _decode_known(told)):
                    del out[v]
            if out:
                self._told = msg.payload
            return out
        return None


class AffineTermProgram(_FloodingProgram):
    """Ring node of a classical affine strategy: floods, then outputs the
    XOR of its slots' unit outputs, 1 for a constant (origin None) and the
    input bit it has seen otherwise. `origins` holds one origin per slot."""

    def __init__(self, rounds, origins: tuple):
        self.rounds = rounds
        self.origins = origins

    def finalize(self, measured):
        bit = 0
        for origin in self.origins:
            if origin is not None and origin not in self.known:
                raise ProtocolError(
                    f"node {self.ctx.self_id!r} never saw input {origin}"
                )
            bit ^= origin is None or self.known[origin]
        return bytes([bit])


class InputFloodProgram(_FloodingProgram):
    """Degree-1 input node for classical strategies: floods its bit, and
    outputs nothing (relation game)."""

    def __init__(self, rounds, origin):
        self.rounds = rounds
        self.origin = origin

    def _seed_known(self, ctx):
        return {self.origin: _read_bit(ctx.self_id, "input bit", ctx.input)}


def affine_strategy_programs(d: int, strategy: AffineStrategy, rounds: int) -> dict:
    """A classical `rounds`-round protocol realizing the strategy's four
    parity functions on the augmented ring.

    Raises ValueError unless d is an even integer >= 2 and rounds an
    integer in 0..d/2, if the strategy is not admissible, or if some
    nonconstant term cannot reach its carrier within the round budget (the
    input bit travels one hop from the input node first). d and rounds are
    checked before the cached carrier table is read, so 2.0 never passes
    for 2.
    """
    check_even_d(d)
    check_count("rounds", rounds, 0)
    carriers = _checked_carriers(d, strategy, rounds)
    programs = {u: AffineTermProgram(rounds, carriers.get(u, ())) for u in range(3 * d)}
    for i, w in enumerate(input_nodes(d)):
        programs[w] = InputFloodProgram(rounds, i)
    return programs


# k-copies builds one strategy's programs per copy and input; every program
# shares the cached table's origin tuples.
@lru_cache(maxsize=1024)
def _checked_carriers(d: int, strategy: AffineStrategy, rounds: int) -> dict:
    """{ring node: the origins of its set slots, None for a constant} by
    `_set_slots`, once `affine_strategy_programs`' checks pass."""
    if rounds > d // 2:
        raise ValueError(f"rounds={rounds} exceeds d/2={d // 2}")
    if not strategy.is_admissible():
        raise ValueError("strategy violates the side-parity constraint")
    carriers = {}
    for node, origin in _set_slots(d, strategy):
        if origin is not None and ring_distance(d, node, d * origin) + 1 > rounds:
            raise ValueError(
                f"node v_{node} cannot see input {origin} within {rounds} rounds"
            )
        carriers[node] = carriers.get(node, ()) + (origin,)
    return carriers


def affine_output_string(d: int, strategy: AffineStrategy, b) -> tuple:
    """The full 3d-bit string the strategy's protocol outputs on input b."""
    b = _check_bits(b)
    bits = [0] * (3 * d)
    for node, origin in _set_slots(d, strategy):
        bits[node] ^= origin is None or b[origin]
    return tuple(bits)


def all_affine_strategies():
    """Every admissible strategy: 16 even-parity functions times the 32
    side triples satisfying the parity constraint."""
    for even in product((0, 1), repeat=4):
        for right in product((0, 1), repeat=3):
            for bottom in product((0, 1), repeat=3):
                # constraint forces the left coefficients and ties constants
                if right[2] == bottom[1]:
                    left = (right[0] ^ bottom[0], right[1], bottom[2])
                    yield AffineStrategy(even, right, bottom, left)


# --- derandomization of function-computing protocols ------------------------


class DerandomizedProgram(_FloodingProgram):
    """Deterministic T-round protocol from an output-distribution oracle:
    flood all inputs T hops, then output the most probable value."""

    def __init__(self, rounds, oracle):
        super().__init__(rounds)
        self.oracle = oracle

    def _seed_known(self, ctx):
        if ctx.input is None:
            return {}
        if len(ctx.input) != 1:  # one byte: the oracle defines its domain
            raise ProtocolError(
                f"node {ctx.self_id!r} needs one input byte, got {ctx.input!r}"
            )
        return {ctx.self_id: ctx.input[0]}

    def finalize(self, measured):
        dist = self.oracle(self.ctx.self_id, dict(self.known))
        ranked = sorted(dist.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        if len(ranked) > 1 and abs(ranked[0][1] - ranked[1][1]) < 1e-12:
            raise ProtocolError(
                f"oracle mode tie at node {self.ctx.self_id!r}; the reference "
                f"protocol cannot succeed with probability above 1/2"
            )
        return bytes([ranked[0][0]])


def derandomize_function_protocol(topology: Topology, oracle, rounds: int) -> dict:
    """Programs computing, at every node, the mode of the oracle's output
    distribution given the inputs in the node's T-neighborhood."""
    return {u: DerandomizedProgram(rounds, oracle) for u in topology.nodes}
