"""Round-synchronous execution engine for the classical and quantum LOCAL model.

A T-round execution calls each node program's `round` method T+1 times
(t = 0 .. T). Messages produced in call t are delivered before call t+1;
sending anything in the final call is an error, since there is no round
left to deliver it. Quantum messages are realized as qubit-ownership
transfer inside one global arena, so locality is mechanically enforced:
a program can only touch qubits its node currently owns, and at the
terminal measurement it learns the outcomes of the qubits it owns then.

All randomness is finite and handed out at init: a program declares
`randomness_bits` and receives exactly that many bits, derived from
(run seed, node id) by `run` and `run_sampled`, so executions replay, and
enumerated branch by branch by `run_exact`.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .distributions import OutcomeDistribution
from .errors import (
    LocalityError,
    ModelViolationError,
    ProtocolError,
    ResourceLimitError,
)
from .sparse import PathSum
from .statevector import check_gate
from .topology import Topology, check_count, is_count

# Largest total randomness _exact_branches enumerates, in bits.
MAX_RANDOM_BITS = 24


@dataclass(frozen=True)
class LocalView:
    """What a node knows a priori: itself, its incident edges, and n."""

    self_id: object
    neighbors: frozenset
    num_nodes: int

    @property
    def degree(self) -> int:
        return len(self.neighbors)


def role_of(view: LocalView) -> str:
    """Node role in the augmented-ring network, read off the degree."""
    if view.degree == 1:
        return "input-node"
    if view.degree == 3:
        return "corner"
    if view.degree == 2:
        return "side"
    raise ProtocolError(
        f"degree {view.degree} does not occur in an augmented-ring network"
    )


@dataclass(frozen=True)
class Message:
    payload: bytes = b""
    qubits: tuple = ()


EMPTY_MESSAGE = Message()


class NodeProgram:
    """Per-node behavior: init, one handler per round call, finalize.

    `round` returns {neighbor: Message}; None or an empty dict sends
    nothing. A `Message` is immutable, so one object may go to several
    neighbors. The engine never mutates an outbox, so a program may return
    one dict in several rounds; it checks every entry each time. Every node
    gets a fresh inbox each round call, holding each neighbor's message or
    `EMPTY_MESSAGE`. `ctx.view` is immutable and shared: it is built once
    per topology.
    `finalize(measured)` gets the terminal outcome of each qubit flagged via
    `ctx.measure`. It must be pure and return bytes: the runners call it
    once per distinct value of those bits and share the one result.
    """

    randomness_bits = 0

    def init(self, ctx):
        self.ctx = ctx

    def round(self, t: int, inbox: dict) -> dict:
        return {}

    def finalize(self, measured: dict) -> bytes:
        return b""


def _bit_rows(values, width) -> np.ndarray:
    """One uint8 row per nonnegative Python int, however wide: bit j of the
    int in column j."""
    size = (width + 7) // 8
    raw = b"".join(v.to_bytes(size, "little") for v in values)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(values), size)
    return np.unpackbits(rows, axis=1, count=width, bitorder="little")


class QuantumArena:
    """One global path-sum state plus a qubit-ownership map."""

    def __init__(self):
        self.state = PathSum()
        self._owner = {}
        self._qids = itertools.count()

    def create(self, owner) -> int:
        qid = next(self._qids)
        self.state.add(qid)
        self._owner[qid] = owner
        return qid

    def _check_owned(self, node, round_index, qids):
        """The one locality check: gates, discards, flags, sends and the
        terminal measurement all go through it."""
        for qid in qids:
            if self._owner.get(qid) != node:
                raise LocalityError(node, round_index, qid)

    def apply(self, node, round_index, kind, qids):
        try:
            self._check_owned(node, round_index, qids)
        except TypeError:  # qids is not a sequence: check_gate says so
            check_gate(kind, qids)
            raise
        check_gate(kind, qids)
        self.state.apply(kind, qids)

    def discard(self, node, round_index, qid):
        self._check_owned(node, round_index, [qid])
        self.state.discard(qid)
        del self._owner[qid]

    def transfer(self, moves):
        """Hand each qubit of `moves` ({qid: node}) to its new owner."""
        self._owner.update(moves)

    def distribution_over(self, qids):
        return self.state.distribution_over(qids)

    def sample_over(self, qids, shots, rng) -> np.ndarray:
        """`shots` draws of the given qubits' terminal measurement: a
        shots x len(qids) bit matrix, qids[j] in column j. A stabilizer law,
        an `AffineSupport`, is drawn as origin xor r B, for r uniform bits
        over its columns B; any other law key by key from its enumeration."""
        law = self.state.generator_law(qids)
        if law is None:
            keys, probs = self.state.distribution_over(qids)
            picks = keys[rng.choice(len(keys), p=probs, size=shots)]
            return _bit_rows(picks.tolist(), len(qids))
        r = rng.integers(2, size=(shots, law.dim), dtype=np.uint8)
        # float32 sums < 2^24 are exact; uint8 casts past 255 are undefined
        x = r.astype(np.float32) @ _bit_rows(law.columns, len(qids))
        x = x.astype(np.int32) & 1
        return x.astype(np.uint8) ^ _bit_rows([law.origin], len(qids))


class NodeContext:
    """A node program's handle onto the execution: view, input, randomness,
    and ownership-checked quantum operations. These act as the node the
    engine assigned, so rebinding `view` or `self_id` gains no qubit."""

    def __init__(self, view, input_bytes, randomness, arena, allow_quantum):
        self.view = view
        self.self_id = self._node = view.self_id
        self.neighbors = view.neighbors
        self.input = input_bytes
        self.randomness = randomness
        self._arena = arena
        self._allow_quantum = allow_quantum
        self._round = 0
        self._measure_flags = []

    def _quantum(self):
        if not self._allow_quantum:
            raise ModelViolationError(
                f"node {self._node!r} attempted a quantum operation in a "
                f"classical-only execution"
            )
        return self._arena

    def new_qubit(self) -> int:
        return self._quantum().create(self._node)

    def apply(self, kind, *qubits):
        self._quantum().apply(self._node, self._round, kind, qubits)

    def discard(self, qubit):
        self._quantum().discard(self._node, self._round, qubit)

    def measure(self, qubit):
        """Flag a qubit for the terminal computational-basis measurement."""
        self._quantum()._check_owned(self._node, self._round, [qubit])
        self._measure_flags.append(qubit)


@dataclass
class ExecutionResult:
    outputs: dict
    # round calls in which some node sent a message; a flood sends only
    # while some node's knowledge still changes
    message_rounds: int
    arena: QuantumArena


def node_randomness(seed: int, node, nbits: int) -> tuple:
    """The node's finite random string, derived from (seed, node id)."""
    if nbits == 0:
        return ()
    digest = hashlib.sha256(f"{seed}/{node!r}".encode()).digest()
    stream = int.from_bytes(digest, "big")
    if nbits > 256:
        raise ResourceLimitError("per-node randomness limited to 256 bits")
    return tuple((stream >> i) & 1 for i in range(nbits))


@lru_cache(maxsize=64)
def _views(topology: Topology) -> dict:
    """{node: (view, blank inbox)}, in node order. Every execution on the
    topology shares them, so neither is mutated: nodes get copies of a blank."""
    return {
        u: (LocalView(u, nbrs, topology.num_nodes), dict.fromkeys(nbrs, EMPTY_MESSAGE))
        for u, nbrs in zip(topology.nodes, map(topology.neighbors, topology.nodes))
    }


def _randomness_width(program, u) -> int:
    """The `randomness_bits` that node u's program declares."""
    nbits = getattr(program, "randomness_bits", 0)
    if not is_count(nbits, 0):
        raise ValueError(
            f"node {u!r} declares randomness_bits={nbits!r}, not an integer >= 0"
        )
    return nbits


def _execute_rounds(
    topology: Topology,
    programs: dict,
    rounds: int,
    inputs,
    classical_only,
    randomness,
):
    """Run init plus all round calls; returns (contexts, arena, the number
    of round calls in which some node sent a message).

    `randomness(u, nbits)` is node u's random string: it must hold exactly
    the `randomness_bits` that u's program declares.
    """
    plan = _views(topology)
    if programs.keys() != plan.keys():
        raise ValueError("need exactly one program per node")
    check_count("round count", rounds, 0)
    inputs = inputs or {}
    if not inputs.keys() <= plan.keys():
        raise ValueError("an inputs key names no node of the topology")
    for u, raw in inputs.items():
        if raw is not None and type(raw) is not bytes:
            raise ValueError(f"node {u!r} got a {type(raw).__name__} input, not bytes or None")
    arena = QuantumArena()
    sent_in = set()
    contexts = {}
    nodes = []  # (u, program, context, neighbors), in node order
    for u, (view, _) in plan.items():
        prog = programs[u]
        nbits = _randomness_width(prog, u)
        rand = tuple(randomness(u, nbits))
        if len(rand) != nbits:
            raise ValueError(f"node {u!r} got {len(rand)} random bits, not {nbits}")
        ctx = NodeContext(view, inputs.get(u), rand, arena, not classical_only)
        contexts[u] = ctx
        nodes.append((u, prog, ctx, view.neighbors))
        prog.init(ctx)

    inboxes = {u: blank.copy() for u, (_, blank) in plan.items()}
    for t in range(rounds + 1):
        # Qubits change owner only after the pass, at the round boundary.
        moves = {}
        # nothing is delivered after the final round call
        new_inboxes = {u: b.copy() for u, (_, b) in plan.items()} if t < rounds else {}
        for u, prog, ctx, neighbors in nodes:
            ctx._round = t
            out = prog.round(t, inboxes[u])
            if not isinstance(out, dict) and out is not None:
                raise ProtocolError(
                    f"node {u!r} returned a {type(out).__name__} in round {t}"
                )
            if not out:
                continue
            if t == rounds:
                raise ProtocolError(
                    f"node {u!r} sent a message in the final round call; "
                    f"the execution has no round {t + 1}"
                )
            sent_in.add(t)
            if not out.keys() <= neighbors:
                v = next(v for v in out if v not in neighbors)
                raise ProtocolError(
                    f"node {u!r} addressed non-neighbor {v!r} in round {t}"
                )
            for v, msg in out.items():
                if not isinstance(msg, Message):
                    raise ProtocolError(f"node {u!r} sent a non-Message object")
                # A mutable payload or qubit container would let the sender
                # change the message after it is sent.
                qubits = msg.qubits
                if not (type(msg.payload) is bytes and type(qubits) is tuple):
                    raise ProtocolError(
                        f"node {u!r} sent a message whose payload is not bytes "
                        f"or whose qubits are not a tuple in round {t}"
                    )
                if qubits:
                    arena._check_owned(u, t, qubits)
                    for qid in qubits:
                        if qid in moves:
                            raise ProtocolError(f"qubit {qid} sent twice in round {t}")
                        moves[qid] = v
                new_inboxes[v][u] = msg
        arena.transfer(moves)
        inboxes = new_inboxes
    return contexts, arena, len(sent_in)


def _flagged_qubits(contexts, order, arena) -> list:
    """Every flagged qubit, node by node.

    Each node must still own every qubit it flagged: once a flagged qubit
    is sent away, other nodes can act on it, and once discarded it has no
    outcome.
    """
    flagged = [u for u in order if contexts[u]._measure_flags]
    for u in flagged:
        arena._check_owned(u, contexts[u]._round, contexts[u]._measure_flags)
    return [q for u in flagged for q in contexts[u]._measure_flags]


def _finalize(program, u, measured) -> bytes:
    """The node's output; records share it, so it must be immutable bytes."""
    out = program.finalize(measured)
    if type(out) is not bytes:
        raise ProtocolError(f"node {u!r} output a {type(out).__name__}, not bytes")
    return out


def _columns(programs, contexts, order, bits) -> list:
    """Each node's outputs over the rows of `bits` as (table, index): the
    distinct values its `finalize` returned and each row's index into them,
    or index None when the node flagged nothing and table[0] is every row's.
    `bits` has one column per flagged qubit, as `_flagged_qubits` lists
    them, so a node's columns are consecutive and its pure `finalize` runs
    once per distinct value of them."""
    columns = []
    shift = 0
    for u in order:
        flags = contexts[u]._measure_flags
        if not flags:
            columns.append(((_finalize(programs[u], u, {}),), None))
            continue
        # bit j of a node's value is its j-th flag; past 62, Python ints
        weights = np.array(
            [1 << j for j in range(len(flags))],
            dtype=np.int64 if len(flags) < 63 else object,
        )
        packed = bits[:, shift:shift + len(flags)] @ weights
        shift += len(flags)
        if len(flags) <= 16:  # np.unique's table and index, from a presence table
            seen = np.zeros(1 << len(flags), dtype=bool)
            seen[packed] = True
            values, inverse = np.flatnonzero(seen), (np.cumsum(seen) - 1)[packed]
        else:
            values, inverse = np.unique(packed, return_inverse=True)
        columns.append(([
            _finalize(
                programs[u], u,
                {q: (int(value) >> j) & 1 for j, q in enumerate(flags)},
            )
            for value in values
        ], inverse.astype(np.min_scalar_type(len(values)))))
    return columns


def _records(columns, rows) -> list:
    """One record per row: the tuple of node outputs in node order."""
    return list(zip(*[
        table * rows if index is None
        else np.array(table, dtype=object)[index].tolist()
        for table, index in columns
    ]))


def _finalize_all(programs, contexts, order, bits) -> list:
    """Each row's record: the tuple of node outputs in node order. With
    `bits` None no node flagged a qubit, and there is one record."""
    if bits is None:
        return [tuple(_finalize(programs[u], u, {}) for u in order)]
    return _records(_columns(programs, contexts, order, bits), len(bits))


def _sample_outputs(programs, contexts, order, arena, seed, shots) -> list:
    """Draw `shots` terminal measurements; one record per shot."""
    qids = _flagged_qubits(contexts, order, arena)
    if not qids:  # nothing to draw: one record serves every shot
        return _finalize_all(programs, contexts, order, None) * shots
    bits = arena.sample_over(qids, shots, np.random.default_rng(seed))
    return _finalize_all(programs, contexts, order, bits)


def run(
    topology: Topology,
    programs: dict,
    rounds: int,
    seed: int = 0,
    inputs=None,
    classical_only=False,
) -> ExecutionResult:
    """One full execution: T rounds, one terminal measurement, finalize."""
    check_count("seed", seed, 0)
    order = list(topology.nodes)
    contexts, arena, message_rounds = _execute_rounds(
        topology, programs, rounds, inputs, classical_only,
        partial(node_randomness, seed),
    )
    (record,) = _sample_outputs(programs, contexts, order, arena, seed, 1)
    return ExecutionResult(dict(zip(order, record)), message_rounds, arena)


def run_sampled(
    topology: Topology,
    programs: dict,
    rounds: int,
    shots: int,
    seed: int = 0,
    inputs=None,
) -> list:
    """One execution, many independent terminal-measurement samples: one
    record per shot, the tuple of node outputs in `topology.nodes` order
    (as `run_exact` keys its law).

    Valid because the terminal measurement is the only sampled step of an
    execution with fixed randomness; program finalize must be pure.
    """
    check_count("shots", shots, 1)
    check_count("seed", seed, 0)
    order = list(topology.nodes)
    contexts, arena, _ = _execute_rounds(
        topology, programs, rounds, inputs, False, partial(node_randomness, seed)
    )
    return _sample_outputs(programs, contexts, order, arena, seed, shots)


def _exact_branches(topology, make_programs, rounds, inputs):
    """Yields (weight, probs, columns) per randomness branch: outcome i of
    its terminal measurement has probability weight * probs[i], and
    `columns` (`_columns`) holds the node outputs over those outcomes."""
    order = list(topology.nodes)
    probe = make_programs()
    widths = {u: _randomness_width(probe[u], u) for u in order}
    total = sum(widths.values())
    if total > MAX_RANDOM_BITS:
        raise ResourceLimitError(
            f"{total} randomness bits exceed the enumeration budget of "
            f"{MAX_RANDOM_BITS}"
        )
    nodes_with_bits = [u for u in order if widths[u]]
    for combo in itertools.product(
        *[itertools.product((0, 1), repeat=widths[u]) for u in nodes_with_bits]
    ):
        overrides = dict(zip(nodes_with_bits, combo))
        programs = make_programs()
        contexts, arena, _ = _execute_rounds(
            topology, programs, rounds, inputs, False,
            lambda u, nbits: overrides.get(u, ()),
        )
        qids = _flagged_qubits(contexts, order, arena)
        keys, probs = (
            arena.distribution_over(qids) if qids
            else (np.zeros(1, dtype=np.int64), np.ones(1))
        )
        bits = (keys[:, None] >> np.arange(len(qids))) & 1
        yield 2.0 ** -total, probs, _columns(programs, contexts, order, bits)


def run_exact(
    topology: Topology,
    make_programs,
    rounds: int,
    inputs=None,
) -> OutcomeDistribution:
    """The exact output law, summed over `_exact_branches`; `make_programs`
    must build a fresh program map per call. Keys of the returned
    distribution are tuples of output bytes in node order."""
    entries = {}
    branches = _exact_branches(topology, make_programs, rounds, inputs)
    for weight, probs, columns in branches:
        for record, prob in zip(_records(columns, len(probs)), probs):
            entries[record] = entries.get(record, 0.0) + weight * float(prob)
    space = ("outputs", tuple(repr(u) for u in topology.nodes))
    return OutcomeDistribution(entries, space=space)
