"""Error types shared across the simulator."""


class SimulationError(Exception):
    """Base class for errors raised during a network execution."""


class ResourceLimitError(SimulationError):
    """A configured resource cap (qubits, randomness budget) was exceeded."""


class LocalityError(SimulationError):
    """A node touched a qubit it does not own."""

    def __init__(self, node, round_index, qubit):
        self.node = node
        self.round_index = round_index
        self.qubit = qubit
        super().__init__(
            f"node {node!r} operated on qubit {qubit} it does not own "
            f"(round {round_index})"
        )


class ProtocolError(SimulationError):
    """A node program violated the execution contract (bad message, late
    send), or a node got an input or payload it cannot read."""


class ModelViolationError(SimulationError):
    """A quantum operation was attempted in a classical-only execution."""


class EntangledDisposalError(SimulationError):
    """A qubit was discarded while still entangled with the rest of the arena."""


class NonCliffordError(SimulationError):
    """A gate outside the Clifford group reached the stabilizer tableau."""
