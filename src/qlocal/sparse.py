"""Sparse amplitude-map statevector used by the quantum arena.

Basis indices are stored as uint64 bit patterns over up to 63 slot
positions, so a network execution can hold many short-lived registers as
long as the superposition's support stays manageable. The gate set of
`statevector.GATES` needs three kernels: H (at most a factor-2 support
growth), CNOT (a permutation of indices) and phase (a multiply of the
selected amplitudes).
"""
from __future__ import annotations

import numpy as np

from .errors import EntangledDisposalError, ResourceLimitError

MAX_SLOTS = 63
_PRUNE_TOL = 1e-12
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class SparseState:
    """A normalized superposition stored as (indices, amplitudes) arrays."""

    def __init__(self):
        self.indices = np.zeros(1, dtype=np.uint64)
        self.amps = np.ones(1, dtype=complex)

    @property
    def support_size(self) -> int:
        return len(self.indices)

    def _bit(self, pos: int) -> np.ndarray:
        return (self.indices >> np.uint64(pos)) & np.uint64(1)

    def bit_always_zero(self, pos: int) -> bool:
        return not np.any(self._bit(pos))

    def apply_h(self, pos: int):
        mask = np.uint64(1 << pos)
        bits = self._bit(pos).astype(bool)
        zero_idx = self.indices & ~mask
        one_idx = self.indices | mask
        to_one = np.where(bits, -self.amps, self.amps) * _INV_SQRT2
        to_zero = self.amps * _INV_SQRT2
        idx = np.concatenate([zero_idx, one_idx])
        amp = np.concatenate([to_zero, to_one])
        uniq, inverse = np.unique(idx, return_inverse=True)
        merged = np.zeros(len(uniq), dtype=complex)
        np.add.at(merged, inverse, amp)
        keep = np.abs(merged) > _PRUNE_TOL
        self.indices = uniq[keep]
        self.amps = merged[keep]

    def apply_phase(self, positions, phase: complex):
        """Multiply every basis state whose bits at `positions` are all 1
        by `phase`."""
        sel = self._bit(positions[0])
        for pos in positions[1:]:
            sel = sel & self._bit(pos)
        self.amps[sel.astype(bool)] *= phase

    def apply_cnot(self, control: int, target: int):
        flip = self._bit(control)
        self.indices = self.indices ^ (flip << np.uint64(target))

    def remove_product_qubit(self, pos: int, tol: float = 1e-9):
        """Drop a qubit after verifying it is unentangled with the rest.

        Raises EntangledDisposalError otherwise. The global phase of the
        remaining state is not preserved.
        """
        mask = np.uint64(1 << pos)
        bits = self._bit(pos).astype(bool)
        if not bits.any():
            return
        if bits.all():
            self.indices = self.indices & ~mask
            return
        rest0 = self.indices[~bits]
        rest1 = self.indices[bits] & ~mask
        amp0 = self.amps[~bits]
        amp1 = self.amps[bits]
        order0 = np.argsort(rest0)
        order1 = np.argsort(rest1)
        if len(rest0) != len(rest1) or not np.array_equal(
            rest0[order0], rest1[order1]
        ):
            raise EntangledDisposalError(
                f"qubit at slot {pos} is entangled (mismatched branch supports)"
            )
        ratio = amp1[order1] / amp0[order0]
        if np.max(np.abs(ratio - ratio[0])) > tol:
            raise EntangledDisposalError(
                f"qubit at slot {pos} is entangled (branch amplitudes not "
                f"proportional)"
            )
        keep_idx = rest0[order0]
        keep_amp = amp0[order0]
        norm = np.sqrt(np.sum(np.abs(keep_amp) ** 2))
        self.indices = keep_idx
        self.amps = keep_amp / norm

    def _keys_for(self, positions) -> np.ndarray:
        keys = np.zeros(len(self.indices), dtype=np.int64)
        for j, pos in enumerate(positions):
            keys |= self._bit(pos).astype(np.int64) << j
        return keys

    def distribution_over(self, positions):
        """Exact joint law of the given slots: (keys, probabilities).

        Key k encodes positions[j] at bit j. Other live qubits are
        marginalized over.
        """
        if len(positions) > 62:
            raise ResourceLimitError("too many qubits for joint distribution keys")
        keys = self._keys_for(positions)
        probs = np.abs(self.amps) ** 2
        uniq, inverse = np.unique(keys, return_inverse=True)
        summed = np.zeros(len(uniq))
        np.add.at(summed, inverse, probs)
        return uniq, summed / summed.sum()

    def sample_over(self, positions, rng: np.random.Generator, shots: int):
        """Sample `shots` joint outcomes of the given slots, without collapse."""
        keys, probs = self.distribution_over(positions)
        picks = rng.choice(len(keys), p=probs, size=shots)
        return keys[picks]

    def dense_vector(self, positions) -> np.ndarray:
        """Dense amplitudes over the given slots, big-endian like StateVector.

        Every support index must be expressible over `positions` alone.
        """
        n = len(positions)
        covered = np.uint64(0)
        for pos in positions:
            covered |= np.uint64(1 << pos)
        if np.any(self.indices & ~covered):
            raise ValueError("state has support outside the requested qubits")
        out = np.zeros(2**n, dtype=complex)
        flat = np.zeros(len(self.indices), dtype=np.int64)
        for j, pos in enumerate(positions):
            flat |= self._bit(pos).astype(np.int64) << (n - 1 - j)
        out[flat] = self.amps
        return out


def decode_key(key: int, width: int) -> tuple:
    """Bits of a distribution_over key: position j's bit at index j."""
    return tuple((int(key) >> j) & 1 for j in range(width))
