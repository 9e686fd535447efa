"""Sparse amplitude-map statevector used by the quantum arena.

Basis indices are stored as uint64 bit patterns over up to 63 slot
positions, so a network execution can hold many short-lived registers as
long as the superposition's support stays manageable. The gate set of
`statevector.GATES` needs three kernels: H (at most a factor-2 support
growth), CNOT (a permutation of indices) and phase (a multiply of the
selected amplitudes). H on a fresh qubit (bit zero in every row) copies
the rows with no sort; H on any other qubit sorts the rows once to pair
them. Rows are kept in no particular index order.
"""
from __future__ import annotations

import numpy as np

from .errors import EntangledDisposalError, ResourceLimitError
from .statevector import _INV_SQRT2, PRUNE_TOL

MAX_SLOTS = 63
# How far the amplitude ratio of a discarded qubit's two branches may vary,
# relative to its size, before the qubit counts as entangled. Relative, so
# that the rounding of a branch with a tiny amplitude is not taken for
# entanglement.
PRODUCT_TOL = 1e-9


class SparseState:
    """A normalized superposition stored as (indices, amplitudes) arrays."""

    def __init__(self):
        self.indices = np.zeros(1, dtype=np.uint64)
        self.amps = np.ones(1, dtype=complex)

    @property
    def support_size(self) -> int:
        return len(self.indices)

    def bit_always_zero(self, pos: int) -> bool:
        return not np.any(self.indices & np.uint64(1 << pos))

    def apply_h(self, pos: int):
        mask = np.uint64(1 << pos)
        idx = self.indices
        bit = (idx >> np.uint64(pos)) & np.uint64(1)
        if not bit.any():
            # Fresh qubit: every row splits into itself and its |1> copy.
            idx, x = _pruned(idx, _over_sqrt2(self.amps.copy()))
            self.indices = np.concatenate([idx, idx | mask])
            self.amps = np.concatenate([x, x])
            return
        # Sort on the index with the target bit moved to the bottom (slots
        # stop at 62, so the shift cannot overflow): the rows an H mixes
        # become neighbours, the bit-0 row first. The rows arrive in long
        # sorted runs, which the stable sort merges.
        key = (idx & ~mask) << np.uint64(1)
        key |= bit
        order = np.argsort(key, kind="stable")
        del key, bit
        idx = idx[order]
        x = _over_sqrt2(self.amps[order])
        if np.array_equal(idx[1::2], idx[0::2] | mask):
            x0, x1 = x[0::2], x[1::2]
        else:
            # Some rows lack their partner: give it amplitude zero.
            base = idx & ~mask
            first = np.empty(len(idx), dtype=bool)
            first[0] = True
            np.not_equal(base[1:], base[:-1], out=first[1:])
            group = np.cumsum(first) - 1
            bit_set = base != idx
            base = base[first]
            x0 = np.zeros(len(base), dtype=complex)
            x1 = np.zeros(len(base), dtype=complex)
            x0[group[~bit_set]] = x[~bit_set]
            x1[group[bit_set]] = x[bit_set]
            idx = np.empty(2 * len(base), dtype=np.uint64)
            idx[0::2] = base
            np.bitwise_or(base, mask, out=idx[1::2])
        amps = np.empty(len(idx), dtype=complex)
        np.add(x0, x1, out=amps[0::2])
        np.subtract(x0, x1, out=amps[1::2])
        self.indices, self.amps = _pruned(idx, amps)

    def apply_phase(self, positions, phase: complex):
        """Multiply every basis state whose bits at `positions` are all 1
        by `phase`."""
        m = np.uint64(0)
        for pos in positions:
            m |= np.uint64(1 << pos)
        np.multiply(self.amps, phase, out=self.amps,
                    where=(self.indices & m) == m)

    def apply_cnot(self, control: int, target: int):
        flip = self.indices & np.uint64(1 << control)
        if target > control:
            flip <<= np.uint64(target - control)
        else:
            flip >>= np.uint64(control - target)
        self.indices ^= flip

    def remove_product_qubit(self, pos: int):
        """Drop a qubit after verifying it is unentangled with the rest.

        Raises EntangledDisposalError otherwise. The global phase of the
        remaining state is not preserved.
        """
        mask = np.uint64(1 << pos)
        bits = (self.indices & mask) != 0
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
        if np.max(np.abs(ratio - ratio[0])) > PRODUCT_TOL * abs(ratio[0]):
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
        """Each row's key: its bit at positions[j] becomes bit j."""
        keys = np.zeros(len(self.indices), dtype=np.uint64)
        bit = np.empty_like(keys)
        for j, pos in enumerate(positions):
            # Shift bit `pos` to bit j and mask it, with no temporaries.
            if pos >= j:
                np.right_shift(self.indices, np.uint64(pos - j), out=bit)
            else:
                np.left_shift(self.indices, np.uint64(j - pos), out=bit)
            bit &= np.uint64(1 << j)
            keys |= bit
        return keys.view(np.int64)

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
        summed = np.bincount(inverse, weights=probs)
        return uniq, summed / summed.sum()

    def dense_vector(self, positions) -> np.ndarray:
        """Dense amplitudes over the given slots, big-endian like StateVector.

        Every support index must be expressible over `positions` alone.
        """
        covered = np.uint64(0)
        for pos in positions:
            covered |= np.uint64(1 << pos)
        if np.any(self.indices & ~covered):
            raise ValueError("state has support outside the requested qubits")
        out = np.zeros(2 ** len(positions), dtype=complex)
        out[self._keys_for(positions[::-1])] = self.amps
        return out


def _over_sqrt2(amps: np.ndarray) -> np.ndarray:
    """Multiply amplitudes by 1/sqrt(2) in place, as H does before it adds.

    Adding +0.0 turns -0.0 into +0.0, so a sum of two scaled amplitudes
    has the bits of a scatter-add into zeros.
    """
    amps *= _INV_SQRT2
    amps += 0.0
    return amps


def _pruned(idx: np.ndarray, amps: np.ndarray):
    """Drop the rows whose amplitude is within `PRUNE_TOL` of zero."""
    keep = np.abs(amps) > PRUNE_TOL
    if keep.all():
        return idx, amps
    return idx[keep], amps[keep]
