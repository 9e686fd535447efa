"""The sparse H kernel against the scatter-add kernel it replaced, bit for
bit, on states whose occupied slots reach the top slot (62)."""
import numpy as np
import pytest

from qlocal.sparse import _INV_SQRT2, MAX_SLOTS, SparseState
from qlocal.statevector import PRUNE_TOL

TOP_SLOT = MAX_SLOTS - 1


def reference_h(indices, amps, pos):
    """H by merging duplicate indices with np.unique and np.add.at."""
    mask = np.uint64(1 << pos)
    bits = ((indices >> np.uint64(pos)) & np.uint64(1)).astype(bool)
    idx = np.concatenate([indices & ~mask, indices | mask])
    amp = np.concatenate([
        amps * _INV_SQRT2, np.where(bits, -amps, amps) * _INV_SQRT2,
    ])
    uniq, inverse = np.unique(idx, return_inverse=True)
    merged = np.zeros(len(uniq), dtype=complex)
    np.add.at(merged, inverse, amp)
    keep = np.abs(merged) > PRUNE_TOL
    return uniq[keep], merged[keep]


def random_state(rng, case, pos):
    """Rows over 12 random slots (always including the top one) plus the
    target slot, shuffled. `case` says which rows have their H partner:
    "fresh" (the target bit is zero everywhere), "paired" (every row) or
    "partial" (some rows)."""
    others = [s for s in range(MAX_SLOTS) if s not in (pos, TOP_SLOT)]
    slots = list(rng.choice(others, size=11, replace=False))
    if pos != TOP_SLOT:
        slots.append(TOP_SLOT)
    weights = np.array([1 << int(s) for s in slots], dtype=np.uint64)
    draws = rng.integers(0, 2, size=(150, len(slots))).astype(np.uint64)
    bases = np.unique((draws * weights).sum(axis=1, dtype=np.uint64))
    mask = np.uint64(1 << pos)
    if case == "fresh":
        indices = bases
    else:
        sides = np.full(len(bases), 2)  # 0: bit-0 row only, 1: bit-1 only
        if case == "partial":
            sides = rng.integers(0, 3, size=len(bases))
            sides[:2] = (0, 1)
        indices = np.concatenate([bases[sides != 1], bases[sides != 0] | mask])
    n = len(indices)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    if case != "fresh":
        # Partners equal or nearly opposite: H then leaves sums and
        # differences of zero or near the prune tolerance.
        for i in np.flatnonzero((indices & mask) != 0)[:20]:
            j = np.flatnonzero(indices == (indices[i] & ~mask))
            if len(j):
                near = PRUNE_TOL * rng.choice([0.0, 0.5, 1.0, 1.5, 3.0])
                amps[i] = amps[j[0]] if i % 2 else -amps[j[0]] + near
    # Signed zeros, and rows whose halved magnitude straddles the tolerance.
    picks = rng.choice(n, size=24, replace=False)
    for k, i in enumerate(picks[:12]):
        value = rng.normal()
        amps[i] = complex(-0.0, value) if k % 2 else complex(value, -0.0)
    for k, i in enumerate(picks[12:]):
        amps[i] = PRUNE_TOL * np.sqrt(2.0) * (0.5, 0.999, 1.001, 2.0)[k % 4]
    order = rng.permutation(n)
    return indices[order], amps[order]


def _sorted_bits(indices, amps):
    order = np.argsort(indices)
    return indices[order], np.ascontiguousarray(amps[order]).view(np.uint64)


@pytest.mark.parametrize("case", ["fresh", "paired", "partial"])
@pytest.mark.parametrize("pos", [0, 1, 31, 61, TOP_SLOT])
@pytest.mark.parametrize("seed", range(4))
def test_h_matches_reference_bit_for_bit(case, pos, seed):
    rng = np.random.default_rng([seed, pos, len(case)])
    indices, amps = random_state(rng, case, pos)
    state = SparseState()
    state.indices, state.amps = indices.copy(), amps.copy()
    assert state.bit_always_zero(pos) == (case == "fresh")
    expected = reference_h(indices, amps, pos)
    state.apply_h(pos)
    got_idx, got_bits = _sorted_bits(state.indices, state.amps)
    want_idx, want_bits = _sorted_bits(*expected)
    assert np.any(got_idx >> np.uint64(TOP_SLOT))
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_bits, want_bits)


def test_h_twice_at_the_top_slot_returns_to_zero():
    state = SparseState()
    state.apply_h(TOP_SLOT)
    assert state.support_size == 2
    state.apply_h(TOP_SLOT)
    assert state.indices.tolist() == [0]
    assert abs(state.amps[0] - 1) < 1e-15
