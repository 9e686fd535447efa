"""The sparse H kernel against the scatter-add kernel it replaced, bit for
bit, on states whose occupied slots reach the top slot (62); and the
disposal guard on product and entangled qubits at every branch scale."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocal.errors import EntangledDisposalError
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


def _sparse(indices, amps):
    state = SparseState()
    state.indices = np.asarray(indices, dtype=np.uint64)
    state.amps = np.asarray(amps, dtype=complex)
    return state


def test_product_qubit_with_a_tiny_branch_disposes():
    # Slot 0 in a|0> + b|1> with a = 1e-6, slot 1 in |+>, and amplitudes
    # off by 1e-15 relative: the ratio b/a is 1e6, so its rounding spread is
    # about 4e-9 in absolute terms.
    a = 1e-6
    b = np.sqrt(1 - a * a)
    noise = 1 + 1e-15 * np.array([1, -1, -1, 1])
    state = _sparse([0, 2, 1, 3], np.array([a, a, b, b]) * _INV_SQRT2 * noise)
    state.remove_product_qubit(0)
    assert state.indices.tolist() == [0, 2]
    assert np.allclose(state.amps, [_INV_SQRT2, _INV_SQRT2], atol=1e-15)


def _branches(seed, scale0, scale1, rows):
    """Slot 0 in a|0> + b|1> with |a| = 10**scale0 and |b| = 10**scale1
    (random phases), times a random state of slots 1-3 over `rows` basis
    states; every amplitude off by up to 1e-15 relative, rows shuffled.
    Returns the indices, the amplitudes, and the slots 1-3 state."""
    rng = np.random.default_rng(seed)
    a, b = (10.0 ** e * np.exp(2j * np.pi * rng.random())
            for e in (scale0, scale1))
    rest = np.sort(rng.choice(8, size=rows, replace=False)).astype(np.uint64)
    c = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    c /= np.linalg.norm(c)
    indices = np.concatenate([rest << np.uint64(1), (rest << np.uint64(1)) | 1])
    amps = np.concatenate([a * c, b * c])
    amps *= 1 + 1e-15 * rng.uniform(-1, 1, size=2 * rows)
    amps /= np.linalg.norm(amps)
    order = rng.permutation(2 * rows)
    return indices[order], amps[order], rest << np.uint64(1), c


@pytest.mark.parametrize("seed", range(4))
def test_keys_match_the_per_bit_reference(seed):
    # positions in random order over all slots, so bits move both ways
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, 2**63, size=200, dtype=np.uint64)
    positions = [int(p) for p in rng.permutation(MAX_SLOTS)[:40]]
    state = _sparse(indices, np.ones(len(indices), dtype=complex))
    want = [
        sum(((int(i) >> p) & 1) << j for j, p in enumerate(positions))
        for i in indices
    ]
    assert state._keys_for(positions).tolist() == want


_SCALES = st.floats(-6, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), _SCALES, _SCALES, st.integers(1, 8))
def test_product_qubit_disposes_at_any_branch_scale(seed, scale0, scale1, rows):
    indices, amps, rest, c = _branches(seed, scale0, scale1, rows)
    state = _sparse(indices, amps)
    state.remove_product_qubit(0)
    assert state.indices.tolist() == rest.tolist()
    assert abs(abs(np.vdot(c, state.amps)) - 1) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), _SCALES, _SCALES, st.integers(2, 8),
       st.floats(-6, 0), st.floats(0, 1))
def test_entangled_qubit_raises_at_any_branch_scale(
    seed, scale0, scale1, rows, log_change, turn
):
    # One branch-1 row's ratio moves by at least 1e-6 relative.
    indices, amps, _, _ = _branches(seed, scale0, scale1, rows)
    row = np.flatnonzero(indices & np.uint64(1))[seed % rows]
    amps[row] *= 1 + 10.0 ** log_change * np.exp(2j * np.pi * turn)
    with pytest.raises(EntangledDisposalError):
        _sparse(indices, amps).remove_product_qubit(0)
