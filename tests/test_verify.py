import itertools
from fractions import Fraction

import pytest

from qlocal import verify
from qlocal.protocols import AffineStrategy
from qlocal.verify import (
    best_affine_success,
    check_prop1,
    enumerate_support,
    is_valid,
    lemma2_exhaustive,
    parities,
    parity_success_count,
    strategy_success_by_input,
)


def single_one(d, position):
    bits = [0] * (3 * d)
    bits[position] = 1
    return tuple(bits)


def test_parities_of_single_bits():
    assert parities(4, single_one(4, 0)) == (1, 0, 0, 0)
    assert parities(4, single_one(4, 1)) == (0, 1, 0, 0)
    assert parities(4, single_one(4, 5)) == (0, 0, 1, 0)
    assert parities(4, single_one(4, 9)) == (0, 0, 0, 1)
    # corners and even side nodes only feed the even parity
    assert parities(4, single_one(4, 4)) == (1, 0, 0, 0)
    assert parities(4, single_one(4, 2)) == (1, 0, 0, 0)


def test_parities_are_linear():
    a = single_one(2, 1)
    b = single_one(2, 3)
    both = tuple(x ^ y for x, y in zip(a, b))
    pa, pb, pboth = (parities(2, s) for s in (a, b, both))
    assert pboth == tuple(x ^ y for x, y in zip(pa, pb))


def test_parities_length_check():
    with pytest.raises(ValueError):
        parities(2, (0,) * 5)


def test_check_prop1_universal_identity():
    # unbalanced side parities are never valid, whatever the input
    bad = (0, 1, 0, 0)
    for b in itertools.product((0, 1), repeat=3):
        assert not check_prop1(b, bad)


def test_check_prop1_case_identities():
    assert check_prop1((0, 0, 0), (0, 0, 0, 0))
    assert not check_prop1((0, 0, 0), (1, 0, 0, 0))
    assert check_prop1((0, 1, 1), (0, 1, 1, 0))
    assert not check_prop1((0, 1, 1), (1, 0, 1, 1))
    assert check_prop1((1, 0, 1), (0, 1, 0, 1))
    assert check_prop1((1, 1, 0), (0, 1, 1, 0))
    # inputs without a case identity only need the universal one
    assert check_prop1((1, 1, 1), (1, 0, 0, 0))
    assert check_prop1((0, 0, 1), (0, 1, 1, 0))


def _support_sizes(d):
    """(size, expected size) per input triple: the support holds 2^(3d-1)
    strings for an odd-weight triple and 2^(3d-2) for an even-weight one."""
    return [
        (len(enumerate_support(d, b)), 2 ** (3 * d - 2 + sum(b) % 2))
        for b in itertools.product((0, 1), repeat=3)
    ]


def test_support_size_at_d2():
    for size, expected in _support_sizes(2):
        assert size == expected


def test_support_size_at_d4():
    for size, expected in _support_sizes(4):
        assert size == expected


def test_support_size_at_d6():
    for size, expected in _support_sizes(6):
        assert size == expected


def test_support_is_uniform_probability():
    # every support string of the d=2 process carries the same probability
    from qlocal.protocols import process_gates
    from dense import exact_distribution, run_gates

    dist = exact_distribution(run_gates(6, process_gates(2, (0, 1, 1))))
    probs = [p for p in dist.entries.values() if p > 1e-9]
    assert max(probs) == pytest.approx(min(probs), abs=1e-12)


def test_support_enumeration_writes_nothing(tmp_path, monkeypatch):
    for name in ("HOME", "XDG_CACHE_HOME", "QLOCAL_CACHE_DIR"):
        monkeypatch.setenv(name, str(tmp_path))
    monkeypatch.setattr(verify, "_SUPPORT_CACHE", {})
    for b in itertools.product((0, 1), repeat=3):
        enumerate_support(2, b)
    assert list(tmp_path.iterdir()) == []


def test_support_closed_under_side_reflection_when_b1_equals_b2():
    # the reflection fixing corner v_0 exchanges the right and left sides
    d, n = 2, 6
    reflect = lambda x: tuple(x[(n - i) % n] for i in range(n))
    for b in [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)]:
        sup = enumerate_support(d, b)
        assert {reflect(x) for x in sup} == set(sup)


def test_is_valid_reports():
    good = next(iter(enumerate_support(2, (0, 0, 0))))
    report = is_valid(2, (0, 0, 0), good)
    assert report.in_support and report.parity_ok
    bad = single_one(2, 1)  # violates the universal side identity
    report = is_valid(2, (0, 0, 0), bad)
    assert not report.in_support and not report.parity_ok


def test_lemma2_scan():
    record = lemma2_exhaustive()
    assert record.admissible_combinations == 512
    assert record.satisfying_all_four == 0
    assert record.max_equalities_satisfied == 3


def test_best_affine_success_is_seven_eighths():
    frac, witness = best_affine_success()
    assert frac == Fraction(7, 8)
    assert witness.is_admissible()
    assert parity_success_count(witness) == 7


def test_witness_parity_success_matches_support_membership():
    """Passing the parity conditions must coincide with support membership
    for deterministic affine outputs."""
    _, witness = best_affine_success()
    by_input = strategy_success_by_input(4, witness)
    assert sum(by_input.values()) == 7
    for b in itertools.product((0, 1), repeat=3):
        expected = check_prop1(b, witness.parity_tuple(b))
        assert by_input[b] == expected


def test_all_zero_strategy_succeeds_on_five_inputs():
    zero = AffineStrategy((0, 0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert parity_success_count(zero) == 5
    by_input = strategy_success_by_input(2, zero)
    assert sum(by_input.values()) == 5
