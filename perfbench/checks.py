"""Checks of the paper's outputs, written independently of `qlocal.verify`.

On the 3d-ring (labels 0 .. 3d-1, corners 0, d and 2d) an outcome string x
has four parities: the XOR of x over the even labels, and for each side of
the triangle the XOR of x over that side's odd labels. Side s joins corner s
to corner s+1 (mod 3): right is labels 1 .. d-1, bottom d+1 .. 2d-1 and left
2d+1 .. 3d-1. Every label lies in exactly one of the four sets.

The paper's identities on these parities:
- every outcome: right ^ bottom ^ left = 0 (the universal side identity);
- input triple 000: even = 0;
- an input triple of weight 2, whose zero sits at corner z:
  even ^ (the odd parities of the two sides that meet at z) = 1;
- a triple of odd weight adds no identity.

So the identities of b leave 2^(3d - 1) strings for odd-weight triples and
2^(3d - 2) for even-weight ones. The self-test shows that at d = 2 and 4 the
strings they accept are exactly the process's support, and that each check
the workloads use rejects a wrong output.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

TRIPLES = tuple(product((0, 1), repeat=3))
SUPPORT_TOL = 1e-9  # probability above which a string counts as in a law's support
LAW_TOL = 1e-12
TV_TOL = 1e-9
TV_FLOOR = Fraction(1, 11)


@lru_cache(maxsize=None)
def parity_matrix(d: int) -> np.ndarray:
    """Rows: the even labels, then the odd labels of right, bottom, left."""
    m = np.zeros((4, 3 * d), dtype=np.int64)
    m[0, 0::2] = 1
    for s in range(3):
        for label in range(s * d + 1, (s + 1) * d):
            if label % 2:
                m[1 + s, label] = 1
    m.setflags(write=False)  # shared by every caller through the cache
    return m


def identities(b) -> list:
    """The identities triple b imposes: (coefficients over (even, right,
    bottom, left), required value)."""
    b = tuple(b)
    eqs = [((0, 1, 1, 1), 0)]
    if sum(b) == 0:
        eqs.append(((1, 0, 0, 0), 0))
    elif sum(b) == 2:
        z = b.index(0)
        coef = [1, 0, 0, 0]
        coef[1 + z] = 1  # side z starts at corner z
        coef[1 + (z - 1) % 3] = 1  # side z-1 ends there
        eqs.append((tuple(coef), 1))
    return eqs


def support_size(d: int, b) -> int:
    return 2 ** (3 * d - len(identities(b)))


def accepts(d: int, b, strings) -> np.ndarray:
    """One bool per string: does it satisfy every identity of b?"""
    x = np.asarray(strings, dtype=np.int64).reshape(-1, 3 * d)
    par = (x @ parity_matrix(d).T) % 2
    ok = np.ones(len(x), dtype=bool)
    for coef, value in identities(b):
        ok &= (par @ np.array(coef)) % 2 == value
    return ok


def bad_shots(d: int, b, outcomes, support) -> int:
    """relation-d6: shots that break an identity or lie outside `support`."""
    ok = accepts(d, b, outcomes)
    return sum(not (good and x in support) for x, good in zip(outcomes, ok))


def copy_disagreements(d: int, triples, outcomes, verdicts) -> int:
    """k-copies-d4: copies on which `is_valid` and the identities disagree."""
    return sum(
        bool(accepts(d, b, x)[0]) != bool(v)
        for b, x, v in zip(triples, outcomes, verdicts)
    )


def k_copies_problems(k: int, all_valid: int, disagreements: int) -> list:
    problems = []
    if all_valid != 7**k:
        problems.append(f"{all_valid} of {8 ** k} combinations valid, not {7 ** k}")
    if disagreements:
        problems.append(f"is_valid disagrees with the identities {disagreements} times")
    return problems


def gamma_problems(d: int, entries) -> list:
    """Γ, given as ((b, x), p) pairs: each triple's branch has mass 1/8 and
    is uniform on a support of the size the identities fix, and every
    support string satisfies them."""
    mass = {b: 0.0 for b in TRIPLES}
    support = {b: [] for b in TRIPLES}
    probs = {b: [] for b in TRIPLES}
    for (b, x), p in entries:
        mass[b] += p
        if p > SUPPORT_TOL:
            support[b].append(x)
            probs[b].append(p)
    problems = []
    for b in TRIPLES:
        if abs(mass[b] - 1 / 8) > LAW_TOL or abs(sum(probs[b]) - 1 / 8) > LAW_TOL:
            problems.append(f"branch {b} has mass {mass[b]!r}, not 1/8")
        if len(support[b]) != support_size(d, b):
            problems.append(
                f"branch {b} has {len(support[b])} strings, not {support_size(d, b)}"
            )
        elif np.max(np.abs(np.array(probs[b]) - 1 / 8 / len(probs[b]))) > LAW_TOL:
            problems.append(f"branch {b} is not uniform on its support")
        if not accepts(d, b, support[b]).all():
            problems.append(f"branch {b} has a string that breaks an identity")
    return problems


def exact_row_problems(d: int, gamma_entries, tv, marginals, min_tv) -> list:
    """exact-laws-d4: the gamma-exact and tv-adversary rows."""
    problems = gamma_problems(d, gamma_entries)
    if not tv <= TV_TOL:
        problems.append(f"the two oracles differ by TV {tv!r}")
    for i, m in enumerate(marginals):
        if abs(m - 0.5) > LAW_TOL:
            problems.append(f"marginal of b{i} is {m!r}, not 1/2")
    if not min_tv >= TV_FLOOR:
        problems.append(f"adversary minimum TV {min_tv!r} is below 1/11")
    return problems


def _flip(x, label):
    x = list(x)
    x[label] ^= 1
    return tuple(x)


def self_test(enumerate_support, exact_gamma) -> list:
    """Compare the identities with the program's support oracle at d = 2
    and 4, and feed each workload's check a wrong output it must reject.
    Returns the problems found (empty when the checks are sound)."""
    problems = []
    for d in (2, 4):
        strings = list(product((0, 1), repeat=3 * d))
        for b in TRIPLES:
            support = enumerate_support(d, b)
            ok = accepts(d, b, strings)
            accepted = {x for x, good in zip(strings, ok) if good}
            if accepted != set(support) or len(accepted) != support_size(d, b):
                problems.append(f"identities differ from the support at d={d}, b={b}")
                continue
            x = min(support)
            if bad_shots(d, b, [x], support) != 0:
                problems.append(f"a valid shot is rejected at d={d}, b={b}")
            wrong = [_flip(x, 1)]  # label 1 is odd, on the right side
            if sum(b) % 2 == 0:
                wrong.append(_flip(x, 0))  # even parity is pinned too
            if bad_shots(d, b, wrong, support) != len(wrong):
                problems.append(f"a one-bit flip is accepted at d={d}, b={b}")
            if copy_disagreements(d, [b, b], [x, wrong[0]], [True, True]) != 1:
                problems.append(f"a wrong is_valid verdict passes at d={d}, b={b}")
    if not k_copies_problems(3, 7**3 - 1, 0) or k_copies_problems(3, 7**3, 0):
        problems.append("the (7/8)^k count check is wrong")
    gamma = dict(exact_gamma(2).items())
    if exact_row_problems(2, gamma.items(), 0.0, [0.5] * 3, 0.5):
        problems.append("the exact-law checks reject the true law at d=2")
    (b, x), p = max(gamma.items(), key=lambda kv: kv[1])
    moved = dict(gamma)
    moved[(b, x)] = 0.0
    moved[(b, _flip(x, 1))] = moved.get((b, _flip(x, 1)), 0.0) + p
    for args in (
        (moved.items(), 0.0, [0.5] * 3, 0.5),
        (gamma.items(), 1e-6, [0.5] * 3, 0.5),
        (gamma.items(), 0.0, [0.5, 0.5 + 1e-9, 0.5], 0.5),
        (gamma.items(), 0.0, [0.5] * 3, 0.09),
    ):
        if not exact_row_problems(2, *args):
            problems.append("an exact-law check accepts a wrong row")
    return problems
