"""Affine laws over GF(2), the one form in which both oracles give a
stabilizer measurement's law: uniform on origin xor the span of some columns,
a bit string packed into an int with entry i at bit i. The path-sum arena and
the stabilizer tableau each reduce their own data to it, so their laws
compare with ==, and both walk their Python-int bitsets with its helpers."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResourceLimitError

# A law enumerates at most 2^MAX_ENUMERATED_BITS outcomes, and a sum that is
# not a stabilizer state as many paths; the d=8 relation law has 2^23.
MAX_ENUMERATED_BITS = 23


def _span(x0, basis, num_bits, what) -> np.ndarray:
    """x0 xor every subset sum of basis, as int64 keys over num_bits bits:
    basis entry i is in the keys whose index has bit i set."""
    if num_bits > 62:
        raise ResourceLimitError("too many qubits for joint distribution keys")
    if len(basis) > MAX_ENUMERATED_BITS:
        raise ResourceLimitError(
            f"2^{len(basis)} {what} exceed the enumeration cap of "
            f"2^{MAX_ENUMERATED_BITS}"
        )
    keys = np.array([x0], dtype=np.int64)
    for b in basis:
        keys = np.concatenate([keys, keys ^ b])
    return keys


def _bits(mask):
    """The single-bit masks set in `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _transposed(masks) -> dict:
    """The bitsets turned around: each bit b that some mask holds -> the
    mask of the j with b in masks[j], by b ascending."""
    columns = {}
    for j, mask in enumerate(masks):
        for b in _bits(mask):
            columns[b] = columns.get(b, 0) | 1 << j
    return dict(sorted(columns.items()))


def _complement(rows: dict, num_bits) -> list:
    """The other form of a reduced basis {lead bit: row}: for each bit p
    that leads no row, p plus the leads of the rows that hold p. Columns led
    by their highest bit give their checks led by the lowest, and back."""
    return [p | sum(lead for lead, row in rows.items() if row & p)
            for p in (1 << i for i in range(num_bits)) if p not in rows]


@dataclass(frozen=True)
class AffineSupport:
    """The uniform law on origin xor the span of the columns, over strings
    of num_bits bits. The form is reduced, so == compares laws: each
    column's highest bit is set in no other column and not in origin, and
    the columns come by that bit ascending. `checks` holds the law as parity
    checks (mask, sign): its members are the x with x . mask = sign (mod 2)."""

    num_bits: int
    origin: int
    columns: tuple

    @cached_property
    def checks(self) -> tuple:
        leads = {1 << (c.bit_length() - 1): c for c in self.columns}
        return tuple((m, (self.origin & m).bit_count() & 1)
                     for m in _complement(leads, self.num_bits))

    @cached_property
    def _spread(self) -> list:
        """The checks with entry i at bit 8i, as membership reads a string."""
        return [(sum(b << 7 * (b.bit_length() - 1) for b in _bits(m)), sign)
                for m, sign in self.checks]

    @classmethod
    def from_checks(cls, num_bits, checks):
        """The strings x with x . mask = sign (mod 2) for every (mask,
        sign) of checks. ValueError if no string satisfies them all."""
        rows = {}  # lowest bit -> its check, sign at bit num_bits; no other holds it
        for row in (mask | sign << num_bits for mask, sign in checks):
            for lead, r in rows.items():
                if row & lead:
                    row ^= r
            lead = row & -row
            if lead >> num_bits:
                raise ValueError("inconsistent parity checks")
            if lead:
                for k, r in rows.items():
                    if r & lead:
                        rows[k] = r ^ row
                rows[lead] = row
        origin = sum(lead for lead, row in rows.items() if row >> num_bits)
        return cls(num_bits, origin, tuple(_complement(rows, num_bits)))

    @property
    def dim(self) -> int:
        return len(self.columns)

    def __contains__(self, outcome):
        try:
            if len(outcome) != self.num_bits:
                return False
            raw = bytes(outcome)
        except (TypeError, ValueError):
            return False
        packed = int.from_bytes(raw, "little")
        for mask, sign in self._spread:
            if (packed & mask).bit_count() & 1 != sign:
                return False
        # not a buffer of wider integers, and no entry other than a bit
        return len(raw) == self.num_bits and not raw.translate(None, b"\0\1")

    def keys(self) -> np.ndarray:
        """Every member packed into an int64 key, ascending."""
        return _span(self.origin, self.columns, self.num_bits, "outcomes")

    def __iter__(self):
        """Every member as a tuple of bits, by key ascending."""
        bits = (self.keys()[:, None] >> np.arange(self.num_bits)) & 1
        return map(tuple, bits.tolist())
