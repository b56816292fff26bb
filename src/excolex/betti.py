"""Betti tables of stable ideals in closed form, and total-Betti comparisons.

The closed form only needs each generator's degree and largest index: the
entry at (i, i+t) is the sum over degree-t generators of C(m(u)+i-1, m(u)-1).
Everything is exact integer arithmetic.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import NamedTuple

from .errors import (
    ContractViolation,
    FormulaInapplicable,
    ProfileMismatch,
    TableTooLarge,
    clipped_repr,
)
from .ideals import MonomialIdeal, is_strongly_stable_ideal

SUBJECT_IDEAL = "ideal"
SUBJECT_QUOTIENT = "quotient"

MODE_LOWER = "LowerBoundAllChecked"
MODE_UPPER = "UpperBoundAllChecked"
MODE_EQUAL = "EqualAllChecked"
MODE_INCOMPARABLE = "Incomparable"

# Most cells (i, i + t) a closed-form table builds: one per homological degree
# i <= i_max and generator degree t.
MAX_TABLE_CELLS = 10_000

_set = object.__setattr__  # BettiTable's own __setattr__ refuses every write


class BettiTable:
    """Graded Betti numbers up to a homological cutoff.

    ``subject`` records which object the table describes ("ideal" or
    "quotient"); mixing conventions is a bug the flag makes loud. Entries are
    a map (i, j) -> positive count; absent entries are zero. Tables compare
    by value, are immutable and are not hashable.
    """

    __slots__ = ("subject", "i_max", "entries")
    __hash__ = None

    def __init__(self, subject: str, i_max: int, entries: dict):
        if subject not in (SUBJECT_IDEAL, SUBJECT_QUOTIENT):
            raise ContractViolation(f"unknown table subject {subject!r}")
        if i_max < 0:
            raise ContractViolation(f"negative homological cutoff: {clipped_repr(i_max)}")
        cleaned = {}
        for (i, j), v in entries.items():
            if v < 0:
                raise ContractViolation(f"negative Betti number at {(i, j)}: {v}")
            if v and 0 <= i <= i_max:
                cleaned[(i, j)] = v
        _set(self, "subject", subject)
        _set(self, "i_max", i_max)
        _set(self, "entries", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: BettiTable is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: BettiTable is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return BettiTable, (self.subject, self.i_max, self.entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.subject, self.i_max, self.entries) == (
            other.subject, other.i_max, other.entries
        )

    def __repr__(self) -> str:
        return (
            f"BettiTable(subject={self.subject!r}, i_max={self.i_max!r}, "
            f"entries={self.entries!r})"
        )

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def totals(self) -> dict[int, int]:
        sums = dict.fromkeys(range(self.i_max + 1), 0)
        for (i, _), v in self.entries.items():
            sums[i] += v
        return sums

    def as_dict(self) -> dict:
        # one pass over the entries, not one per row
        by_i: dict[int, dict[str, int]] = {i: {} for i in range(self.i_max + 1)}
        for (i, j), v in sorted(self.entries.items()):
            by_i[i][str(j)] = v
        totals = self.totals()
        return {
            "subject": self.subject,
            "i_max": self.i_max,
            "rows": [
                {"i": i, "by_j": by_j, "total": totals[i]} for i, by_j in by_i.items()
            ],
        }


def tables_agree(left: BettiTable, right: BettiTable, i_bound: int) -> bool:
    """Exact graded agreement of same-subject tables for i <= i_bound (absent entries are 0)."""
    if left.subject != right.subject:
        raise ContractViolation(f"the {left.subject}'s table against the {right.subject}'s")
    if i_bound > min(left.i_max, right.i_max):
        raise ContractViolation("comparison bound exceeds a table cutoff")
    keys = {k for k in left.entries if k[0] <= i_bound}
    keys |= {k for k in right.entries if k[0] <= i_bound}
    return all(left.entry(i, j) == right.entry(i, j) for (i, j) in keys)


def _require_strongly_stable(I: MonomialIdeal) -> None:
    if not is_strongly_stable_ideal(I):
        raise FormulaInapplicable(
            "closed form needs a strongly stable ideal; use the homology oracle instead"
        )


def _generator_groups(I: MonomialIdeal) -> Counter:
    """Generator counts by (degree, largest index)."""
    return Counter((m.bit_count(), m.bit_length()) for m in I.masks)


def stable_betti_table(I: MonomialIdeal, i_max: int) -> BettiTable:
    """The closed-form table of a strongly stable ideal (subject: the ideal)."""
    if i_max < 0:
        raise ContractViolation(f"negative homological cutoff: {clipped_repr(i_max)}")
    _require_strongly_stable(I)
    return _closed_form_table(I, i_max)


def _closed_form_table(I: MonomialIdeal, i_max: int) -> BettiTable:
    """``stable_betti_table`` unguarded, for an ideal the strongly stable walk yielded."""
    groups = _generator_groups(I)
    degrees = len({t for t, _ in groups})
    if (i_max + 1) * degrees > MAX_TABLE_CELLS:
        table = f"closed-form table in {degrees} generator degree(s)"
        raise TableTooLarge(table, i_max, MAX_TABLE_CELLS)
    entries: dict[tuple[int, int], int] = {}
    for (t, m), count in groups.items():
        for i in range(i_max + 1):
            key = (i, i + t)
            entries[key] = entries.get(key, 0) + count * comb(m + i - 1, m - 1)
    return BettiTable(SUBJECT_IDEAL, i_max, entries)


def low_index_counts(I: MonomialIdeal, t_min: int, top: int) -> dict[tuple[int, int], int]:
    """(t, p) -> how many degree-t members of a strongly stable ideal have largest
    index <= p, for t_min <= t <= p <= top: each is uniquely u*v with u a generator
    and max(u) < min(v) (exterior Eliahou-Kervaire), so u adds C(p - m(u), t - deg u)."""
    _require_strongly_stable(I)
    return _low_index_counts(I, t_min, top)


def _low_index_counts(I: MonomialIdeal, t_min: int, top: int) -> dict[tuple[int, int], int]:
    """``low_index_counts`` unguarded, for an ideal the strongly stable walk yielded."""
    groups = _generator_groups(I).items()
    return {
        (t, p): sum(c * comb(p - m, t - d) for (d, m), c in groups if d <= t and m <= p)
        for t in range(t_min, top + 1) for p in range(t, top + 1)
    }


def max_index_domination(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """Sorted largest-index multisets compare pointwise: J's below I's.

    True implies total Betti numbers of J are at most those of I in every
    homological degree, with no cutoff, because each summand C(m+i-1, m-1) is
    monotone in m.
    """
    if len(I.gens) != len(J.gens):
        raise ProfileMismatch(
            f"generator counts differ: {len(I.gens)} vs {len(J.gens)}"
        )
    ours = sorted(m.bit_length() for m in J.masks)
    theirs = sorted(m.bit_length() for m in I.masks)
    return all(a <= b for a, b in zip(ours, theirs))


class ComparisonVerdict(NamedTuple):
    """Direction of the total-Betti comparison of J against I, up to a cutoff.

    ``strict_indices`` lists the i with strict inequality in the verdict's
    direction (both directions when incomparable); ``domination`` certifies
    the all-i lower bound when the largest-index multisets dominate.
    """

    mode: str
    strict_indices: tuple[int, ...]
    equal_indices: tuple[int, ...]
    i_max: int
    domination: bool

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "strict_indices": list(self.strict_indices),
            "equal_indices": list(self.equal_indices),
            "i_max": self.i_max,
            "domination": self.domination,
        }


def compare_betti(
    I: MonomialIdeal,
    J: MonomialIdeal,
    i_max: int,
    table_i: BettiTable | None = None,
    table_j: BettiTable | None = None,
) -> ComparisonVerdict:
    """Compare totals of J against I for 0 <= i <= i_max.

    Tables default to the closed form, so both ideals must be strongly stable
    unless precomputed tables of the ideals (e.g. from the oracle) are supplied.
    """
    if i_max < 0:
        raise ContractViolation(f"negative homological cutoff: {clipped_repr(i_max)}")
    for table in (table_i, table_j):
        if table is not None and table.subject != SUBJECT_IDEAL:
            raise ContractViolation(f"supplied the {table.subject}'s table, not the ideal's")
    ti = table_i if table_i is not None else stable_betti_table(I, i_max)
    tj = table_j if table_j is not None else stable_betti_table(J, i_max)
    if ti.i_max < i_max or tj.i_max < i_max:
        raise ContractViolation("supplied tables do not reach the comparison cutoff")
    left, right = ti.totals(), tj.totals()
    below = [i for i in range(i_max + 1) if right[i] < left[i]]
    above = [i for i in range(i_max + 1) if right[i] > left[i]]
    equal = tuple([i for i in range(i_max + 1) if right[i] == left[i]])
    if not below and not above:
        mode, strict = MODE_EQUAL, ()
    elif not above:
        mode, strict = MODE_LOWER, tuple(below)
    elif not below:
        mode, strict = MODE_UPPER, tuple(above)
    else:
        mode, strict = MODE_INCOMPARABLE, tuple(sorted(below + above))
    domination = False
    if len(I.gens) == len(J.gens):
        domination = max_index_domination(I, J)
    return ComparisonVerdict(mode, strict, equal, i_max, domination)
