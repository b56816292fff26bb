"""Squarefree monomials over a fixed variable set, the revlex order, and shadows.

A monomial is a set of 1-based variable indices stored as a bitmask: bit k set
means index k+1 divides the monomial. Two facts drive the whole module:

* divisibility is subset containment of masks, and
* among monomials of one degree, ascending mask order is exactly descending
  revlex order (the highest differing index decides, and it sits in the
  revlex-smaller monomial).

Degree-homogeneous collections are passed around as plain iterables or sets of
``Monomial``; every function here is pure.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import islice
from math import comb
from operator import attrgetter

from .errors import ContractViolation, InsufficientMonomials, clipped_repr

# Masks stay machine-sized on purpose; 64 variables is far beyond desk scale.
MAX_VARIABLES = 64

# bound once, as namedtuple's own __new__ does: a lookup per call costs about 8%
_tuple_new = tuple.__new__


class Monomial(namedtuple("Monomial", "mask")):
    """A squarefree monomial e_{i1}...e_{id}, as a bitmask of its indices."""

    __slots__ = ()

    def __new__(cls, mask: int) -> "Monomial":
        if mask < 0:  # infinitely many set bits: no degree, indices or text
            raise ContractViolation(f"negative monomial mask {clipped_repr(mask)}")
        return _tuple_new(cls, (mask,))

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "Monomial":
        mask = 0
        for i in indices:
            # bool is an int subclass, but JSON true is not an index
            valid = isinstance(i, int) and not isinstance(i, bool)
            if not valid or not 1 <= i <= MAX_VARIABLES:
                raise ContractViolation(f"variable index out of range: {clipped_repr(i)}")
            bit = 1 << (i - 1)
            if mask & bit:
                raise ContractViolation(f"repeated variable index: {i}")
            mask |= bit
        return cls(mask)

    @classmethod
    def from_text(cls, text: str) -> "Monomial":
        """Parse the textual form 'e1e3e4'; '1' denotes the unit monomial."""
        s = text.strip()
        if s == "1":
            return cls(0)
        if not s.startswith("e") or s == "e":
            raise ContractViolation(f"cannot parse monomial {clipped_repr(text)}")
        try:
            indices = [int(part) for part in s[1:].split("e")]
        except ValueError:
            raise ContractViolation(f"cannot parse monomial {clipped_repr(text)}") from None
        return cls.from_indices(indices)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def indices(self) -> tuple[int, ...]:
        out, mask = [], self.mask
        if mask < 0:  # infinitely many set bits: the loop would never end
            raise ContractViolation(f"negative monomial mask {clipped_repr(mask)}")
        while mask:  # one step per set bit
            low = mask & -mask
            out.append(low.bit_length())
            mask ^= low
        return tuple(out)

    @property
    def max_index(self) -> int:
        """Largest variable index, 0 for the unit monomial."""
        return self.mask.bit_length()

    def contains(self, index: int) -> bool:
        return bool(self.mask >> (index - 1) & 1) if index >= 1 else False

    def text(self) -> str:
        if not self.mask:
            return "1"
        return "".join(f"e{i}" for i in self.indices)

    def __repr__(self) -> str:  # compact in pytest output
        try:
            return self.text()
        except ContractViolation:  # a negative mask has no text
            return f"Monomial(mask={clipped_repr(self.mask)})"


_mask = attrgetter("mask")


def common_degree(monos: Iterable[Monomial]) -> int | None:
    """Degree of a homogeneous collection; None when it is empty."""
    monos = list(monos)
    degrees = set(map(int.bit_count, map(_mask, monos)))
    if len(degrees) > 1:  # name the first member off the first one's degree
        deg = monos[0].degree
        for u in monos:
            if u.degree != deg:
                raise ContractViolation(f"mixed degrees: {deg} and {u.degree}")
    return degrees.pop() if degrees else None


def _require_ambient_size(n) -> None:
    """Refuse an ambient size that is not an int (a bool is not one) in 1..MAX_VARIABLES."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ContractViolation(f"ambient size must be an integer, got {clipped_repr(n)}")
    if not 1 <= n <= MAX_VARIABLES:
        raise ContractViolation(f"ambient size out of range: {clipped_repr(n)}")


def require_ambient(monos: Iterable[Monomial], n: int) -> None:
    _require_ambient_size(n)
    monos = list(monos)
    if monos and max(map(_mask, monos)).bit_length() > n:
        for u in monos:  # name the first one outside
            if u.max_index > n:
                raise ContractViolation(f"{u} does not live in e_1..e_{n}")


def iter_degree_masks(n: int, d: int) -> Iterator[int]:
    """Masks of all degree-d monomials in e_1..e_n, ascending (= revlex descending)."""
    if d < 0 or d > n:
        return
    if d == 0:
        yield 0
        return
    limit = 1 << n
    mask = (1 << d) - 1
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> (low.bit_length() + 1))


def revlex_segment(n: int, d: int, length: int) -> list[Monomial]:
    """The ``length`` revlex-largest monomials of degree d, in decreasing order."""
    if not 1 <= d <= n:
        raise ContractViolation(f"degree {d} outside 1..{n}")
    if length < 0:
        raise ContractViolation(f"negative segment length: {length}")
    if length > comb(n, d):
        raise InsufficientMonomials(
            f"only {comb(n, d)} monomials of degree {d} in e_1..e_{n}, asked for {length}"
        )
    return [Monomial(mask) for mask in islice(iter_degree_masks(n, d), length)]


def shadow_masks(masks: Iterable[int], window: int) -> set[int]:
    """``m | bit`` for every mask m and every bit of ``window`` outside m: the
    shadow of a set of supports by the window's variables, with no contract checks."""
    out = set()
    for m in masks:
        free = window & ~m
        while free:
            bit = free & -free
            out.add(m | bit)
            free ^= bit
    return out


def borel_move_masks(mask: int) -> Iterator[int]:
    """Masks reached from ``mask`` by one index-lowering move j -> i, i < j unused."""
    rest = mask
    while rest:
        j_bit = rest & -rest
        rest ^= j_bit
        free_below = ~mask & (j_bit - 1)
        base = mask ^ j_bit
        while free_below:
            bit = free_below & -free_below
            yield base | bit
            free_below ^= bit


def borel_reductions(u: Monomial) -> Iterator[Monomial]:
    """Monomials reached from u by one index-lowering move j -> i, i < j unused."""
    return map(Monomial, borel_move_masks(u.mask))


def _closed_under_moves(monos: Iterable[Monomial], largest_only: bool) -> bool:
    """Index-lowering moves (optionally only of the largest index) stay in the set."""
    monos = set(monos)
    common_degree(monos)
    masks = {u.mask for u in monos}
    for u in masks:
        for v in borel_move_masks(u):
            lowers_largest = v.bit_length() < u.bit_length()
            if (lowers_largest or not largest_only) and v not in masks:
                return False
    return True


def is_strongly_stable(monos: Iterable[Monomial]) -> bool:
    """Closed under every index-lowering move; vacuously true for the empty set."""
    return _closed_under_moves(monos, largest_only=False)


def is_stable(monos: Iterable[Monomial]) -> bool:
    """Closed under lowering the largest index only."""
    return _closed_under_moves(monos, largest_only=True)
