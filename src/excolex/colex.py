"""The colexsegment construction and revlex-ideal characterizations.

Given the degree profile of an ideal, the construction picks, degree by
degree, the revlex-largest monomials not already generated, over the smallest
ambient e_1..e_m (m at least the input ambient) where every degree can be
served. One greedy pass at the cap finds that m: the degree-d masks below 2^m
are a prefix of the ascending degree-d masks of any larger ambient, so the
greedy at m succeeds exactly when every pick at the cap lies in e_1..e_m, and
then both pick the same masks. ``greedy_generators`` takes the ambient as an
argument so that this can be checked by rerunning it at larger m.
"""

from __future__ import annotations

from itertools import groupby, islice, takewhile
from math import comb
from typing import Iterable, NamedTuple

from .errors import (
    AmbientCapExceeded,
    ConstructionTooLarge,
    ContractViolation,
    DegreeTooHigh,
    HypothesisViolated,
    NotARevlexSegment,
    clipped_repr,
)
from .ideals import DegreeProfile, MonomialIdeal, _derived_ideal, degree_profile, scan_component
from .monomials import (
    MAX_VARIABLES,
    Monomial,
    common_degree,
    iter_degree_masks,
    require_ambient,
    shadow_masks,
)

# Largest ambient size the construction scan tries unless told otherwise.
DEFAULT_AMBIENT_CAP = 32
# Masks the greedy may visit, over all degrees, before it refuses (~1 us a mask, CPython 3.11).
MAX_SCANNED_MASKS = 1_000_000


def greedy_generators(profile: DegreeProfile, m: int) -> tuple[Monomial, ...] | None:
    """One construction attempt at a fixed ambient size, or None when a degree starves.

    Masks ascend in revlex-descending order, so the first picks not divisible
    by an earlier choice are exactly the revlex-largest available monomials.
    Refuses (``ConstructionTooLarge``) once the scan passes ``MAX_SCANNED_MASKS``."""
    chosen: list[int] = []
    scanned = 0  # masks visited, over every degree
    for degree, count in profile:
        picks = []
        for scanned, (mask, inside) in enumerate(scan_component(chosen, m, degree), scanned + 1):
            if scanned > MAX_SCANNED_MASKS:
                raise ConstructionTooLarge(f"construction scan passes {MAX_SCANNED_MASKS} masks")
            if not inside:
                picks.append(mask)
                if len(picks) == count:  # the scan stops at the count-th pick
                    break
        else:
            return None
        chosen += picks
    return tuple([Monomial(mask) for mask in chosen])


def colex_ideal(I: MonomialIdeal, m_cap: int = DEFAULT_AMBIENT_CAP) -> MonomialIdeal:
    """The colexsegment ideal J of I, over the smallest workable ambient m = J.n.

    The ambient starts at I's own and only ever adds variables, matching the
    two worked construction examples (m = 5 and m = 6). One greedy pass at the
    cap, clamped to MAX_VARIABLES, picks what the greedy at every workable m
    picks (see the module docstring): m is I.n or the largest index picked.
    """
    if m_cap < I.n:
        raise ContractViolation(f"m_cap {clipped_repr(m_cap)} below the ambient size {I.n}")
    cap = min(m_cap, MAX_VARIABLES)
    gens = greedy_generators(degree_profile(I), cap)
    if gens is None:
        raise AmbientCapExceeded(cap)
    # picked by degree from 1 up, masks ascending, none a multiple of a pick; cap <= 64
    return _derived_ideal(max(I.n, *(u.max_index for u in gens)), gens)


def construction_dict(J: MonomialIdeal) -> dict:
    """The ``colex`` JSON of a construction: its ambient m, J, and J's generators by degree."""
    return {
        "m": J.n,
        "J": J.as_dict(),
        "steps": [
            {"degree": degree, "chosen": [list(u.indices) for u in chosen]}
            for degree, chosen in groupby(J.gens, key=lambda u: u.degree)
        ],
    }


def is_revlex_segment(monos, n: int) -> bool:
    """Whether the set equals the first |M| monomials of its degree in revlex."""
    monos = set(monos)
    require_ambient(monos, n)
    d = common_degree(monos)
    if d is None or d == 0:
        return True
    masks = sorted(u.mask for u in monos)
    return all(expected == got for expected, got in zip(iter_degree_masks(n, d), masks))


def _segment_length(flags: Iterable[bool]) -> int | None:
    """How many members lead a scan of one degree's ascending masks, or None
    when a member follows a non-member (the members are then no revlex segment)."""
    flags = iter(flags)
    length = sum(1 for _ in takewhile(bool, flags))
    return None if any(flags) else length


def is_revlex_ideal(I: MonomialIdeal) -> bool:
    """Every graded component from the initial degree up is a revlex segment."""
    for t in range(I.indeg, I.n + 1):
        length = _segment_length(inside for _, inside in scan_component(I.masks, I.n, t))
        if length is None:
            return False
        if length == comb(I.n, t):  # every degree-t monomial is in, so every higher one is
            return True
    return True


def segment_shadow_conditions(monos, n: int) -> tuple[bool, bool, bool]:
    """Three equivalent tests on a revlex segment M of degree d < n-2.

    Returns (shadow is a revlex segment, |M| >= C(n-2, d), the corner monomial
    e_{n-d-1}...e_{n-2} lies in M). The equivalence itself is a theorem; the
    harness checks it exhaustively.
    """
    monos = set(monos)
    d = common_degree(monos)
    if d is None or d == 0:
        raise ContractViolation("need a nonempty segment of positive degree")
    if not is_revlex_segment(monos, n):
        raise NotARevlexSegment(f"input is not a revlex segment in e_1..e_{n}")
    if d >= n - 2:
        raise DegreeTooHigh(f"degree {d} not below n-2 = {n - 2}")
    masks = {u.mask for u in monos}
    shad = shadow_masks(masks, (1 << n) - 1)  # the degree-(d+1) component of (M)
    shadow_length = _segment_length(m in shad for m in iter_degree_masks(n, d + 1))
    big_enough = len(monos) >= comb(n - 2, d)
    corner = ((1 << d) - 1) << (n - d - 2)  # e_{n-d-1}...e_{n-2}
    return (shadow_length is not None, big_enough, corner in masks)


class RevlexConditionReport(NamedTuple):
    """Both numeric conditions for a two-degree colexsegment ideal to be revlex.

    Everything is evaluated over the ambient where the construction completed
    (``n``); when that exceeds the input ambient, the input ideal is re-read
    there first. The second condition is decided against the construction's
    own degree-d2 dimension (``dim_construction_d2``); the input ideal's
    ``dim_d2`` is reported alongside because the two can differ, and only the
    construction-side reading makes the equivalence hold on every checked
    input.
    """

    n: int
    d1: int
    d2: int
    dim_d1: int
    dim_d2: int
    dim_construction_d2: int
    threshold_i: int
    holds_i: bool
    a_size: int
    c: int
    holds_ii: bool
    is_revlex: bool

    @property
    def consistent(self) -> bool:
        return self.is_revlex == (self.holds_i or self.holds_ii)

    def as_dict(self) -> dict:
        return {**self._asdict(), "consistent": self.consistent}


def revlex_conditions_two_degrees(I: MonomialIdeal) -> RevlexConditionReport:
    """Evaluate the two-degree revlex criteria and the direct check side by side.

    Condition (i): the degree-d1 dimension reaches C(n-2, d1). Condition (ii):
    consecutive degrees, and the construction's degree-d2 component is long
    enough to reach past the boundary monomial w = revlex-min of the shadow of
    its degree-d1 segment, measured as |{v >= z}| + |{z > v >= w}| with
    z = e_{n-d1-1}...e_{n-1}.
    """
    profile = degree_profile(I)
    if len(profile) != 2:
        raise HypothesisViolated("need an ideal generated in exactly two degrees")
    (d1, p1), (d2, p2) = profile
    J = colex_ideal(I)
    n = J.n
    if not d2 < n - 2:
        raise HypothesisViolated(f"need d2 < n-2, got d2 = {d2}, n = {n}")
    dim_d1 = p1  # the initial-degree component is spanned by its generators
    dim_d2 = sum(inside for _, inside in scan_component(I.masks, n, d2))
    dim_construction_d2 = sum(inside for _, inside in scan_component(J.masks, n, d2))
    threshold_i = comb(n - 2, d1)
    holds_i = dim_d1 >= threshold_i
    a_size = sum(comb(r, d1) for r in range(d1, n - 1))
    c, holds_ii = 0, False
    if d2 == d1 + 1:
        # w: the revlex-least member (largest mask) of the degree-d1 segment's shadow
        w = max(shadow_masks(islice(iter_degree_masks(n, d1), dim_d1), (1 << n) - 1))
        z = ((1 << (d1 + 1)) - 1) << (n - d1 - 2)  # e_{n-d1-1}...e_{n-1}
        # count degree-d2 monomials v with z > v >= w; masks ascend in revlex
        # descending order, so the window is z < mask(v) <= w
        c = sum(m > z for m in takewhile(lambda m: m <= w, iter_degree_masks(n, d2)))
        holds_ii = dim_construction_d2 >= a_size + c
    return RevlexConditionReport(
        n=n,
        d1=d1,
        d2=d2,
        dim_d1=dim_d1,
        dim_d2=dim_d2,
        dim_construction_d2=dim_construction_d2,
        threshold_i=threshold_i,
        holds_i=holds_i,
        a_size=a_size,
        c=c,
        holds_ii=holds_ii,
        is_revlex=is_revlex_ideal(J),
    )


def revlex_condition_single_degree(I: MonomialIdeal) -> bool:
    """Whether the colexsegment ideal of a single-degree ideal is revlex.

    For an ideal generated in one degree d < n-2 this is decided by the
    generator count alone: |G(I)| >= C(n-2, d).
    """
    profile = degree_profile(I)
    if len(profile) != 1:
        raise HypothesisViolated("need an ideal generated in a single degree")
    (d, count), = profile
    if not d < I.n - 2:
        raise HypothesisViolated(f"need d < n-2, got d = {d}, n = {I.n}")
    return count >= comb(I.n - 2, d)
