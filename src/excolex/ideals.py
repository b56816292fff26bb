"""Monomial ideals presented by minimal generators.

In the exterior algebra a monomial u divides v exactly when supp(u) is
contained in supp(v), so ideal membership of a monomial is a subset test
against the generators. Graded components are computed by that superset test
directly, independently of iterated shadows, which lets the two routes
cross-check each other. ``component_masks`` reads a whole component at once:
over a cached table of the ascending degree-t masks it keeps, per variable, a
bitmap of the positions whose mask holds it, so a generator's multiples are
an AND of bitmaps and the component an OR over the generators. Every reader
of a whole component goes through it, and a component of more than
``MAX_TABLE_MASKS`` masks is refused before its table is built. The readers of
a prefix (the colexsegment greedy, ``colex.is_revlex_segment``) scan it lazily
instead, so a huge component costs them only the prefix they read.

Minimality only ever compares generators of different degrees: distinct masks
with the same bit count are never subsets of one another, so a generating set
of a single degree is minimal as soon as it has no duplicates.

An ideal is checked where its generators enter the package: the public
constructor and ``minimalize`` serve generators from outside (JSON, text
constants, random picks, direct calls and unpickling). Every generating set
the package derives itself (the walks of ``enumeration``, the colexsegment
greedy, revlex segments) is built once, unchecked, by ``_derived_ideal``;
each caller states in one line why its set is sorted, minimal and inside
e_1..e_n, over an n it has checked.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import compress
from math import comb

from .errors import ComponentTooLarge, ContractViolation, clipped_repr
from .monomials import (
    Monomial,
    _require_ambient_size,
    borel_move_masks,
    is_strongly_stable,
    iter_degree_masks,
)

# A degree profile is the sorted tuple of (degree, generator count) pairs.
DegreeProfile = tuple[tuple[int, int], ...]

_set = object.__setattr__  # MonomialIdeal's own __setattr__ refuses every write

# The most masks a degree table may hold, and the kept tables in all: a larger
# table is refused before it is built (C(32, 16) masks would not fit in memory).
MAX_TABLE_MASKS = 1_000_000
_tables: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}


def _canonical(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    return tuple(sorted(gens, key=lambda u: (u.mask.bit_count(), u.mask)))


def _refuse_masks(gens: tuple[Monomial, ...], masks: tuple[int, ...], n: int) -> None:
    """Raise for the first sorted generator that is not a monomial of e_1..e_n
    other than the unit, or that repeats the one before it."""
    previous = None
    for u, mask in zip(gens, masks):
        if mask < 0:  # its text never ends: print the mask
            raise ContractViolation(f"negative generator mask {clipped_repr(mask)}")
        if mask == 0:
            raise ContractViolation("the unit monomial generates an improper ideal")
        if mask.bit_length() > n:
            raise ContractViolation(f"generator {u} does not live in e_1..e_{n}")
        if mask == previous:  # sorted, so equal masks are adjacent
            raise ContractViolation(f"duplicate generator {u}")
        previous = mask


class MonomialIdeal:
    """A proper nonzero monomial ideal, keyed by ambient size and sorted generators.

    Generators are stored by (degree, revlex-descending) order; equality and
    hashing are structural on ``(n, gens)``, and instances are immutable.
    ``masks`` holds the generators' masks in the same order, derived once here
    for every mask-level consumer. The constructor rejects non-minimal
    generating sets; use ``minimalize`` to canonicalize raw input.
    """

    __slots__ = ("n", "gens", "masks")

    def __init__(self, n: int, gens: Iterable[Monomial]):
        gens = _canonical(gens)
        # from a list, whose length tuple() reads: from a bare iterator it
        # shrinks an oversized tuple, and CPython's per-size free lists then
        # hoard such tuples (megabytes of peak RSS over a long campaign)
        masks = tuple([u.mask for u in gens])
        _set(self, "n", n)
        _set(self, "gens", gens)
        _set(self, "masks", masks)
        _require_ambient_size(n)
        if not gens:
            raise ContractViolation("an ideal needs at least one generator")
        _refuse_masks(gens, masks, n)
        degrees = list(map(int.bit_count, masks))
        # a proper divisor has strictly lower degree: test each degree block
        # against the generators of higher degree only, first pair first
        count = len(masks)
        start = 0
        while (end := bisect_right(degrees, degrees[start])) < count:
            above = masks[end:]
            for u in masks[start:end]:
                for v in above:
                    if u & v == u:
                        i, j = masks.index(u), masks.index(v)
                        raise ContractViolation(
                            f"{gens[i]} divides {gens[j]}; generators are not minimal"
                        )
            start = end

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: MonomialIdeal is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: MonomialIdeal is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return MonomialIdeal, (self.n, self.gens)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n!r}, gens={self.gens!r})"

    @property
    def indeg(self) -> int:
        return self.masks[0].bit_count()

    def gens_of_degree(self, d: int) -> tuple[Monomial, ...]:
        return tuple([u for u in self.gens if u.degree == d])

    def contains(self, mono: Monomial) -> bool:
        mask = mono.mask
        return any(g & mask == g for g in self.masks)

    def as_dict(self) -> dict:
        return {"n": self.n, "generators": [list(u.indices) for u in self.gens]}

    @classmethod
    def from_dict(cls, obj: dict, allow_text: bool = True) -> "MonomialIdeal":
        try:
            n = obj["n"]
            raw = obj["generators"]
        except (TypeError, KeyError):
            raise ContractViolation(
                'ideal JSON must look like {"n": 5, "generators": [[1,2],[1,3,4]]}'
            ) from None
        _require_ambient_size(n)
        if not isinstance(raw, list):
            raise ContractViolation(f"generators must be a list, got {clipped_repr(raw)}")
        gens = [parse_monomial(entry, allow_text=allow_text) for entry in raw]
        return minimalize(n, gens)


def _derived_ideal(n: int, gens: tuple[Monomial, ...]) -> MonomialIdeal:
    """The ideal of a generating set the package derived itself, unchecked.

    ``gens`` must be a tuple in canonical order, minimal and inside e_1..e_n,
    over an ambient size already checked; each caller says why its set is
    (see the module docstring). A module function, not a method, so the
    bench's tracer, which wraps the class's methods, neither wraps nor counts it.
    """
    I = object.__new__(MonomialIdeal)
    _set(I, "n", n)
    _set(I, "gens", gens)
    _set(I, "masks", tuple([u.mask for u in gens]))  # from a list: see __init__
    return I


def parse_monomial(entry, allow_text: bool = True) -> Monomial:
    """A monomial from its JSON array form [1,3,4] or text form 'e1e3e4'."""
    if isinstance(entry, str):
        if not allow_text:
            raise ContractViolation(
                f"text monomial {clipped_repr(entry)} needs text parsing enabled"
            )
        return Monomial.from_text(entry)
    if isinstance(entry, (list, tuple)):
        return Monomial.from_indices(entry)
    raise ContractViolation(f"cannot parse monomial {clipped_repr(entry)}")


def minimalize(n: int, raw: Iterable[Monomial]) -> MonomialIdeal:
    """Drop duplicates and every monomial that is a multiple of another one.

    Masks are visited by degree; each is kept unless a kept mask of strictly
    lower degree divides it (a discarded divisor has a kept divisor of its own).
    """
    masks = sorted({u.mask for u in raw}, key=lambda m: (m.bit_count(), m))
    if not masks:
        raise ContractViolation("cannot build an ideal from no monomials")
    below: list[int] = []  # kept masks of lower degree
    level: list[int] = []  # kept masks of the current degree
    degree = None
    for m in masks:
        d = m.bit_count()
        if d != degree:
            degree = d
            below += level
            level = []
        for k in below:
            if k & m == k:
                break
        else:
            level.append(m)
    return MonomialIdeal(n, [Monomial(m) for m in below + level])


def _degree_table(n: int, t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ascending degree-t masks below 2^n and, for each variable k < n, the
    bitmap of the positions whose mask holds k.

    Refuses (``ComponentTooLarge``) a table of more than ``MAX_TABLE_MASKS``
    masks before building it; a table is kept while all kept tables fit
    under that bound."""
    table = _tables.get((n, t))
    if table is None:
        size = comb(n, t)
        if size > MAX_TABLE_MASKS:
            raise ComponentTooLarge(
                f"degree-{t} component of e_1..e_{n} has {size} masks, above {MAX_TABLE_MASKS}"
            )
        masks = tuple(iter_degree_masks(n, t))
        # the masks in n-digit binary, the last first: the digits of variable k
        # are every n-th character, and position p lands on bit p
        text = "".join([f"{m:0{n}b}" for m in reversed(masks)])
        table = masks, tuple(int(text[n - 1 - k :: n], 2) for k in range(n))
        if size + sum(len(kept) for kept, _ in _tables.values()) <= MAX_TABLE_MASKS:
            _tables[n, t] = table
    return table


def component_masks(gen_masks: Iterable[int], n: int, t: int) -> tuple[tuple[int, ...], int]:
    """The ascending degree-t masks below 2^n (0 <= t <= n), and the bitmap of
    the positions of those a generator mask divides.

    The superset test, a whole component at once: a generator's multiples are
    the AND of its variables' bitmaps, and the component is the OR over the
    generators. Refuses (``ComponentTooLarge``) a component of more than
    ``MAX_TABLE_MASKS`` masks."""
    masks, bitmaps = _degree_table(n, t)
    full = (1 << len(masks)) - 1
    inside = 0
    for g in gen_masks:
        if g.bit_count() > t or g >> n:  # no multiple of degree t below 2^n
            continue
        multiples = full
        while g:
            low = g & -g
            multiples &= bitmaps[low.bit_length() - 1]
            g ^= low
        inside |= multiples
        if inside == full:
            break
    return masks, inside


def _masks_at(masks: Sequence[int], bits: int) -> list[int]:
    """The masks at the set positions of ``bits``, in order."""
    return list(compress(masks, map("1".__eq__, reversed(f"{bits:b}"))))


def graded_component(I: MonomialIdeal, t: int) -> set[Monomial]:
    """All degree-t monomials of the ideal (the superset test, not iterated shadows)."""
    if not 0 <= t <= I.n:
        raise ContractViolation(f"degree {t} outside 0..{I.n}")
    return set(map(Monomial, _masks_at(*component_masks(I.masks, I.n, t))))


def degree_profile(I: MonomialIdeal) -> DegreeProfile:
    return tuple(sorted(Counter(map(int.bit_count, I.masks)).items()))


def is_strongly_stable_ideal(I: MonomialIdeal) -> bool:
    """Every index-lowering move of every generator stays inside the ideal."""
    masks = I.masks
    members = set(masks)
    for k, u in enumerate(masks):
        for v in borel_move_masks(u):
            # a move keeps u's degree: it is a generator, or a multiple of one
            # of lower degree, listed before u
            if v not in members and not any(g & v == g for g in masks[:k]):
                return False
    return True


def is_strongly_stable_ideal_componentwise(I: MonomialIdeal) -> bool:
    """The definition taken literally, one graded component at a time.

    Agrees with the generator-level test; kept as the slow independent route.
    """
    return all(
        is_strongly_stable(graded_component(I, t)) for t in range(I.indeg, I.n + 1)
    )
