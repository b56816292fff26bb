"""Exhaustive streams of strongly stable sets and ideals at desk scale.

A degree component is strongly stable exactly when it is down-closed for the
index-lowering moves, and ascending mask order is a linear extension of that
order. So a backtracking scan over the ascending masks that may include an
element only once all its one-move reductions are in produces every down-set
exactly once, with no post-filtering. The scan keeps its decisions on an
explicit stack rather than recursing, so the number of candidate monomials is
not bounded by the interpreter's recursion limit.

One walk kernel serves every stream: elements carry a bit, a monomial and the
bits of their predecessors, over one bitmap of what is chosen. Each degree
pair's tables are built once per call: the upper degree's elements, and each
lower-degree mask's multiples as a bitmap, so a set's members in the upper
degree are the OR of its generators' rows.

The same walk, with facets in place of the moves, streams every proper nonzero
monomial ideal: the monomials outside such an ideal form a down-set of the
subset order that contains 1 and is not everything. Where a universe is too
large to walk, a seeded draw of proper ideals tops it up.

Both ideal streams build their ideals without the constructor's checks
(``ideals._derived_ideal``), and each checks n once, at its head. The
strongly stable walk takes each degree's masks ascending from
``iter_degree_masks`` with d >= 1, so they are nonzero and below 1 << n; the
lower degree comes first; and a degree-d2 element is offered only when no
chosen degree-d1 generator divides it. The proper-ideal walk lists its
elements in canonical order, and an ideal's minimal generators are the
elements it contains whose facets all lie outside it, which is the walk's own
test. So every set is sorted, minimal and in range.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import combinations

from .errors import CampaignTooLarge, ContractViolation, clipped_repr
from .ideals import MonomialIdeal, _derived_ideal, minimalize
from .monomials import Monomial, _require_ambient_size, borel_move_masks, iter_degree_masks

# The largest n the proper-ideal stream walks: its table holds all 2^n masks,
# and at n = 6 the stream already yields 7.8 million ideals.
PROPER_N_MAX = 6


def _facet_masks(mask: int) -> tuple[int, ...]:
    return tuple([mask ^ (1 << k) for k in range(mask.bit_length()) if mask >> k & 1])


def _elements(masks: list[int], preds: Callable[[int], Iterable[int]]) -> list[tuple]:
    """(bit, monomial, needs) for each of ``masks`` in order: bit k for masks[k],
    and needs the bits of ``preds(mask)``, which are listed before it."""
    bit = {m: 1 << k for k, m in enumerate(masks)}
    return [(bit[m], Monomial(m), sum(bit[r] for r in preds(m))) for m in masks]


def _down_sets(elems: list[tuple], given: int, cap: int | None) -> Iterator[tuple[Monomial, ...]]:
    """Every down-closed choice from ``elems``, exclude first.

    Each (bit, monomial, needs) element is listed after the elements whose
    bits its needs hold, except those in ``given``: the one bitmap of what is
    chosen starts at ``given``. Each choice is yielded as the tuple of its
    monomials in ``elems`` order. This is the depth-first order of the binary
    walk that at each element first skips it and then, when its predecessors
    are all in and fewer than ``cap`` elements are chosen, takes it.
    """
    cap = len(elems) if cap is None else cap
    backwards = list(enumerate(elems))[::-1]  # each scan starts at the last element
    taken = [-1]  # positions chosen, ascending, above a sentinel
    chosen: list[Monomial] = []
    bits = given
    while True:
        yield tuple(chosen)
        # the deepest position whose take-branch is still open
        last = taken[-1]
        for i, (bit, mono, needs) in backwards:
            if i == last:
                taken.pop()
                chosen.pop()
                bits ^= bit
                last = taken[-1]
            elif bits & needs == needs and len(chosen) < cap:
                break
        else:
            return
        taken.append(i)
        chosen.append(mono)
        bits |= bit


def enumerate_strongly_stable_sets(n: int, d: int) -> Iterator[tuple[Monomial, ...]]:
    """Every nonempty strongly stable set of degree d over e_1..e_n, once each.

    Yields tuples sorted in decreasing revlex order; the stream order is
    deterministic. A degree d above n yields nothing.
    """
    _require_ambient_size(n)
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ContractViolation(f"degree must be an integer of at least 1, got {clipped_repr(d)}")
    walk = _down_sets(_elements(list(iter_degree_masks(n, d)), borel_move_masks), 0, None)
    next(walk)  # the empty set comes first
    yield from walk


def _two_degree_sets(n: int, max_extra: int | None) -> Iterator[tuple[tuple, tuple]]:
    """(M, extra) for every two-degree ideal of ``enumerate_strongly_stable_ideals``,
    in its order: M the degree-d1 generators, extra the degree-d2 ones.
    ``max_extra`` caps the number of degree-d2 generators."""
    for d1, d2 in combinations(range(1, n + 1), 2):
        upper = _elements(list(iter_degree_masks(n, d2)), borel_move_masks)
        # the bits of each degree-d1 mask's degree-d2 multiples
        multiples = {
            u: sum(bit for bit, v, _ in upper if u & v.mask == u) for u in iter_degree_masks(n, d1)
        }
        for mset in enumerate_strongly_stable_sets(n, d1):
            members = 0
            for u in mset:
                members |= multiples[u.mask]
            walk = _down_sets([e for e in upper if not e[0] & members], members, max_extra)
            next(walk)  # adding nothing leaves d2 without generators
            for extra in walk:
                yield mset, extra


def enumerate_strongly_stable_ideals(n: int, max_degrees: int = 2) -> Iterator[MonomialIdeal]:
    """Strongly stable ideals over e_1..e_n with at most two generator degrees.

    Single-degree ideals come first (each strongly stable set is its own
    minimal generating set), then for each degree pair d1 < d2 every strongly
    stable degree-d1 set is extended by every strongly stable degree-d2
    superset of its multiples, the new monomials becoming the d2 generators.
    Distinct choices give distinct minimal generating sets, so the stream is
    duplicate-free. ``max_degrees`` is 1 or 2.
    """
    _require_ambient_size(n)
    if type(max_degrees) is not int or max_degrees not in (1, 2):
        raise ContractViolation(f"max_degrees must be 1 or 2, got {clipped_repr(max_degrees)}")
    for d in range(1, n + 1):
        for mset in enumerate_strongly_stable_sets(n, d):
            yield _derived_ideal(n, mset)
    if max_degrees == 1:
        return
    for mset, extra in _two_degree_sets(n, None):
        yield _derived_ideal(n, mset + extra)


def enumerate_proper_ideals(n: int) -> Iterator[MonomialIdeal]:
    """Every proper nonzero monomial ideal over e_1..e_n, once each, in a fixed
    order; n above ``PROPER_N_MAX`` is refused before any table is built."""
    _require_ambient_size(n)
    if n > PROPER_N_MAX:
        refused = f"proper-ideal stream at n = {n} is above its ceiling {PROPER_N_MAX}"
        raise CampaignTooLarge(refused)
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))  # the unit first
    elems = _elements(masks, _facet_masks)[1:]
    bit_of = {u: bit for bit, u, _ in elems}
    for outside in _down_sets(elems, 1, None):  # the unit is always outside
        if len(outside) < len(elems):
            bits = sum(map(bit_of.__getitem__, outside), 1)
            # the generators: inside the ideal, with every facet outside it
            gens = [u for bit, u, needs in elems if not bits & bit and bits & needs == needs]
            yield _derived_ideal(n, tuple(gens))


def seeded_proper_ideals(n: int, count: int) -> list[MonomialIdeal]:
    """Deterministic pseudo-random proper ideals, dedup by canonical form."""
    import random  # only the oracle-agreement campaign seeds ideals
    rng = random.Random(20240501)
    pool = [m for d in range(1, n + 1) for m in iter_degree_masks(n, d)]
    seen: set[tuple] = set()
    out: list[MonomialIdeal] = []
    while len(out) < count:
        size = rng.randint(1, 6)
        picks = [Monomial(rng.choice(pool)) for _ in range(size)]
        I = minimalize(n, picks)
        key = (I.n, I.gens)
        if key not in seen:
            seen.add(key)
            out.append(I)
    return out
