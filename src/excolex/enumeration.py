"""Exhaustive streams of strongly stable sets and ideals at desk scale.

A degree component is strongly stable exactly when it is down-closed for the
index-lowering moves, and ascending mask order is a linear extension of that
order. So a backtracking scan over the ascending masks that may include an
element only once all its one-move reductions are in produces every down-set
exactly once, with no post-filtering. The scan keeps its decisions on an
explicit stack rather than recursing, so the number of candidate monomials is
not bounded by the interpreter's recursion limit.

The same walk, with facets in place of the moves, streams every proper nonzero
monomial ideal: the monomials outside such an ideal form a down-set of the
subset order that contains 1 and is not everything. Where a universe is too
large to walk, a seeded draw of proper ideals tops it up.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import combinations

from .ideals import MonomialIdeal, minimalize, scan_component
from .monomials import Monomial, borel_move_masks, iter_degree_masks


def _facet_masks(mask: int) -> tuple[int, ...]:
    return tuple([mask ^ (1 << k) for k in range(mask.bit_length()) if mask >> k & 1])


def _down_sets(
    elems: list[int], preds: Callable[[int], Iterable[int]],
    given: set[int], cap: int | None,
) -> Iterator[list[Monomial]]:
    """Every down-closed choice from ``elems``, exclude first.

    ``elems`` lists each mask after its predecessors ``preds(mask)``, except
    those in ``given``, which count as already chosen. Each
    choice is yielded as the live stack of chosen monomials in ``elems`` order,
    which the caller must copy before resuming. This is the depth-first order
    of the binary walk that at each element first skips it and then, when its
    predecessors are all in and fewer than ``cap`` elements are chosen, takes
    it.
    """
    where = {m: i for i, m in enumerate(elems)}
    # needs[i]: bit j set when elems[j] is a predecessor of elems[i] (so j < i)
    needs = [
        sum(1 << where[r] for r in preds(m) if r not in given)
        for m in elems
    ]
    monos = [Monomial(m) for m in elems]
    cap = len(elems) if cap is None else cap
    taken: list[int] = []  # positions chosen, ascending
    chosen: list[Monomial] = []
    bits = 0
    while True:
        yield chosen
        # the deepest position whose take-branch is still open
        i = len(elems) - 1
        while i >= 0:
            if taken and taken[-1] == i:
                taken.pop()
                chosen.pop()
                bits ^= 1 << i
            elif bits & needs[i] == needs[i] and len(taken) < cap:
                break
            i -= 1
        else:
            return
        taken.append(i)
        chosen.append(monos[i])
        bits |= 1 << i


def enumerate_strongly_stable_sets(n: int, d: int) -> Iterator[tuple[Monomial, ...]]:
    """Every nonempty strongly stable set of degree d over e_1..e_n, once each.

    Yields tuples sorted in decreasing revlex order; the stream order is
    deterministic.
    """
    walk = _down_sets(list(iter_degree_masks(n, d)), borel_move_masks, set(), None)
    next(walk)  # the empty set comes first
    for chosen in walk:
        yield tuple(chosen)


def enumerate_strongly_stable_ideals(
    n: int,
    max_degrees: int = 2,
    max_extra: int | None = None,
) -> Iterator[MonomialIdeal]:
    """Strongly stable ideals over e_1..e_n with at most two generator degrees.

    Single-degree ideals come first (each strongly stable set is its own
    minimal generating set), then for each degree pair d1 < d2 every strongly
    stable degree-d1 set is extended by every strongly stable degree-d2
    superset of its multiples, the new monomials becoming the d2 generators.
    Distinct choices give distinct minimal generating sets, so the stream is
    duplicate-free. ``max_extra`` caps the number of degree-d2 generators.
    """
    if max_degrees < 1:
        return
    for d in range(1, n + 1):
        for mset in enumerate_strongly_stable_sets(n, d):
            yield MonomialIdeal(n, mset)
    if max_degrees < 2:
        return
    for d1, d2 in combinations(range(1, n + 1), 2):
        for mset in enumerate_strongly_stable_sets(n, d1):
            scan = list(scan_component([u.mask for u in mset], n, d2))
            members = {m for m, inside in scan if inside}
            outside = [m for m, inside in scan if not inside]
            walk = _down_sets(outside, borel_move_masks, members, max_extra)
            next(walk)  # adding nothing leaves d2 without generators
            for extra in walk:
                yield MonomialIdeal(n, [*mset, *extra])


def enumerate_proper_ideals(n: int) -> Iterator[MonomialIdeal]:
    """Every proper nonzero monomial ideal over e_1..e_n, once each, in a fixed order."""
    elems = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
    for outside in _down_sets(elems, _facet_masks, {0}, None):
        if len(outside) < len(elems):
            skip = {u.mask for u in outside}
            yield minimalize(n, [Monomial(m) for m in elems if m not in skip])


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
