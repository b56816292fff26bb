"""Homology oracle for graded Betti numbers of arbitrary monomial ideals.

The residue field is resolved by divided powers; tensoring with the quotient
by the ideal gives chain spaces spanned by pairs (surviving monomial, power
multi-index). The differential sends a unit of divided power x_k to a left
multiplication by e_k, with sign (-1)^(number of indices below k); a term dies
when k already divides the monomial or the product lands in the ideal.

Two ways to take ranks of the differentials, both by one sparse elimination
that never divides: exact over the rationals by default, mod p for an opt-in
prime field.

* "strands" (the default): the chain spaces split by multidegree, and each
  strand is isomorphic to Delta_S, where Delta is the complex of subsets that
  contain no generator and S the multidegree's support. Unless S is the union
  of the generators inside it, a vertex of S lies in none of them, is a cone
  point (the empty face included) and makes the strand acyclic
  (Gasharov-Peeva-Welker 1999; in E, Aramova-Avramov-Herzog, Trans. AMS 2000).
  So Delta is scanned once, over the generators' union, and each union of
  generators (the LCM lattice) restricts it for one tiny elimination that
  covers every graded piece. A strand's maps are eliminated from the lowest
  level up, with clearing (Chen-Kerber, "Persistent homology computation with
  a twist", 2011; Bauer-Kerber-Reininghaus, "Clear and compress", 2014): when
  a reduced row r of one map has least column t, the next map never builds row
  t. r is a coboundary, so 0 = d(r) = r_t d(t) + sum over t' > t of r_t'
  d(t'), and row t lies in the span of the rows after it, over Q and GF(p)
  alike: no rank moves.
* "direct": build one sparse +/-1 boundary matrix per (homological, internal)
  degree cell at once, from the surviving masks of its two monomial degrees
  and, per variable k, the table of lowerings a -> a - e_k between the power
  multi-indices of its two levels, and eliminate it whole, every row. Rows
  start empty and only the nonzero terms are written. Slower, kept as the
  cross-check path; the boundary-of-boundary check composes the same
  matrices, skipping the rows that compose to zero: empty ones, and those of
  a cell whose next boundary has no columns.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd, isqrt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .betti import MAX_TABLE_CELLS, SUBJECT_IDEAL, SUBJECT_QUOTIENT, BettiTable
from .errors import ContractViolation, OracleTooLarge, TableTooLarge, clipped_repr
from .ideals import MonomialIdeal, scan_component
from .monomials import Monomial

DEFAULT_PRIME = 32003
# The default ``max_cell_dim``: it bounds the strands' boundary entries,
# |S| 2^(|S|-1) summed over the LCM lattice's supports S, or, for the direct
# method, each chain space's dimension.
DEFAULT_CELL_CAP = 50_000


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Nonnegative integer tuples with the given sum, in ascending lex order."""
    if parts == 1:
        return [(total,)]
    return [(a,) + rest for a in range(total + 1) for rest in _compositions(total - a, parts - 1)]


@lru_cache(maxsize=16)  # few (level, n) pairs recur; the direct guard bounds each table
def _multi_indices(i: int, n: int) -> tuple[tuple, tuple]:
    """The level-i multi-indices over n variables in lex order, and for each
    variable k its lowerings: the pairs (position of a, position of a - e_k
    among the level-(i - 1) ones) for every a with a_k > 0, in order of a."""
    powers = tuple(_compositions(i, n))
    below = {a: y for y, a in enumerate(_compositions(i - 1, n))} if i else {}
    return powers, tuple(
        tuple((x, below[a[:k] + (a[k] - 1,) + a[k + 1:]]) for x, a in enumerate(powers) if a[k])
        for k in range(n)
    )


def _boundary_matrix(sources: Sequence[int], targets: Sequence[int], i: int, n: int) -> list[dict]:
    """The boundary from level i to i - 1 on one degree cell, as {column: sign}
    rows; ``sources`` and ``targets`` are the ascending surviving masks of
    degrees d and d + 1, and a basis lists (survivor, multi-index) pairs by
    survivor, then by the multi-index in lex order. A term e_k s that is no
    survivor (k divides s, or the product is in the ideal) vanishes, so each
    row starts empty and only the variables k with s | e_k a target write into
    it, in ascending k: a row lists its columns by k."""
    powers, lowered = _multi_indices(i, n)
    size, width = len(powers), comb(n + i - 2, i - 1)  # width: the level-(i - 1) count
    block = {t: c * width for c, t in enumerate(targets)}  # a target's first column
    rows: list[dict] = [{} for _ in range(len(sources) * size)]  # distinct dicts
    for x, s in enumerate(sources):
        offset = x * size
        for k in range(n):
            if (b := block.get(s | 1 << k)) is not None:  # else k divides s, or e_k s is in I
                sign = -1 if (s & ((1 << k) - 1)).bit_count() & 1 else 1
                for a, y in lowered[k]:
                    rows[offset + a][b + y] = sign
    return rows


def _boundary_squared_failures(I: MonomialIdeal, i_max: int) -> Iterator[dict]:
    """The first element of homological degree 2..i_max with d(d(elem)) != 0, if any,
    composing the boundary matrices on int keys. Each element's row is read
    once; a row composes to zero, and is skipped, when it is empty or when the
    next boundary has no columns (no survivor two degrees up)."""
    n, survivors = I.n, _guard_dimensions(I, i_max, DEFAULT_CELL_CAP) + [[], []]  # none above n
    rows = {(i, d): _boundary_matrix(survivors[d], survivors[d + 1], i, n)  # each cell once
            for i in range(1, i_max + 1) for d in range(n + 1)}
    for i in range(2, i_max + 1):
        powers = _multi_indices(i, n)[0]
        for d in range(n + 1):  # internal degree j = i + d, ascending
            right = rows[i - 1, d + 1] if survivors[d + 2] else None
            for x, row in enumerate(rows[i, d]):
                if not row or right is None:
                    continue
                acc: dict[int, int] = {}
                for c, s1 in row.items():
                    for c2, s2 in right[c].items():
                        acc[c2] = acc.get(c2, 0) + s1 * s2
                if any(acc.values()):
                    mask, a = survivors[d][x // len(powers)], powers[x % len(powers)]
                    element = [Monomial(mask).text(), list(a)]
                    yield {"case": "boundary squared", "ideal": I.as_dict(), "element": element}
                    return


@lru_cache(maxsize=None, typed=True)  # a rejected p raises, so is never cached
def _require_prime(p: int) -> None:
    """Reject a field size that is not a prime below 2**31 (trial division)."""
    small = type(p) is int and 2 <= p < 2**31  # bool and float are not field sizes
    if not (small and all(p % k for k in range(2, isqrt(p) + 1))):
        raise ContractViolation(f"field size must be a prime below 2**31, got {clipped_repr(p)}")


def _pivots(rows: Iterable[list[int] | dict[int, int]], p: int | None) -> dict[int, dict]:
    """The reduced rows, by leading column, of dense integer rows or {column:
    value} rows eliminated over GF(p), or over the rationals when p is None;
    their number is the rank.

    A row whose leading column already has a pivot q becomes a*r - b*q, or
    r - a*b*q when a = +/-1, where a and b are the leading entries of q and r:
    no inverse is taken, and one loop serves both fields. Over the rationals a
    row is divided by its content after each step with a pivot other than
    +/-1, to keep the integers small.
    """
    pivots: dict[int, dict[int, int]] = {}
    minus_one = -1 if p is None else p - 1
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        r = {c: w for c, v in items if (w := v if p is None else v % p)}
        while r:
            lead = min(r)
            q = pivots.get(lead)
            if q is None:
                pivots[lead] = r
                break
            a, b = q[lead], r[lead]
            if a == 1 or a == minus_one:  # a*a == 1: r - (a*b)*q spans the same
                b *= a
            else:  # a*v stays nonzero: a is a unit mod p, and nonzero over Z
                r = {c: a * v if p is None else a * v % p for c, v in r.items()}
            for c, v in q.items():  # only the columns of q change
                w = r.get(c, 0) - b * v
                if p is not None:
                    w %= p
                if w:
                    r[c] = w
                else:
                    del r[c]  # b*v is nonzero, so c was in r
            if p is None and a not in (1, -1):
                content = gcd(*r.values())  # 0 for an empty row, left as it is
                if content != 1:
                    r = {c: v // content for c, v in r.items()}
    return pivots


def exact_rank(rows: Iterable) -> int:
    """Rank over the rationals of an integer matrix."""
    return len(_pivots(rows, None))


def rank_mod_p(rows: Iterable, p: int = DEFAULT_PRIME) -> int:
    """Rank over the field with p elements; p must be a prime below 2**31."""
    _require_prime(p)
    return len(_pivots(rows, p))


class CartanTables(NamedTuple):
    quotient: BettiTable
    ideal: BettiTable


def _guard_dimensions(I: MonomialIdeal, i_max: int, cap: int) -> list[list[int]]:
    """The surviving masks of each degree 0..n, once every chain space is within ``cap``."""
    survivors: list[list[int]] = []  # by degree, scanned on first need: a refusal stops early
    for i in range(i_max + 2):
        blocks = comb(I.n + i - 1, i)
        for d in range(min(I.n, I.n + i_max - i) + 1):  # j = i + d up to n + i_max
            if d == len(survivors):  # row i = 0 reaches every degree, in order
                survivors.append([m for m, inside in scan_component(I.masks, I.n, d) if not inside])
            dim = len(survivors[d]) * blocks
            if dim > cap:
                raise OracleTooLarge(f"chain space dimension at (i={i}, j={i + d})", dim, cap)
    return survivors


def _homology(dims: list[int], ranks: list[int]) -> dict[int, int]:
    """Nonzero homology by level; ``ranks[k]`` is the rank between levels k and k+1."""
    bordering = [0, *ranks, 0]  # level k lies between maps k - 1 and k
    homology = {k: dim - bordering[k] - bordering[k + 1] for k, dim in enumerate(dims)}
    return {k: h for k, h in homology.items() if h}


def _strand_homology(faces: list, outside: set, support: int, p: int | None) -> dict[int, int]:
    """Homology dimensions, by subset size, of Delta_S for S = ``support``, over
    GF(p), or over the rationals when p is None. ``faces`` lists Delta by size,
    ascending, over a union that holds S, and ``outside`` holds the same masks.

    A row is keyed by its target's mask: within a level, mask order is column
    order. The boundary raises subset size by one with the insertion sign; the
    maps are eliminated from the lowest level up, and each one skips the rows
    that the previous map's pivots clear (see the module docstring).
    """
    levels = [[f for f in level if f & support == f] for level in faces]
    while not levels[-1]:  # Delta is closed downward: empty levels come last
        levels.pop()
    ranks, cleared = [], {}  # cleared: the previous map's pivots, by leading column
    for src in levels[:-1]:
        rows = []  # one row per source subset not cleared: its boundary
        for sigma in src:
            if sigma in cleared:
                continue
            row = {}
            free = support & ~sigma
            while free:
                bit = free & -free
                free ^= bit
                if sigma | bit in outside:
                    row[sigma | bit] = -1 if (sigma & (bit - 1)).bit_count() & 1 else 1
            rows.append(row)
        cleared = _pivots(rows, p)
        ranks.append(len(cleared))
    return _homology([len(level) for level in levels], ranks)


def _betti_by_strands(
    I: MonomialIdeal, i_max: int, p: int | None, cap: int
) -> dict[tuple[int, int], int]:
    entries: dict[tuple[int, int], int] = {}
    lattice = {0}  # the unions of generators: every other strand is a cone
    work = 0  # the strands' boundary entries, |S| 2^(|S|-1) summed over the lattice
    for g in I.masks:
        grown = {s | g for s in lattice} - lattice
        work += sum(s.bit_count() << (s.bit_count() - 1) for s in grown)
        if work > cap:  # refused before the lattice passes the cap
            raise OracleTooLarge("strand boundary entries over the LCM lattice", work, cap)
        lattice |= grown
    top = max(lattice)  # the generators' union: the guard counted 2^|top| <= 2 work
    faces: list[list[int]] = [[] for _ in range(top.bit_count() + 1)]
    sub = 0
    while True:  # Delta, the subsets of top that hold no generator, ascending
        if not any(g & sub == g for g in I.masks):
            faces[sub.bit_count()].append(sub)
        if sub == top:
            break
        sub = (sub - top) & top
    outside = {f for level in faces for f in level}
    for support in sorted(lattice):
        homology = _strand_homology(faces, outside, support, p)
        if not homology:
            continue
        s = support.bit_count()
        for j in range(s, I.n + i_max + 1):
            # multidegrees with this support and size j: only 0 over the empty one
            weight = comb(j - 1, s - 1) if s else int(j == 0)
            for d, h in homology.items():
                i = j - d
                if 0 <= i <= i_max:
                    key = (i, j)
                    entries[key] = entries.get(key, 0) + weight * h
    return {k: v for k, v in entries.items() if v}


def _betti_direct(I: MonomialIdeal, i_max: int, rank_fn, cap: int) -> dict[tuple[int, int], int]:
    n, entries = I.n, {}
    survivors = _guard_dimensions(I, i_max, cap)
    for j in range(n + i_max + 1):  # the differential keeps the internal degree
        # level i: the survivors of degree j - i times the level-i multi-indices
        cells = [survivors[j - i] if 0 <= j - i <= n else [] for i in range(i_max + 2)]
        ranks = [  # ranks[i]: the boundary from level i + 1 down to level i
            rank_fn(_boundary_matrix(src, dst, i + 1, n)) if src and dst else 0
            for i, (dst, src) in enumerate(zip(cells, cells[1:]))
        ]
        dims = [len(cell) * comb(n + i - 1, i) for i, cell in enumerate(cells)]
        # level i_max + 1 misses its outgoing rank; only lower levels are kept
        entries.update(((i, j), h) for i, h in _homology(dims, ranks).items() if i <= i_max)
    return entries


def cartan_betti(
    I: MonomialIdeal,
    i_max: int,
    method: str = "strands",
    prime: int | None = None,
    max_cell_dim: int = DEFAULT_CELL_CAP,
) -> CartanTables:
    """Graded Betti numbers of the quotient, plus the shifted table for the ideal.

    ``i_max`` is the cutoff for the quotient table; the ideal table is the
    standard shift (its row i is the quotient's row i+1), so it reaches
    i_max - 1. Exact rational ranks by default; pass ``prime`` (a prime below
    2**31) for the modular fast path. Its (i, j) cells are capped like the closed form's,
    and ``max_cell_dim`` caps the work of the method that runs (see ``OracleTooLarge``).
    """
    if i_max < 1:
        raise ContractViolation("need i_max >= 1 to report the shifted table")
    if (i_max + 1) * (I.n + i_max + 1) > MAX_TABLE_CELLS:
        table = f"oracle cutoff: quotient table over n = {I.n}"
        raise TableTooLarge(table, i_max, MAX_TABLE_CELLS)
    if prime is not None:
        _require_prime(prime)
    if method == "strands":
        q_entries = _betti_by_strands(I, i_max, prime, max_cell_dim)
    elif method == "direct":
        rank_fn = exact_rank if prime is None else (lambda rows: rank_mod_p(rows, prime))
        q_entries = _betti_direct(I, i_max, rank_fn, max_cell_dim)
    else:
        raise ContractViolation(f"unknown oracle method {method!r}")
    quotient = BettiTable(SUBJECT_QUOTIENT, i_max, q_entries)
    shifted = {
        (i - 1, j): v for (i, j), v in q_entries.items() if i >= 1
    }
    return CartanTables(quotient, BettiTable(SUBJECT_IDEAL, i_max - 1, shifted))
