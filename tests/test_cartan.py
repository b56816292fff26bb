"""Homology oracle: chain spaces, the boundary map, exact ranks, Betti tables."""

from collections import Counter
from itertools import product
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excolex import cartan
from excolex.betti import stable_betti_table, tables_agree
from excolex.cartan import _boundary_squared_failures, cartan_betti, exact_rank, rank_mod_p
from excolex.enumeration import enumerate_proper_ideals
from excolex.errors import ContractViolation, OracleTooLarge
from excolex.ideals import minimalize, scan_component
from excolex.monomials import Monomial
from excolex.verify import DD_I_MAX

M = Monomial.from_text


def ideal(n, *texts):
    return minimalize(n, [M(t) for t in texts])


def survivors(I, d):
    return [m for m, inside in scan_component(I.masks, I.n, d) if not inside]


def chain_space(I, i, j):
    """The oracle's ordered basis at homological degree i, internal degree j:
    pairs (mask of a monomial outside the ideal of degree j - i, multi-index
    summing to i), by revlex on the monomial, then lex on the multi-index."""
    d = j - i
    if not 0 <= d <= I.n:
        return []
    return [(s, a) for s in survivors(I, d) for a in cartan._multi_indices(i, I.n)[0]]


def cell_boundaries(I, i, j):
    """The kernel's rows on the cell (i, j), each mapped back through the positions
    of chain_space(I, i - 1, j) to (sign, mask, powers) terms, in row order."""
    d = j - i
    rows = cartan._boundary_matrix(survivors(I, d), survivors(I, d + 1), i, I.n)
    below = chain_space(I, i - 1, j)
    return [[(sign, *below[c]) for c, sign in row.items()] for row in rows]


def boundary(mask, powers, I):
    """The oracle's boundary of the basis element (mask, powers), as (sign, mask, powers)."""
    i = sum(powers)
    j = i + mask.bit_count()
    return cell_boundaries(I, i, j)[chain_space(I, i, j).index((mask, powers))]


# --- chain spaces ----------------------------------------------------------------

def test_chain_space_degree_one_survivors():
    I = ideal(2, "e1e2")
    assert chain_space(I, 0, 1) == [(M("e1").mask, (0, 0)), (M("e2").mask, (0, 0))]


def test_chain_space_unit_with_powers():
    I = ideal(2, "e1e2")
    assert chain_space(I, 1, 1) == [(0, (0, 1)), (0, (1, 0))]


def test_chain_space_origin():
    assert chain_space(ideal(4, "e1e2e3"), 0, 0) == [(0, (0, 0, 0, 0))]


def test_chain_space_excludes_ideal_monomials():
    I = ideal(3, "e1e2")
    monos = {Monomial(mask).text() for mask, _ in chain_space(I, 0, 2)}
    assert monos == {"e1e3", "e2e3"}


def test_chain_space_empty_outside_range():
    I = ideal(3, "e1")
    assert chain_space(I, 0, 5) == []  # monomial degree above the ambient
    assert chain_space(I, 2, 1) == []  # monomial degree below zero


# --- the boundary map --------------------------------------------------------------

@st.composite
def small_ideals(draw, n_max=6):
    n = draw(st.integers(1, n_max))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=5))
    return minimalize(n, [Monomial(m) for m in masks])


def test_boundary_of_unit_power():
    I = ideal(2, "e2")
    assert boundary(0, (1, 0), I) == [(1, M("e1").mask, (0, 0))]


def test_boundary_term_killed_by_ideal():
    I = ideal(2, "e1e2")
    # e1*e2 lands in the ideal: no terms survive
    assert boundary(M("e1").mask, (0, 1), I) == []


def test_boundary_sign_alternation():
    I = ideal(4, "e1e2e3e4")
    terms = boundary(M("e2").mask, (1, 0, 1, 0), I)
    assert [(s, Monomial(m).text()) for s, m, _ in terms] == [
        (1, "e1e2"),   # inserting below index 2: no smaller indices present
        (-1, "e2e3"),  # one index below 3: sign flips
    ]


def _dd_is_zero(I, i_lim=4):
    return not list(_boundary_squared_failures(I, i_lim))


@pytest.mark.parametrize(
    "I",
    [
        ideal(2, "e1e2"),
        ideal(3, "e1e2", "e1e3"),
        ideal(3, "e2e3"),
        ideal(4, "e1e2", "e3e4"),
    ],
)
def test_boundary_squared_zero_small(I):
    assert _dd_is_zero(I)


@given(
    st.sets(
        st.sets(st.integers(1, 5), min_size=2, max_size=3).map(Monomial.from_indices),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=30, deadline=None)
def test_boundary_squared_zero_random(gens):
    I = minimalize(5, gens)
    assert _dd_is_zero(I, i_lim=3)


def test_boundary_preserves_internal_degree():
    I = ideal(4, "e1e2e3")
    elements = chain_space(I, 3, 5)
    terms = cell_boundaries(I, 3, 5)
    assert len(terms) == len(elements) and any(terms)
    for (mask, powers), row in zip(elements, terms):
        for _, grown, lowered in row:
            assert grown.bit_count() + sum(lowered) == mask.bit_count() + sum(powers)
            assert sum(lowered) == sum(powers) - 1


def reference_differential(mask, powers, I):
    """The boundary term by term, as the module docstring states it."""
    mono = Monomial(mask)
    out = []
    for k, a_k in enumerate(powers, start=1):
        grown = Monomial(mask | 1 << (k - 1))
        if a_k == 0 or mono.contains(k) or I.contains(grown):
            continue
        lowered = powers[: k - 1] + (a_k - 1,) + powers[k:]
        sign = (-1) ** (mask & ((1 << (k - 1)) - 1)).bit_count()  # indices below k
        out.append((sign, grown.mask, lowered))
    return out


@given(small_ideals(n_max=5), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_boundary_matches_the_literal_reference(I, i):
    for j in range(i, I.n + i + 1):
        elements = chain_space(I, i, j)
        terms = cell_boundaries(I, i, j)
        assert len(terms) == len(elements)  # one row per basis element, in basis order
        for (mask, powers), row in zip(elements, terms):
            assert row == reference_differential(mask, powers, I)


@pytest.mark.parametrize(
    "I, element",
    [(ideal(3, "e1e2e3"), ["1", [0, 1, 1]]), (ideal(4, "e1e2", "e3e4"), ["1", [0, 1, 0, 1]])],
    ids=["I0", "I1"],
)
def test_boundary_squared_check_catches_a_flipped_sign(I, element):
    assert list(_boundary_squared_failures(I, 3)) == []
    real = cartan._boundary_matrix

    def one_sign_flipped(sources, targets, i, n):
        rows = real(sources, targets, i, n)
        for row in rows:  # the first entry of every nonempty row changes sign
            for c in row:
                row[c] = -row[c]
                break
        return rows

    with patch.object(cartan, "_boundary_matrix", one_sign_flipped):
        witnesses = list(_boundary_squared_failures(I, 3))
    assert [(w["case"], w["element"]) for w in witnesses] == [("boundary squared", element)]


def test_boundary_squared_walk_composes_every_basis_element():
    # 88651 = the chain space elements at levels 2..DD_I_MAX over the 189 proper
    # ideals with n <= 4: the walk iterates each one's row once, to compose it
    real = cartan._boundary_matrix
    composed = Counter()

    class Rows(list):  # counts, by level, the rows the walk iterates
        def __iter__(self):
            for row in list.__iter__(self):
                composed[self.level] += 1
                yield row

    def counting(sources, targets, i, n):
        rows = Rows(real(sources, targets, i, n))
        rows.level = i
        return rows

    proper = [I for n in range(1, 5) for I in enumerate_proper_ideals(n)]
    with patch.object(cartan, "_boundary_matrix", counting):
        assert not [w for I in proper for w in _boundary_squared_failures(I, DD_I_MAX)]
    elements = Counter()
    for I in proper:
        for i in range(2, DD_I_MAX + 1):
            elements[i] += sum(len(chain_space(I, i, j)) for j in range(I.n + i + 1))
    assert len(proper) == 189 and DD_I_MAX == 4
    assert composed == elements and sum(composed.values()) == 88651


def reference_boundary_squared(I, i_max):
    """The d∘d check with no skips: every row of every level-i cell composes with
    the level-(i - 1) rows, as ``_boundary_squared_failures`` did before it
    skipped the rows that compose to zero."""
    n, masks = I.n, [survivors(I, d) for d in range(I.n + 1)] + [[]]
    rows = {(i, d): cartan._boundary_matrix(masks[d], masks[d + 1], i, n)
            for i in range(1, i_max + 1) for d in range(n + 1)}
    for i in range(2, i_max + 1):
        powers = cartan._multi_indices(i, n)[0]
        for d in range(n + 1):
            for x, row in enumerate(rows[i, d]):
                acc = Counter()
                for c, s1 in row.items():
                    for c2, s2 in rows[i - 1, d + 1][c].items():
                        acc[c2] += s1 * s2
                if any(acc.values()):
                    mask, a = masks[d][x // len(powers)], powers[x % len(powers)]
                    element = [Monomial(mask).text(), list(a)]
                    return [{"case": "boundary squared", "ideal": I.as_dict(), "element": element}]
    return []


def test_boundary_squared_skips_agree_with_the_full_composition():
    # over every proper ideal with n <= 3, on the real matrices and with one
    # entry of one nonempty row flipped, for each such row of each cell in turn
    # (the last nonempty row of a cell included). Below n = 4 every survivor
    # has degree 2 or less, so (e1e2e3e4) adds cells d >= 1 whose next
    # boundary has columns.
    real, i_max = cartan._boundary_matrix, DD_I_MAX
    mutants = caught = 0
    universe = [I for n in range(1, 4) for I in enumerate_proper_ideals(n)]
    for I in universe + [ideal(4, "e1e2e3e4")]:
        assert list(_boundary_squared_failures(I, i_max)) == []
        assert reference_boundary_squared(I, i_max) == []
        cells = {(i, d): real(survivors(I, d), survivors(I, d + 1), i, I.n)
                 for i in range(1, i_max + 1) for d in range(I.n + 1)}
        for (level, degree), rows in cells.items():
            for flipped in [x for x, row in enumerate(rows) if row]:
                applied = []

                def mutant(sources, targets, i, n):
                    rows = real(sources, targets, i, n)
                    if i == level and sources and sources[0].bit_count() == degree:
                        row = rows[flipped]
                        first = next(iter(row))
                        row[first] = -row[first]
                        applied.append(i)
                    return rows

                with patch.object(cartan, "_boundary_matrix", mutant):
                    witnesses = list(_boundary_squared_failures(I, i_max))
                    assert applied == [level]  # the check built the cell once
                    assert witnesses == reference_boundary_squared(I, i_max)
                mutants += 1
                caught += bool(witnesses)
    assert (mutants, caught) == (1745, 817)


def test_lowering_tables_match_their_definition():
    for n in range(1, 6):
        for i in range(5):
            powers, lowered = cartan._multi_indices(i, n)
            assert list(powers) == sorted(a for a in product(range(i + 1), repeat=n) if sum(a) == i)
            level_below = sorted(a for a in product(range(i), repeat=n) if sum(a) == i - 1)
            assert len(lowered) == n
            for k in range(n):
                unit = tuple(int(v == k) for v in range(n))
                expected = [
                    (x, level_below.index(tuple(p - u for p, u in zip(a, unit))))
                    for x, a in enumerate(powers) if a[k] > 0
                ]
                assert list(lowered[k]) == expected


def test_boundary_rows_are_distinct_dicts():
    # callers mutate rows in place (the sign-flip tests), so no two rows of a
    # cell may share a dict, not even the empty ones
    I = ideal(4, "e1e2", "e3e4")
    for i in range(1, 4):
        for d in range(I.n + 1):
            rows = cartan._boundary_matrix(survivors(I, d), survivors(I, d + 1), i, I.n)
            assert len({id(row) for row in rows}) == len(rows)


# --- ranks -----------------------------------------------------------------------

def test_exact_rank_known_matrices():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 2], [3, 4]]) == 2
    assert exact_rank([[2, 0, 1], [0, 3, 1], [2, 3, 2]]) == 2  # row3 = row1 + row2


def test_exact_rank_handles_big_integers():
    # entries far beyond float precision stay exact
    assert exact_rank([[10**40, 1], [1, 1]]) == 2
    assert exact_rank([[10**40, 1], [10**40, 1]]) == 1


def test_rank_mod_p_drops_multiples_of_p():
    rows = [[32003, 1], [0, 2]]
    assert rank_mod_p(rows, 32003) == 1
    assert exact_rank(rows) == 2


def matrices(bound, rows, cols):
    """Integer matrices with entries in [-bound, bound] and the given shape ranges."""
    return st.integers(*cols).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
            min_size=rows[0],
            max_size=rows[1],
        )
    )


@given(st.one_of(matrices(3, (3, 5), (4, 4)), matrices(50, (1, 6), (1, 6))))
@settings(max_examples=150)
def test_exact_rank_against_fractions(rows):
    from fractions import Fraction

    def fraction_rank(mat):
        mat = [[Fraction(v) for v in row] for row in mat]
        rank = 0
        for col in range(len(mat[0])):
            piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            for r in range(rank + 1, len(mat)):
                if mat[r][col]:
                    f = mat[r][col] / mat[rank][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
            rank += 1
        return rank

    assert exact_rank(rows) == fraction_rank(rows)


@given(
    st.one_of(matrices(3, (1, 6), (1, 6)), matrices(10**6, (1, 6), (1, 6))),
    st.sampled_from([2, 3, 7, 32003]),
)
@settings(max_examples=150)
def test_rank_mod_p_against_dense_reference(rows, p):
    def dense_rank(mat):
        mat = [[v % p for v in row] for row in mat]
        rank = 0
        for col in range(len(mat[0])):
            piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            inv = pow(mat[rank][col], -1, p)
            for r in range(rank + 1, len(mat)):
                f = mat[r][col] * inv % p
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
            rank += 1
        return rank

    assert rank_mod_p(rows, p) == dense_rank(rows)
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    assert rank_mod_p(sparse, p) == dense_rank(rows)


@pytest.mark.parametrize("p", [4, 1, 0, -7, 32001, 2**31, 2**31 + 11, True, 3.0])
def test_field_size_must_be_a_small_prime(p):
    with pytest.raises(ContractViolation):
        rank_mod_p([[2, 1], [1, 2]], p)
    # refused before any work, even where the guard would refuse the cells
    with pytest.raises(ContractViolation):
        cartan_betti(ideal(6, "e1e2e3e4e5e6"), 6, prime=p, max_cell_dim=10)


def test_largest_allowed_field():
    assert rank_mod_p([[2, 1], [1, 2]], 2**31 - 1) == 2
    assert rank_mod_p([[2, 1], [1, 2]], 3) == 1
    with pytest.raises(ContractViolation):  # equal to an accepted prime, not an int
        rank_mod_p([[2, 1], [1, 2]], 3.0)


# --- Betti tables ------------------------------------------------------------------

def test_quotient_of_single_variable_ideal():
    tables = cartan_betti(ideal(1, "e1"), 6)
    assert [tables.quotient.total(i) for i in range(7)] == [1] * 7
    assert [tables.ideal.total(i) for i in range(6)] == [1] * 6


def test_principal_pair_ideal_totals():
    tables = cartan_betti(ideal(3, "e1e2"), 6)
    assert [tables.ideal.total(i) for i in range(6)] == [1, 2, 3, 4, 5, 6]
    assert tables.quotient.entry(0, 0) == 1


def test_quotient_row_zero_is_one_dimensional():
    for I in (ideal(3, "e1e2"), ideal(4, "e2e3", "e1e4"), ideal(2, "e1")):
        tables = cartan_betti(I, 2)
        assert tables.quotient.entry(0, 0) == 1
        assert tables.quotient.total(0) == 1


def test_first_quotient_row_counts_generators():
    I = ideal(4, "e1e3", "e2e3e4")
    tables = cartan_betti(I, 2)
    assert tables.quotient.entry(1, 2) == 1
    assert tables.quotient.entry(1, 3) == 1
    assert tables.quotient.total(1) == 2


def test_strands_match_direct_assembly():
    for I in (
        ideal(3, "e1e2", "e1e3"),
        ideal(4, "e2e3", "e1e4"),
        ideal(4, "e1e2e3", "e1e2e4"),
        ideal(5, "e1e2", "e1e3", "e2e3", "e1e4e5"),
    ):
        a = cartan_betti(I, 4, method="strands")
        b = cartan_betti(I, 4, method="direct")
        assert a.quotient.entries == b.quotient.entries
        assert a.ideal.entries == b.ideal.entries


def test_oracle_matches_closed_form_shifted():
    for I in (
        ideal(5, "e1e2", "e1e3", "e1e4", "e2e3e4"),
        ideal(5, "e1e2", "e1e3", "e2e3", "e1e4e5"),
        ideal(4, "e1e2e3"),
    ):
        tables = cartan_betti(I, 5)
        assert tables_agree(tables.ideal, stable_betti_table(I, 4), 4)


def test_non_stable_ideal_gets_a_table_anyway():
    I = ideal(4, "e2e3")  # not strongly stable: no closed form
    tables = cartan_betti(I, 3)
    assert tables.quotient.entry(1, 2) == 1
    assert tables.ideal.entry(0, 2) == 1


def test_prime_field_ranks_agree_with_rationals():
    for I in (ideal(4, "e1e2", "e2e3e4"), ideal(3, "e2e3")):
        exact = cartan_betti(I, 4)
        modular = cartan_betti(I, 4, prime=32003)
        assert exact.quotient.entries == modular.quotient.entries


def test_oracle_cell_guard():
    # each method refuses by its own measure: the strands' boundaries over the
    # first k variables hold k 3^(k-1) entries (every support is in the
    # lattice); the direct chain space at (i=1, j=4) has 20 survivors of
    # degree 3 times 6 power blocks
    for method, gens in (("strands", ["e1", "e2", "e3", "e4", "e5", "e6"]),
                         ("direct", ["e1e2e3e4e5e6"])):
        with pytest.raises(OracleTooLarge):
            cartan_betti(ideal(6, *gens), 6, method=method, max_cell_dim=100)


@pytest.mark.parametrize(
    "n, i_max, cell, top_degree",
    [(8, 5, ("(i=6, j=9)", 68640), 8), (40, 4, ("(i=0, j=4)", 89355), 4)],
    ids=["n8", "n40"],
)
def test_guard_stops_at_the_first_cell_over_the_cap(n, i_max, cell, top_degree):
    real = cartan.scan_component

    def spy(gen_masks, n, t):
        # the cells run i ascending, then j: degree t is first reached at (0, t)
        assert t <= top_degree, f"degree {t} counted past the refused cell"
        return real(gen_masks, n, t)

    with patch.object(cartan, "scan_component", spy):
        with pytest.raises(OracleTooLarge) as refusal:
            cartan_betti(ideal(n, "e1e2", "e1e3", "e2e3"), i_max, method="direct")
    where, dim = cell
    assert where in refusal.value.measure and refusal.value.size == dim


def test_direct_oracle_scans_each_degree_once():
    # the guard's survivor lists are the ones the direct method eliminates over
    real, scanned = cartan.scan_component, []

    def spy(gen_masks, n, t):
        scanned.append(t)
        return real(gen_masks, n, t)

    I = ideal(5, "e1e2", "e1e3", "e2e3", "e1e4e5")
    with patch.object(cartan, "scan_component", spy):
        tables = cartan_betti(I, 3, method="direct")
    assert scanned == list(range(I.n + 1))
    assert tables.ideal == stable_betti_table(I, 2)


def test_guard_sizes_the_strands_not_the_direct_chain_spaces():
    # the direct path's chain space at (i=6, j=9) has dimension 68640, but
    # the strands' boundaries hold 24 entries over a 5-support lattice
    I = ideal(8, "e1e2", "e1e3", "e2e3")
    assert cartan_betti(I, 6).ideal == stable_betti_table(I, 5)


def test_strand_guard_refuses_before_any_strand():
    # the lattice of n variables is every support: n 3^(n-1) boundary entries
    I = ideal(10, *[f"e{k}" for k in range(1, 11)])

    def spy(*args):
        raise AssertionError("a strand ran past the guard")

    with patch.object(cartan, "_strand_homology", spy):
        with pytest.raises(OracleTooLarge) as refusal:
            cartan_betti(I, 2)
    assert refusal.value.size > refusal.value.cap == cartan.DEFAULT_CELL_CAP


def test_strand_guard_refuses_before_the_non_face_scan():
    # four disjoint 10-variable generators: the lattice would hold 16 supports, and
    # its top covers all 40 variables, so a scan before the guard would visit
    # 2^40 subsets
    blocks = [range(1 + 10 * b, 11 + 10 * b) for b in range(4)]
    I = minimalize(40, [Monomial.from_indices(block) for block in blocks])
    with pytest.raises(OracleTooLarge) as refusal:
        cartan_betti(I, 2)
    assert refusal.value.size > refusal.value.cap == cartan.DEFAULT_CELL_CAP


def test_oracle_requires_room_for_the_shift():
    with pytest.raises(ContractViolation):
        cartan_betti(ideal(2, "e1e2"), 0)


# --- the LCM lattice ---------------------------------------------------------------

def unpruned_quotient(I, i_max, prime):
    """The quotient table summed over all 2^n strands, cones included."""
    delta = non_face_complex([g.mask for g in I.gens], (1 << I.n) - 1)  # cones reach past top
    entries = Counter()
    for support in range(1 << I.n):
        s = support.bit_count()
        for d, h in cartan._strand_homology(*delta, support, prime).items():
            for j in range(s, I.n + i_max + 1):
                weight = comb(j - 1, s - 1) if s else int(j == 0)
                if 0 <= j - d <= i_max:
                    entries[(j - d, j)] += weight * h
    return {k: v for k, v in entries.items() if v}


@given(small_ideals(), st.integers(1, 4), st.sampled_from([None, 3]))
@settings(max_examples=150, deadline=None)
def test_pruned_strands_match_all_supports(I, i_max, prime):
    tables = cartan_betti(I, i_max, prime=prime)
    assert tables.quotient.entries == unpruned_quotient(I, i_max, prime)


@given(small_ideals(n_max=5), st.integers(1, 4), st.sampled_from([None, 3]))
@settings(max_examples=60, deadline=None)
def test_direct_assembly_matches_strands_at_random(I, i_max, prime):
    direct = cartan_betti(I, i_max, method="direct", prime=prime)
    assert direct == cartan_betti(I, i_max, prime=prime)


@given(small_ideals())
@settings(max_examples=150, deadline=None)
def test_strands_visit_exactly_the_lcm_lattice(I):
    visited = []
    real = cartan._strand_homology

    def spy(faces, outside, support, p):
        visited.append(support)
        return real(faces, outside, support, p)

    with patch.object(cartan, "_strand_homology", spy):
        cartan_betti(I, 2)
    gen_masks = [g.mask for g in I.gens]

    def union_inside(support):
        out = 0
        for g in gen_masks:
            if g & support == g:
                out |= g
        return out

    # ascending, each support once, and exactly the unions of generators
    assert visited == [S for S in range(1 << I.n) if union_inside(S) == S]


def test_strands_scale_with_the_lattice_not_with_2_to_the_n():
    I = ideal(20, "e1e2", "e1e3", "e2e3")  # 2^20 supports, 5 of them in the lattice
    tables = cartan_betti(I, 6, max_cell_dim=10**12)
    assert tables.ideal == stable_betti_table(I, 5)


# --- clearing in the strands -------------------------------------------------------

RP2 = ideal(6, "e1e2e3", "e1e2e5", "e1e3e4", "e1e4e6", "e1e5e6",
            "e2e3e6", "e2e4e5", "e2e4e6", "e3e4e5", "e3e5e6")  # non-faces of the 6-vertex RP^2


def lcm_lattice(gen_masks):
    lattice = {0}
    for g in gen_masks:
        lattice |= {s | g for s in lattice}
    return sorted(lattice)


def strand_levels(gen_masks, support):
    """The subsets of the support that contain no generator, ascending, by size."""
    levels = [[] for _ in range(support.bit_count() + 1)]
    for sub in range(support + 1):
        if sub & support == sub and not any(g & sub == g for g in gen_masks):
            levels[sub.bit_count()].append(sub)
    return levels


def non_face_complex(gen_masks, top):
    """Delta over top, as the strands take it: its faces by size, and their set."""
    faces = strand_levels(gen_masks, top)
    return faces, {f for level in faces for f in level}


def reference_strand_homology(gen_masks, support, prime):
    """The strand's homology with every row of every map ranked by the public kernels."""
    levels = strand_levels(gen_masks, support)
    ranks = []
    for src, dst in zip(levels, levels[1:]):
        rows = []  # dense, over the targets: column sigma + e_k holds the insertion sign
        for sigma in src:
            row = [0] * len(dst)
            for k in range(support.bit_length()):
                bit = 1 << k
                if support & bit and not sigma & bit and sigma | bit in dst:
                    row[dst.index(sigma | bit)] = (-1) ** (sigma & (bit - 1)).bit_count()
            rows.append(row)
        ranks.append(exact_rank(rows) if prime is None else rank_mod_p(rows, prime))
    bordering = [0, *ranks, 0]
    homology = {k: len(level) - bordering[k] - bordering[k + 1] for k, level in enumerate(levels)}
    return {k: h for k, h in homology.items() if h}


@given(small_ideals(), st.sampled_from([None, 2, 3]))
@settings(max_examples=150, deadline=None)
def test_cleared_strands_match_full_elimination(I, prime):
    lattice = lcm_lattice(I.masks)
    delta = non_face_complex(I.masks, lattice[-1])
    for support in lattice:
        expected = reference_strand_homology(I.masks, support, prime)
        assert cartan._strand_homology(*delta, support, prime) == expected, bin(support)


@given(small_ideals(), st.sampled_from([None, 2, 3]))
@settings(max_examples=100, deadline=None)
def test_each_map_skips_the_rows_the_previous_pivots_clear(I, prime):
    real, calls = cartan._pivots, []

    def spy(rows, p):
        pivots = real(rows, p)
        calls.append((len(rows), len(pivots)))
        return pivots

    lattice = lcm_lattice(I.masks)
    delta = non_face_complex(I.masks, lattice[-1])
    for support in lattice:
        calls.clear()
        with patch.object(cartan, "_pivots", spy):
            cartan._strand_homology(*delta, support, prime)
        dims = [len(level) for level in strand_levels(I.masks, support) if level]
        # one call per map between nonempty levels; map k gets the rows of
        # level k less the rank of map k - 1
        assert len(calls) == len(dims) - 1
        assert [n_rows for n_rows, _ in calls] == [
            dim - (calls[k - 1][1] if k else 0) for k, dim in enumerate(dims[:-1])
        ]


def test_direct_method_eliminates_every_row():
    real_matrix, real_pivots, built, eliminated = cartan._boundary_matrix, cartan._pivots, [], []

    def matrix_spy(*args):
        rows = real_matrix(*args)
        built.append(len(rows))
        return rows

    def pivots_spy(rows, p):
        eliminated.append(len(rows))
        return real_pivots(rows, p)

    with patch.object(cartan, "_boundary_matrix", matrix_spy), \
            patch.object(cartan, "_pivots", pivots_spy):
        cartan_betti(ideal(5, "e1e2", "e2e3e4", "e1e5"), 3, method="direct")
    assert built and eliminated == built


RP2_QUOTIENT = {(0, 0): 1, (1, 3): 10, (2, 4): 45, (3, 5): 126, (4, 6): 280, (5, 7): 540}
RP2_QUOTIENT_GF2 = {
    **RP2_QUOTIENT, (3, 6): 1, (4, 6): 281, (4, 7): 6, (5, 7): 546, (5, 8): 21,
}


@pytest.mark.parametrize(
    "prime, expected", [(None, RP2_QUOTIENT), (3, RP2_QUOTIENT), (2, RP2_QUOTIENT_GF2)],
    ids=["Q", "GF3", "GF2"],
)
def test_rp2_torsion_shows_over_gf2_only(prime, expected):
    # the integral homology of RP^2 has 2-torsion: over GF(2) the quotient of
    # its Stanley-Reisner ideal gains cells that Q and GF(3) lack
    assert cartan_betti(RP2, 5, prime=prime).quotient.entries == expected
    direct = cartan_betti(RP2, 4, method="direct", prime=prime)
    assert direct == cartan_betti(RP2, 4, prime=prime)
