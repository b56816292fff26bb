"""Closed-form Betti tables and total-Betti comparisons.

The frozen tables below were evaluated by hand from the per-generator formula
C(m+i-1, m-1) and are independently confirmed against the homology oracle in
test_cartan.py.
"""

import copy

import pytest

from excolex.betti import (
    MODE_EQUAL,
    MODE_INCOMPARABLE,
    MODE_LOWER,
    MODE_UPPER,
    MAX_TABLE_CELLS,
    BettiTable,
    compare_betti,
    low_index_counts,
    max_index_domination,
    stable_betti_table,
    tables_agree,
)
from excolex.errors import (
    ContractViolation,
    FormulaInapplicable,
    ProfileMismatch,
    TableTooLarge,
)
from excolex.cartan import cartan_betti
from excolex.colex import colex_ideal
from excolex.enumeration import enumerate_strongly_stable_ideals
from excolex.ideals import MonomialIdeal, graded_component, minimalize
from excolex.monomials import Monomial

M = Monomial.from_text


def ideal(n, *texts):
    return minimalize(n, [M(t) for t in texts])


def totals(table, upto):
    return [table.total(i) for i in range(upto + 1)]


def test_table_record_contract():
    table = BettiTable("ideal", 1, {(0, 2): 1, (1, 3): 0, (2, 4): 5})
    assert repr(table) == "BettiTable(subject='ideal', i_max=1, entries={(0, 2): 1})"
    assert table == BettiTable("ideal", 1, {(0, 2): 1})
    assert table != BettiTable("quotient", 1, {(0, 2): 1})
    assert table != ("ideal", 1, {(0, 2): 1})
    with pytest.raises(TypeError):
        hash(table)
    with pytest.raises(AttributeError):
        table.i_max = 2
    assert copy.deepcopy(table) == table


def test_verdict_record_contract():
    I = ideal(5, "e1e2", "e1e3", "e1e4", "e2e3e4")
    J = ideal(5, "e1e2", "e1e3", "e2e3", "e1e4e5")
    verdict = compare_betti(I, J, 4)
    assert verdict.as_dict() == {
        "mode": "UpperBoundAllChecked",
        "strict_indices": [2, 3, 4],
        "equal_indices": [0, 1],
        "i_max": 4,
        "domination": False,
    }
    assert list(verdict.as_dict()) == [
        "mode", "strict_indices", "equal_indices", "i_max", "domination",
    ]


def test_principal_ideal_growth():
    table = stable_betti_table(ideal(3, "e1e2"), 6)
    assert totals(table, 6) == [1, 2, 3, 4, 5, 6, 7]


def test_two_degree_table_by_hand():
    table = stable_betti_table(ideal(5, "e1e2", "e1e3", "e1e4", "e2e3e4"), 2)
    assert totals(table, 2) == [4, 13, 29]
    assert table.entry(1, 3) == 9
    assert table.entry(1, 4) == 4


def test_revlex_companion_table_by_hand():
    table = stable_betti_table(ideal(5, "e1e2", "e1e3", "e2e3", "e1e4e5"), 2)
    assert totals(table, 2) == [4, 13, 30]


def test_row_zero_counts_generators():
    I = ideal(5, "e1e2", "e1e3e4", "e1e3e5")
    table = stable_betti_table(I, 0)
    assert table.entry(0, 2) == 1
    assert table.entry(0, 3) == 2


def test_formula_requires_strong_stability():
    with pytest.raises(FormulaInapplicable):
        stable_betti_table(ideal(3, "e2e3"), 2)


def test_low_index_counts_match_the_listed_components():
    # every strongly stable ideal with n <= 6 and its construction, both read in
    # the construction's ambient: the decomposition's count at every (t, p)
    # equals the graded component's members, listed and filtered one by one
    sides = 0
    for n in range(1, 7):
        for I in enumerate_strongly_stable_ideals(n):
            J = colex_ideal(I)
            for X in (MonomialIdeal(J.n, I.gens), J):
                counts = low_index_counts(X, I.indeg, J.n)
                listed = {
                    (t, p): sum(u.mask < 1 << p for u in graded_component(X, t))
                    for t in range(I.indeg, J.n + 1)
                    for p in range(t, J.n + 1)
                }
                assert counts == listed, X
                sides += 1
    assert sides == 1910


def test_low_index_counts_require_strong_stability():
    with pytest.raises(FormulaInapplicable):
        low_index_counts(ideal(4, "e1e2", "e3e4"), 2, 4)


def test_table_depends_only_on_generator_invariants():
    # pure function of the multiset of (degree, largest index) pairs
    from math import comb

    I = ideal(5, "e1e2", "e1e3", "e1e4", "e2e3e4")
    pairs = [(u.degree, u.max_index) for u in I.gens]
    table = stable_betti_table(I, 6)
    for i in range(7):
        for t in {d for d, _ in pairs}:
            expected = sum(comb(m + i - 1, m - 1) for d, m in pairs if d == t)
            assert table.entry(i, i + t) == expected
    # ambient extension leaves the table unchanged
    assert stable_betti_table(MonomialIdeal(8, I.gens), 6).entries == table.entries


def test_table_serialization_shape():
    table = stable_betti_table(ideal(5, "e1e2", "e1e3e4", "e1e3e5"), 1)
    assert table.as_dict() == {
        "subject": "ideal",
        "i_max": 1,
        "rows": [
            {"i": 0, "by_j": {"2": 1, "3": 2}, "total": 3},
            {"i": 1, "by_j": {"3": 2, "4": 9}, "total": 11},
        ],
    }


def test_table_validation():
    with pytest.raises(ContractViolation):
        BettiTable("ideal", 2, {(0, 2): -1})
    with pytest.raises(ContractViolation):
        BettiTable("something", 2, {})


def test_tables_agree_bound_checks():
    t = stable_betti_table(ideal(3, "e1e2"), 2)
    with pytest.raises(ContractViolation):
        tables_agree(t, t, 5)
    assert tables_agree(t, t, 2)


# --- domination ----------------------------------------------------------------

def test_domination_examples():
    I = ideal(5, "e1e2", "e1e3e4", "e1e3e5")
    J = ideal(5, "e1e2", "e1e3e4", "e2e3e4")
    assert max_index_domination(I, J)  # {2,4,4} <= {2,4,5} pointwise

    I2 = ideal(5, "e1e2", "e1e3", "e1e4", "e1e5", "e2e3e4", "e2e3e5")
    J2 = ideal(5, "e1e2", "e1e3", "e2e3", "e1e4", "e2e4e5", "e3e4e5")
    assert max_index_domination(I2, J2)  # {2,3,3,4,5,5} <= {2,3,4,4,5,5}

    I3 = ideal(5, "e1e2", "e1e3", "e1e4", "e2e3e4")
    J3 = ideal(5, "e1e2", "e1e3", "e2e3", "e1e4e5")
    assert not max_index_domination(I3, J3)  # 5 > 4 in the last slot


def test_domination_needs_matching_counts():
    with pytest.raises(ProfileMismatch):
        max_index_domination(ideal(3, "e1e2"), ideal(3, "e1", "e2e3"))


def test_domination_certifies_every_degree():
    I = ideal(5, "e1e2", "e1e3", "e1e4", "e1e5", "e2e3e4", "e2e3e5")
    J = ideal(5, "e1e2", "e1e3", "e2e3", "e1e4", "e2e4e5", "e3e4e5")
    assert max_index_domination(I, J)
    for i_max in (5, 12, 20):
        ti = stable_betti_table(I, i_max)
        tj = stable_betti_table(J, i_max)
        assert all(tj.total(i) <= ti.total(i) for i in range(i_max + 1))


# --- comparisons -----------------------------------------------------------------

def test_compare_lower_bound_pair():
    I = ideal(5, "e1e2", "e1e3e4", "e1e3e5")
    J = ideal(5, "e1e2", "e1e3e4", "e2e3e4")
    verdict = compare_betti(I, J, 10)
    assert verdict.mode == MODE_LOWER
    assert verdict.domination


def test_compare_equal_on_identical():
    I = ideal(4, "e1e2", "e1e3")
    verdict = compare_betti(I, I, 6)
    assert verdict.mode == MODE_EQUAL
    assert verdict.strict_indices == ()
    assert verdict.equal_indices == tuple(range(7))


def test_compare_upper_bound_pair():
    I = ideal(5, "e1e2", "e1e3", "e1e4", "e2e3e4")
    J = ideal(5, "e1e2", "e1e3", "e2e3", "e1e4e5")
    verdict = compare_betti(I, J, 10)
    assert verdict.mode == MODE_UPPER
    assert verdict.equal_indices == (0, 1)
    assert verdict.strict_indices == tuple(range(2, 11))
    assert not verdict.domination


def test_compare_incomparable():
    # hand-made tables whose totals cross: [2,1,5] against [1,2,5]
    t1 = BettiTable("ideal", 2, {(0, 1): 2, (1, 2): 1, (2, 3): 5})
    t2 = BettiTable("ideal", 2, {(0, 1): 1, (1, 2): 2, (2, 3): 5})
    verdict = compare_betti(
        ideal(3, "e1e2"), ideal(3, "e1", "e2"), 2, table_i=t1, table_j=t2
    )
    assert verdict.mode == MODE_INCOMPARABLE
    assert verdict.strict_indices == (0, 1)
    assert verdict.equal_indices == (2,)
    assert not verdict.domination


def test_compare_accepts_precomputed_tables():
    I = ideal(3, "e1e2")
    t = stable_betti_table(I, 8)
    verdict = compare_betti(I, I, 8, table_i=t, table_j=t)
    assert verdict.mode == MODE_EQUAL
    with pytest.raises(ContractViolation):
        compare_betti(I, I, 9, table_i=t, table_j=t)


def test_tables_of_different_subjects_are_refused():
    # beta_i of the quotient is beta_{i-1} of the ideal: read as one convention,
    # the two tables of (e1e2, e1e3, e2e3) disagree, and through the quotient's
    # totals the ideal would read as an upper bound on itself
    I = ideal(4, "e1e2", "e1e3", "e2e3")
    tables = cartan_betti(I, 4)
    closed = stable_betti_table(I, 3)
    assert tables_agree(tables.ideal, closed, 3)
    with pytest.raises(ContractViolation, match="the quotient's table against the ideal's"):
        tables_agree(tables.quotient, closed, 3)
    assert compare_betti(I, I, 3, table_i=tables.ideal).mode == MODE_EQUAL
    for supplied in ({"table_i": tables.quotient}, {"table_j": tables.quotient}):
        with pytest.raises(ContractViolation, match="supplied the quotient's table"):
            compare_betti(I, I, 3, **supplied)


def test_compare_serialization():
    I = ideal(3, "e1e2")
    verdict = compare_betti(I, I, 2)
    assert verdict.as_dict() == {
        "mode": "EqualAllChecked",
        "strict_indices": [],
        "equal_indices": [0, 1, 2],
        "i_max": 2,
        "domination": True,
    }


def test_table_cells_are_capped():
    # one cell per homological degree and generator degree: two degrees here
    I = ideal(4, "e1e2", "e1e3", "e2e3e4")
    rows = MAX_TABLE_CELLS // 2
    assert stable_betti_table(I, rows - 1).i_max == rows - 1
    with pytest.raises(TableTooLarge):
        stable_betti_table(I, rows)
    with pytest.raises(TableTooLarge):
        compare_betti(I, I, 10**9)
