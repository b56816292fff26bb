"""Monomial layer: revlex order, segments, shadows, stability, statistics.

Derived expectations are computed against definitional oracles kept in this
file (a positional comparator read off the order's definition, brute-force
set comprehensions for shadows) and frozen as literals where small.
"""

import functools
import itertools
from math import comb

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from excolex.errors import ContractViolation, InsufficientMonomials, clipped_repr
from excolex.monomials import (
    MAX_VARIABLES,
    Monomial,
    borel_reductions,
    common_degree,
    is_stable,
    is_strongly_stable,
    iter_degree_masks,
    require_ambient,
    revlex_segment,
    shadow_masks,
)

M = Monomial.from_text


def mset(*texts):
    return {M(t) for t in texts}


# --- oracles -----------------------------------------------------------------

def revlex_cmp_reference(u, v):
    """The order's definition verbatim: scan index tuples from the last slot."""
    a, b = u.indices, v.indices
    assert len(a) == len(b)
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def shadow_reference(monos, top):
    """Products e_j * u for u in the set and 1 <= j <= top, supports only."""
    return {
        Monomial.from_indices(sorted(u.indices + (j,)))
        for u in monos
        for j in range(1, top + 1)
        if j not in u.indices
    }


def shadow(monos, top):
    """``shadow_masks`` on monomials, multiplying by e_1..e_top."""
    return set(map(Monomial, shadow_masks([u.mask for u in monos], (1 << top) - 1)))


def segment_reference(n, d, length):
    everything = [
        Monomial.from_indices(c) for c in itertools.combinations(range(1, n + 1), d)
    ]
    everything.sort(key=lambda u: [-i for i in reversed(u.indices)])
    ordered = sorted(everything, key=lambda u: tuple(reversed(u.indices)))
    # positional rule: u before v when the last differing slot is smaller in u
    ordered = sorted(
        everything,
        key=functools.cmp_to_key(lambda a, b: -revlex_cmp_reference(a, b)),
    )
    return ordered[:length]


# --- construction and parsing ------------------------------------------------

def test_from_indices_sorts_and_validates():
    assert Monomial.from_indices([3, 1, 4]).indices == (1, 3, 4)
    with pytest.raises(ContractViolation):
        Monomial.from_indices([2, 2])
    with pytest.raises(ContractViolation):
        Monomial.from_indices([0])
    with pytest.raises(ContractViolation):
        Monomial.from_indices([True, 2])  # JSON true is not the index 1


def test_text_round_trip():
    assert M("e1e3e4").indices == (1, 3, 4)
    assert M("e1e3e4").text() == "e1e3e4"
    assert M("1").degree == 0
    assert M("1").text() == "1"
    with pytest.raises(ContractViolation):
        M("x2")


@pytest.mark.parametrize(
    "mask", [-1, -3, -(1 << 70), -(10**5000)], ids=["-1", "-3", "-2**70", "-10**5000"]
)
def test_constructor_refuses_a_negative_mask(mask):
    # a negative int has infinitely many set bits: no degree, largest index or
    # text; the message clips the mask (10**5000 is past the int-to-text limit)
    with pytest.raises(ContractViolation) as exc:
        Monomial(mask)
    assert str(exc.value) == f"negative monomial mask {clipped_repr(mask)}"
    assert len(str(exc.value)) < 100


@pytest.mark.parametrize("mask", [-1, -3, -(1 << 70)])
def test_negative_mask_has_no_indices_but_a_finite_repr(mask):
    # a negative int has infinitely many set bits: the index loop must refuse
    # one that bypasses the constructor's check
    u = Monomial._make([mask])
    with pytest.raises(ContractViolation, match="negative monomial mask"):
        u.indices
    with pytest.raises(ContractViolation):
        u.text()
    assert repr(u) == f"Monomial(mask={mask})"


def test_basic_statistics():
    u = M("e2e3e5")
    assert (u.degree, u.max_index) == (3, 5)
    unit = Monomial(0)
    assert (unit.degree, unit.max_index) == (0, 0)


# --- revlex ------------------------------------------------------------------

def mask_cmp(u, v):
    """+1 when u has the smaller mask: the module's rule for u > v in revlex."""
    return (u.mask < v.mask) - (u.mask > v.mask)


def by_mask(monos):
    """Ascending masks: the module's revlex-descending order within one degree."""
    return sorted(monos, key=lambda u: u.mask)


def test_revlex_trivial_examples():
    assert by_mask([M("e2e3"), M("e1e3")]) == [M("e1e3"), M("e2e3")]
    assert revlex_cmp_reference(M("e1e3"), M("e2e3")) == 1
    assert revlex_cmp_reference(M("e2e4"), M("e2e4")) == 0


def test_revlex_derived_example():
    # frozen from the positional comparator: last slots 3 < 4 decide
    assert revlex_cmp_reference(M("e2e3"), M("e1e4")) == 1
    assert by_mask([M("e1e4"), M("e2e3")]) == [M("e2e3"), M("e1e4")]


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_revlex_matches_reference_everywhere(n, d):
    universe = list(map(Monomial, iter_degree_masks(n, d)))
    for u in universe:
        for v in universe:
            assert mask_cmp(u, v) == revlex_cmp_reference(u, v)
    by_definition = sorted(
        universe, key=functools.cmp_to_key(lambda a, b: -revlex_cmp_reference(a, b))
    )
    assert by_mask(reversed(universe)) == by_definition


@given(
    st.lists(
        st.sets(st.integers(1, 7), min_size=3, max_size=3).map(Monomial.from_indices),
        min_size=3,
        max_size=3,
    )
)
def test_revlex_total_order_on_triples(triple):
    by_definition = sorted(
        triple, key=functools.cmp_to_key(lambda a, b: -revlex_cmp_reference(a, b))
    )
    assert by_mask(triple) == by_definition


# --- segments ----------------------------------------------------------------

def test_segment_of_degree_two_over_five_variables():
    assert revlex_segment(5, 2, 4) == [M("e1e2"), M("e1e3"), M("e2e3"), M("e1e4")]


def test_segment_full_and_empty():
    assert set(revlex_segment(4, 2, 6)) == set(map(Monomial, iter_degree_masks(4, 2)))
    assert revlex_segment(5, 3, 0) == []


def test_segment_overflow():
    with pytest.raises(InsufficientMonomials):
        revlex_segment(4, 2, 7)


@pytest.mark.parametrize("n,d", [(5, 2), (6, 3), (7, 4)])
def test_segment_matches_reference(n, d):
    for length in range(comb(n, d) + 1):
        assert revlex_segment(n, d, length) == segment_reference(n, d, length)


def test_segment_prefix_property_and_ambient_independence():
    for length in range(comb(5, 2)):
        seg = revlex_segment(5, 2, length)
        assert revlex_segment(5, 2, length + 1)[:length] == seg
        assert revlex_segment(9, 2, length) == seg  # bigger ambient, same prefix


# --- shadows -----------------------------------------------------------------

def test_shadow_single_monomial():
    assert shadow(mset("e1e2"), 4) == mset("e1e2e3", "e1e2e4")


def test_shadow_derived_size_eight():
    monos = mset("e1e2", "e1e3", "e2e3", "e1e4")
    assert shadow(monos, 5) == shadow_reference(monos, 5)
    assert len(shadow(monos, 5)) == 8  # = (5-2)+(5-3)+(5-3)+(5-4)


def test_shadow_top_degree_is_empty():
    assert shadow([M("e1e2e3e4")], 4) == set()
    assert shadow([], 5) == set()


def test_partial_shadow_examples():
    assert shadow(mset("e1e2"), 2) == set()
    assert shadow(mset("e1e2"), 3) == mset("e1e2e3")
    monos = mset("e1e2", "e1e3", "e2e3")
    assert shadow(monos, 4) == mset("e1e2e3", "e1e2e4", "e1e3e4", "e2e3e4")


@given(st.data())
@settings(max_examples=200)
def test_shadow_masks_matches_partial_shadow(data):
    n = data.draw(st.integers(1, 7))
    d = data.draw(st.integers(0, n))
    masks = data.draw(st.sets(st.sampled_from(list(iter_degree_masks(n, d)))))
    top = data.draw(st.integers(1, n))
    got = shadow_masks(masks, (1 << top) - 1)
    assert set(map(Monomial, got)) == shadow_reference(set(map(Monomial, masks)), top)
    # any window, not only a prefix one, against the definition
    window = data.draw(st.integers(0, (1 << n) - 1))
    assert shadow_masks(masks, window) == {
        m | 1 << (j - 1)
        for m in masks
        for j in range(1, n + 1)
        if window >> (j - 1) & 1 and not m >> (j - 1) & 1
    }


# --- counts ------------------------------------------------------------------

def test_max_index_counts():
    monos = mset("e1e2", "e1e3", "e2e3", "e1e4")
    assert sum(u.max_index <= 3 for u in monos) == 3


def test_count_consistency():
    monos = set(revlex_segment(6, 3, 11))
    assert all(u.max_index <= 6 for u in monos)


# --- stability ---------------------------------------------------------------

def test_strongly_stable_examples():
    assert is_strongly_stable(mset("e1e2", "e1e3", "e2e3"))
    assert not is_strongly_stable(mset("e1e3"))
    assert is_strongly_stable(set())  # vacuous closure by convention


def test_stable_vs_strongly_stable():
    # closed for the largest index only: e2e3 -> e1e3 is not required by
    # stability (2 is not the largest index) but strong stability needs it
    monos = mset("e1e2", "e2e3", "e2e4", "e2e5")
    assert is_stable(monos)
    assert not is_strongly_stable(monos)
    assert is_strongly_stable(mset("e1e2", "e1e3", "e2e3", "e1e4", "e2e4"))


def stable_by_definition(monos):
    """u / e_m * e_i lies in the set for every member u with largest index m
    and every i < m not dividing u."""
    for u in monos:
        m = max(u.indices, default=0)
        for i in range(1, m):
            if i not in u.indices:
                moved = [k for k in u.indices if k != m] + [i]
                if Monomial.from_indices(moved) not in monos:
                    return False
    return True


def stable_closure(monos):
    out = set(monos)
    frontier = list(monos)
    while frontier:
        u = frontier.pop()
        for v in borel_reductions(u):
            if v.max_index < u.max_index and v not in out:
                out.add(v)
                frontier.append(v)
    return out


@given(st.data())
@settings(max_examples=200)
def test_is_stable_matches_definition(data):
    n = data.draw(st.integers(1, 6))
    d = data.draw(st.integers(0, n))
    monos = data.draw(st.sets(st.sampled_from(list(map(Monomial, iter_degree_masks(n, d))))))
    assert is_stable(monos) == stable_by_definition(monos)
    closed = stable_closure(monos)
    assert stable_by_definition(closed)
    assert is_stable(closed)


def test_mixed_degrees_rejected():
    with pytest.raises(ContractViolation):
        is_strongly_stable(mset("e1", "e1e2"))


def borel_closure(monos):
    out = set(monos)
    frontier = list(monos)
    while frontier:
        u = frontier.pop()
        for v in borel_reductions(u):
            if v not in out:
                out.add(v)
                frontier.append(v)
    return out


@given(
    st.sets(
        st.sets(st.integers(1, 6), min_size=3, max_size=3).map(Monomial.from_indices),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60)
def test_borel_closure_is_strongly_stable_and_shadow_preserves_it(seed):
    closed = borel_closure(seed)
    assert is_strongly_stable(closed)
    assert is_strongly_stable(shadow(closed, 6))


@given(
    st.sets(
        st.sets(st.integers(1, 7), min_size=2, max_size=2).map(Monomial.from_indices),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60)
def test_shadow_size_formula_on_random_borel_sets(seed):
    closed = borel_closure(seed)
    assert len(shadow(closed, 7)) == sum(7 - u.max_index for u in closed)


def test_shadow_deduplicates_for_arbitrary_sets():
    monos = mset("e1e2", "e1e3")
    assert shadow(monos, 4) == shadow_reference(monos, 4)
    assert len(shadow(monos, 4)) == 3  # e1e2e3 arises twice, kept once


def test_common_degree():
    assert common_degree([]) is None
    assert common_degree(mset("e1e2", "e2e3")) == 2


# --- the contract helpers against per-monomial references --------------------

def common_degree_reference(monos):
    deg = None
    for u in monos:
        if deg is None:
            deg = u.degree
        elif u.degree != deg:
            raise ContractViolation(f"mixed degrees: {deg} and {u.degree}")
    return deg


def require_ambient_reference(monos, n):
    if not 1 <= n <= MAX_VARIABLES:
        raise ContractViolation(f"ambient size out of range: {n}")
    for u in monos:
        if u.max_index > n:
            raise ContractViolation(f"{u} does not live in e_1..e_{n}")


def outcome(check, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)


helper_inputs = st.tuples(
    st.one_of(st.integers(0, 9), st.sampled_from([64, 65])),
    st.lists(st.one_of(st.integers(0, 15), st.integers(0, 1023)), max_size=8),
    st.sampled_from([list, iter, lambda xs: (u for u in xs)]),
)


@given(helper_inputs)
@settings(max_examples=500)
def test_contract_helpers_match_their_references(case):
    n, masks, container = case
    monos = [Monomial(m) for m in masks]
    expected = outcome(common_degree_reference, monos)
    assert outcome(common_degree, container(monos)) == expected
    event("mixed" if isinstance(expected, tuple) else "homogeneous")
    expected = outcome(require_ambient_reference, monos, n)
    assert outcome(require_ambient, container(monos), n) == expected
    event("outside" if expected is not None else "inside")


@pytest.mark.parametrize(
    "n, message",
    [
        (True, "ambient size must be an integer, got True"),
        (2.0, "ambient size must be an integer, got 2.0"),
        (10**5000, "ambient size out of range: <int of 16610 bits>"),
    ],
    ids=["bool", "float", "10**5000"],
)
def test_require_ambient_refuses_a_size_that_is_no_int_of_1_to_64(n, message):
    # the one ambient-size check that the ideal constructor and the streams share
    with pytest.raises(ContractViolation) as exc:
        require_ambient([M("e1")], n)
    assert str(exc.value) == message


def test_contract_helpers_read_a_one_shot_iterator_once():
    monos = [M("e1e2"), M("e2e3"), M("e1e4")]
    assert common_degree(iter(monos)) == 2
    assert require_ambient(iter(monos), 4) is None
    with pytest.raises(ContractViolation, match="e1e4 does not live in e_1..e_3"):
        require_ambient(iter(monos), 3)
    with pytest.raises(ContractViolation, match="mixed degrees: 2 and 1"):
        common_degree(u for u in [*monos, M("e3")])
