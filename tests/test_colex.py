"""Construction and revlex-ideal characterizations."""

import hashlib
import json
from itertools import islice, takewhile
from math import comb

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from excolex import colex, ideals
from excolex.cli import main
from excolex.colex import (
    colex_ideal,
    construction_dict,
    greedy_generators,
    is_revlex_ideal,
    is_revlex_segment,
    revlex_condition_single_degree,
    revlex_conditions_two_degrees,
    segment_shadow_conditions,
)
from excolex.enumeration import (
    _two_degree_sets,
    enumerate_proper_ideals,
    enumerate_strongly_stable_ideals,
)
from excolex.errors import (
    AmbientCapExceeded,
    ComponentTooLarge,
    ConstructionTooLarge,
    ContractViolation,
    DegreeTooHigh,
    HypothesisViolated,
    NotARevlexSegment,
)
from excolex.ideals import (
    MonomialIdeal,
    degree_profile,
    graded_component,
    is_strongly_stable_ideal,
    minimalize,
)
from excolex.monomials import Monomial, iter_degree_masks, revlex_segment, shadow_masks
from excolex.verify import MAX_EXTRA_AT_TOP

M = Monomial.from_text


def ideal(n, *texts):
    return minimalize(n, [M(t) for t in texts])


def gens_text(I):
    return [u.text() for u in I.gens]


def test_construction_two_and_three_degrees():
    J = colex_ideal(ideal(5, "e1e2", "e1e3e4", "e1e3e5"))
    assert J.n == 5
    assert gens_text(J) == ["e1e2", "e1e3e4", "e2e3e4"]

    J = colex_ideal(ideal(5, "e1e2", "e1e3", "e1e4", "e1e5", "e2e3e4", "e2e3e5", "e2e4e5"))
    assert J.n == 6
    assert gens_text(J) == [
        "e1e2", "e1e3", "e2e3", "e1e4", "e2e4e5", "e3e4e5", "e2e4e6",
    ]


def test_construction_steps_and_serialization():
    data = construction_dict(colex_ideal(ideal(5, "e1e2", "e1e3e4", "e1e3e5")))
    assert data["m"] == 5
    assert data["J"] == {"n": 5, "generators": [[1, 2], [1, 3, 4], [2, 3, 4]]}
    assert data["steps"] == [
        {"degree": 2, "chosen": [[1, 2]]},
        {"degree": 3, "chosen": [[1, 3, 4], [2, 3, 4]]},
    ]


def test_construction_json_is_pinned():
    # every strongly stable ideal with n <= 6 (955 of them), in stream order
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 7):
        for I in enumerate_strongly_stable_ideals(n):
            digest.update(json.dumps(construction_dict(colex_ideal(I)), sort_keys=True).encode())
            count += 1
    assert count == 955
    assert digest.hexdigest() == (
        "0d2d779ba303d6770d82028c6b3d84fbb2316d42bfaabb331e9810b03a8e70ee"
    )


def test_single_degree_never_extends_the_ambient():
    I = ideal(5, "e1e3", "e2e3", "e1e4")
    J = colex_ideal(I)
    assert J.n == 5
    assert list(J.gens) == revlex_segment(5, 2, 3)


def test_profile_is_preserved():
    for I in (
        ideal(5, "e1e2", "e1e3e4", "e1e3e5"),
        ideal(5, "e1e2", "e1e3", "e1e4", "e1e5", "e2e3e4", "e2e3e5", "e2e4e5"),
        ideal(4, "e1e2e3"),
    ):
        assert degree_profile(colex_ideal(I)) == degree_profile(I)


def test_construction_output_is_strongly_stable():
    from excolex.ideals import is_strongly_stable_ideal

    for n in (3, 4, 5):
        for I in enumerate_strongly_stable_ideals(n):
            assert is_strongly_stable_ideal(colex_ideal(I))


def test_cap_errors():
    needs_six = ideal(5, "e1e2", "e1e3", "e1e4", "e1e5", "e2e3e4", "e2e3e5", "e2e4e5")
    with pytest.raises(AmbientCapExceeded):
        colex_ideal(needs_six, m_cap=5)
    with pytest.raises(ContractViolation):
        colex_ideal(needs_six, m_cap=3)  # cap below the ambient


def test_one_greedy_pass(monkeypatch):
    # served first at m = 6: one pass at the cap finds that, with no rerun at m = 5
    needs_six = ideal(5, "e1e2", "e1e3", "e1e4", "e1e5", "e2e3e4", "e2e3e5", "e2e4e5")
    calls = []

    def spy(profile, m):
        calls.append(m)
        return greedy_generators(profile, m)

    monkeypatch.setattr(colex, "greedy_generators", spy)
    assert colex_ideal(needs_six).n == 6
    assert len(calls) == 1


def test_cap_is_clamped_to_the_mask_width(capsys, tmp_path):
    # an unclamped pass would build 1 << 10**18 in the mask scan
    I = ideal(5, "e1e2", "e1e3", "e1e4", "e1e5", "e2e3e4", "e2e3e5", "e2e4e5")
    assert colex_ideal(I, m_cap=10**18) == colex_ideal(I)
    path = tmp_path / "needs_six.json"
    path.write_text(json.dumps(I.as_dict()))
    assert main(["colex", "--input", str(path)]) == 0
    default = capsys.readouterr().out
    assert main(["colex", "--input", str(path), "--m-cap", str(10**18)]) == 0
    assert capsys.readouterr().out == default


def test_construction_past_the_mask_width_is_resource_exit(capsys, tmp_path):
    # valid at n = 64; its construction needs a 65th variable, which no mask
    # holds, so a cap above 64 refuses it as the cap 64 does
    texts = [f"e{i}" for i in range(1, 60)] + [
        "e60e61", "e60e62", "e60e63", "e60e64", "e61e62e63", "e61e62e64", "e61e63e64",
    ]
    path = tmp_path / "n64.json"
    path.write_text(json.dumps(ideal(64, *texts).as_dict()))
    for cap in ("64", "70"):
        assert main(["colex", "--input", str(path), "--m-cap", cap]) == 3
        assert capsys.readouterr().err.endswith(
            "construction still incomplete at ambient size 64 (cap 64)\n"
        )


def test_construction_over_caps_is_pinned():
    # every proper ideal with n <= 4, then every strongly stable one with
    # n <= 6, in stream order, each at the caps n, n + 1 and n + 2
    ideals = [I for n in range(1, 5) for I in enumerate_proper_ideals(n)]
    ideals += [I for n in range(1, 7) for I in enumerate_strongly_stable_ideals(n)]
    digest = hashlib.sha256()
    lines = extended = refused = 0
    for I in ideals:
        for cap in (I.n, I.n + 1, I.n + 2):
            try:
                J = colex_ideal(I, m_cap=cap)
            except AmbientCapExceeded:
                line = "AmbientCapExceeded"
                refused += 1
            else:
                line = json.dumps(construction_dict(J), sort_keys=True)
                extended += J.n > I.n
            digest.update((line + "\n").encode())
            lines += 1
    assert (lines, extended, refused) == (3432, 321, 162)
    assert digest.hexdigest() == (
        "98ba55eeee9928a0bba63d78a6adf000e3e45b92dca8d21c5f41c8c1e33bed6d"
    )


def test_greedy_scan_budget(monkeypatch):
    # the degree-2 masks ascend e1e2, e1e3, e2e3, e1e4, ...: k picks scan k masks
    monkeypatch.setattr(colex, "MAX_SCANNED_MASKS", 3)
    assert greedy_generators(((2, 3),), 4) == (M("e1e2"), M("e1e3"), M("e2e3"))
    assert greedy_generators(((2, 4),), 3) is None  # starves within the budget
    with pytest.raises(ConstructionTooLarge):
        greedy_generators(((2, 4),), 4)  # the fourth pick is the fourth mask


def test_greedy_rerun_is_ambient_stable():
    I = ideal(5, "e1e2", "e1e3e4", "e1e3e5")
    J = colex_ideal(I)
    for extra in (1, 2, 3):
        assert greedy_generators(degree_profile(I), J.n + extra) == J.gens


# --- revlex predicates ---------------------------------------------------------

def test_is_revlex_segment():
    assert is_revlex_segment({M("e1e2"), M("e1e3"), M("e2e3")}, 5)
    assert not is_revlex_segment({M("e1e2"), M("e2e3")}, 4)  # e1e3 missing
    assert is_revlex_segment(set(map(Monomial, iter_degree_masks(4, 2))), 4)
    assert is_revlex_segment(set(), 4)


def test_is_revlex_ideal_reference_cases():
    assert not is_revlex_ideal(ideal(6, "e1e2", "e1e3", "e2e3e4"))
    assert is_revlex_ideal(ideal(5, "e1e2", "e1e3", "e2e3", "e1e4e5"))


def test_is_revlex_ideal_for_one_variable_generator():
    # multiples of e1 form top segments only while n <= 3: over n = 4 the
    # degree-2 component {e1e2, e1e3, e1e4} skips e2e3 > e1e4
    assert is_revlex_ideal(ideal(2, "e1"))
    assert is_revlex_ideal(ideal(3, "e1"))
    assert not is_revlex_ideal(ideal(4, "e1"))


@st.composite
def revlex_test_ideals(draw, n_max=7):
    """Ideals with n <= 7: unions of two revlex segments, revlex or not, and
    random generator sets, mostly neither revlex nor strongly stable."""
    n = draw(st.integers(1, n_max))
    if draw(st.booleans()):
        gens = []
        for _ in range(2):
            d = draw(st.integers(1, n))
            gens += revlex_segment(n, d, draw(st.integers(1, comb(n, d))))
    else:
        masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
        gens = [Monomial(m) for m in masks]
    return minimalize(n, gens)


@given(revlex_test_ideals())
@settings(max_examples=400, deadline=None)
def test_is_revlex_ideal_matches_its_componentwise_definition(I):
    expected = all(
        is_revlex_segment(graded_component(I, t), I.n) for t in range(I.indeg, I.n + 1)
    )
    event(f"revlex: {expected}, strongly stable: {is_strongly_stable_ideal(I)}")
    assert is_revlex_ideal(I) == expected


def literal_flags(masks, n, t):
    """Whether each degree-t mask, ascending, is a multiple of a generator mask."""
    return [any(g & m == g for g in masks) for m in iter_degree_masks(n, t)]


def revlex_ideal_reference(I):
    """Each component from the initial degree up is a run of members, then of non-members."""
    return all(
        flags == sorted(flags, reverse=True)
        for flags in (literal_flags(I.masks, I.n, t) for t in range(I.indeg, I.n + 1))
    )


def test_is_revlex_ideal_matches_the_literal_scan_on_stable_ideals():
    checked = revlex = 0
    for n in range(1, 7):
        for I in enumerate_strongly_stable_ideals(n):
            for X in (I, colex_ideal(I)):
                assert is_revlex_ideal(X) == revlex_ideal_reference(X), gens_text(X)
                checked += 1
                revlex += is_revlex_ideal(X)
    assert (checked, revlex) == (1910, 1019)


def test_segment_shadow_conditions_examples():
    assert segment_shadow_conditions(revlex_segment(5, 2, 3), 5) == (True, True, True)
    assert segment_shadow_conditions(revlex_segment(5, 2, 2), 5) == (False, False, False)
    # over six variables the corner of degree 2 is e3e4, the sixth monomial
    conditions = segment_shadow_conditions(revlex_segment(6, 2, comb(4, 2)), 6)
    assert conditions == (True, True, True)
    assert revlex_segment(6, 2, 6)[-1] == M("e3e4")


def test_segment_shadow_conditions_contracts():
    with pytest.raises(NotARevlexSegment):
        segment_shadow_conditions({M("e1e2"), M("e2e3")}, 5)
    with pytest.raises(DegreeTooHigh):
        segment_shadow_conditions(revlex_segment(5, 3, 2), 5)
    with pytest.raises(ContractViolation):
        segment_shadow_conditions(set(), 5)


def test_whole_component_readers_refuse_a_component_too_large_for_a_table(monkeypatch):
    # both inputs are settled by a few of the C(32, 16) degree-16 masks, but
    # the whole-component kernel refuses that component before building it
    def build(n, t):
        raise AssertionError(f"the degree-{t} table of e_1..e_{n} was built")

    monkeypatch.setattr(ideals, "iter_degree_masks", build)
    I = MonomialIdeal(32, [Monomial(0xFFFF), Monomial(0x1BFFF)])  # positions 0 and 2
    assert I.indeg == 16 and len(I.gens_of_degree(16)) == 2
    with pytest.raises(ComponentTooLarge):
        is_revlex_ideal(I)
    with pytest.raises(ComponentTooLarge):  # the shadow of degree 16
        segment_shadow_conditions(revlex_segment(32, 15, 2), 32)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_segment_shadow_triple_equivalence(n):
    for d in range(1, n - 2):
        for length in range(1, comb(n, d) + 1):
            segment = revlex_segment(n, d, length)
            a, b, c = segment_shadow_conditions(segment, n)
            assert a == b == c
            shadow = shadow_masks([u.mask for u in segment], (1 << n) - 1)
            assert a == is_revlex_segment(set(map(Monomial, shadow)), n)


# --- two-degree report ----------------------------------------------------------

def test_two_degree_report_consistency_example():
    rep = revlex_conditions_two_degrees(ideal(7, "e1e2", "e1e3", "e1e4", "e2e3e4"))
    assert rep.n == 7 and (rep.d1, rep.d2) == (2, 3)
    assert rep.is_revlex == (rep.holds_i or rep.holds_ii)


def test_two_degree_report_serialization():
    rep = revlex_conditions_two_degrees(ideal(7, "e1e2", "e1e3", "e1e4", "e2e3e4"))
    expected = {
        "n": 7, "d1": 2, "d2": 3, "dim_d1": 3, "dim_d2": 13, "dim_construction_d2": 14,
        "threshold_i": 10, "holds_i": False, "a_size": 20, "c": 3, "holds_ii": False,
        "is_revlex": False, "consistent": True,
    }
    assert rep.as_dict() == expected
    assert list(rep.as_dict()) == list(expected)
    flipped = rep._replace(is_revlex=True)
    assert flipped.as_dict() == {**expected, "is_revlex": True, "consistent": False}


def test_two_degree_condition_one_boundary():
    # degree-1 part of dimension exactly C(n-2, 1) over n = 6
    I = ideal(6, "e1", "e2", "e3", "e4", "e5e6")
    rep = revlex_conditions_two_degrees(I)
    assert rep.dim_d1 == rep.threshold_i == 4
    assert rep.holds_i
    assert rep.is_revlex


def test_two_degree_gap_kills_condition_two():
    # d2 = d1 + 2: only condition (i) can apply
    I = ideal(7, "e1e2", "e1e3e4e5")
    rep = revlex_conditions_two_degrees(I)
    assert (rep.d1, rep.d2) == (2, 4)
    assert not rep.holds_ii
    assert rep.is_revlex == rep.holds_i


def test_two_degree_report_surfaces_both_dimensions():
    # the input ideal's degree-d2 dimension can fall below the construction's,
    # and the conditions are decided against the construction's
    I = ideal(6, "e1e2", "e1e3", "e1e4", "e2e3e4", "e2e3e5", "e2e3e6")
    rep = revlex_conditions_two_degrees(I)
    assert rep.dim_d2 == 12
    assert rep.dim_construction_d2 == 13
    assert rep.is_revlex and rep.holds_ii and not rep.holds_i
    assert rep.consistent


def test_two_degree_hypothesis_violations():
    with pytest.raises(HypothesisViolated):
        revlex_conditions_two_degrees(ideal(7, "e1e2"))
    with pytest.raises(HypothesisViolated):
        revlex_conditions_two_degrees(ideal(5, "e1e2", "e1e3e4"))  # d2 = 3 = n-2


def two_degree_reference(I):
    """The two-degree report computed on sets of monomials: graded components
    read over the construction's ambient, and w as the revlex-least member of
    the shadow of the degree-d1 segment."""
    (d1, dim_d1), (d2, _) = degree_profile(I)
    J = colex_ideal(I)
    n = J.n
    a_size = sum(comb(r, d1) for r in range(d1, n - 1))
    dim_construction_d2 = len(graded_component(J, d2))
    c, holds_ii = 0, False
    if d2 == d1 + 1:
        segment = [u.mask for u in revlex_segment(n, d1, dim_d1)]
        w = Monomial(max(shadow_masks(segment, (1 << n) - 1)))
        z = Monomial.from_indices(range(n - d1 - 1, n))
        c = sum(z.mask < m <= w.mask for m in iter_degree_masks(n, d2))
        holds_ii = dim_construction_d2 >= a_size + c
    holds_i = dim_d1 >= comb(n - 2, d1)
    is_revlex = all(
        is_revlex_segment(graded_component(J, t), n) for t in range(J.indeg, n + 1)
    )
    return {
        "n": n,
        "d1": d1,
        "d2": d2,
        "dim_d1": dim_d1,
        "dim_d2": len(graded_component(MonomialIdeal(n, I.gens), d2)),
        "dim_construction_d2": dim_construction_d2,
        "threshold_i": comb(n - 2, d1),
        "holds_i": holds_i,
        "a_size": a_size,
        "c": c,
        "holds_ii": holds_ii,
        "is_revlex": is_revlex,
        "consistent": is_revlex == (holds_i or holds_ii),
    }


def two_degree_report_by_scans(I):
    """The two-degree report with every component read by a lazy scan of the
    ascending masks, and w and c taken by ``islice`` and ``takewhile``."""
    (d1, p1), (d2, _) = degree_profile(I)
    J = colex_ideal(I)
    n = J.n
    dim_construction_d2 = sum(literal_flags(J.masks, n, d2))
    threshold_i = comb(n - 2, d1)
    a_size = sum(comb(r, d1) for r in range(d1, n - 1))
    c, holds_ii = 0, False
    if d2 == d1 + 1:
        w = max(shadow_masks(islice(iter_degree_masks(n, d1), p1), (1 << n) - 1))
        z = ((1 << (d1 + 1)) - 1) << (n - d1 - 2)
        c = sum(m > z for m in takewhile(lambda m: m <= w, iter_degree_masks(n, d2)))
        holds_ii = dim_construction_d2 >= a_size + c
    return colex.RevlexConditionReport(
        n=n, d1=d1, d2=d2, dim_d1=p1, dim_d2=sum(literal_flags(I.masks, n, d2)),
        dim_construction_d2=dim_construction_d2, threshold_i=threshold_i,
        holds_i=p1 >= threshold_i, a_size=a_size, c=c, holds_ii=holds_ii,
        is_revlex=revlex_ideal_reference(J),
    )


def test_two_degree_report_matches_the_scans_on_the_section6_walk():
    # the first ideal of each profile of the two-degree walk that section6 runs
    profiles = reports = 0
    for n in range(5, 8):
        seen = set()
        for mset, extra in _two_degree_sets(n, MAX_EXTRA_AT_TOP if n == 7 else None):
            profile = ((mset[0].degree, len(mset)), (extra[0].degree, len(extra)))
            if profile in seen:
                continue
            seen.add(profile)
            profiles += 1
            I = MonomialIdeal(n, mset + extra)
            try:
                rep = revlex_conditions_two_degrees(I)
            except HypothesisViolated:
                continue
            assert rep._asdict() == two_degree_report_by_scans(I)._asdict(), gens_text(I)
            reports += 1
    assert (profiles, reports) == (686, 402)


@pytest.mark.parametrize("n", [5, 6])
def test_two_degree_biconditional_exhaustive(n):
    for I in enumerate_strongly_stable_ideals(n):
        if len(degree_profile(I)) != 2:
            continue
        try:
            rep = revlex_conditions_two_degrees(I)
        except HypothesisViolated:
            continue
        assert rep.consistent, (gens_text(I), rep.as_dict())
        assert rep.as_dict() == two_degree_reference(I), gens_text(I)


# --- single-degree criterion ----------------------------------------------------

def test_single_degree_criterion_examples():
    assert revlex_condition_single_degree(ideal(5, "e1e2", "e1e3", "e1e4"))
    assert not revlex_condition_single_degree(
        ideal(6, "e1e2", "e1e3", "e2e3", "e1e4", "e2e4")
    )
    full = MonomialIdeal(6, tuple(map(Monomial, iter_degree_masks(6, 2))))
    assert revlex_condition_single_degree(full)


def test_single_degree_criterion_matches_direct_check():
    for n in (5, 6):
        for d in range(1, n - 2):
            for count in range(1, comb(n, d) + 1):
                I = MonomialIdeal(n, revlex_segment(n, d, count))
                assert revlex_condition_single_degree(I) == is_revlex_ideal(
                    colex_ideal(I)
                )


def test_single_degree_criterion_hypotheses():
    with pytest.raises(HypothesisViolated):
        revlex_condition_single_degree(ideal(5, "e1e2", "e1e3e4"))
    with pytest.raises(HypothesisViolated):
        revlex_condition_single_degree(ideal(4, "e1e2"))  # d = n-2
