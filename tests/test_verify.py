"""Verification campaigns on reduced bounds, report semantics, determinism."""

import json

import pytest

from excolex import verify
from excolex.betti import BettiTable, compare_betti, stable_betti_table
from excolex.colex import colex_ideal, construction_dict
from excolex.enumeration import _two_degree_sets
from excolex.errors import CampaignTooLarge, ContractViolation, HypothesisViolated
from excolex.ideals import MonomialIdeal, degree_profile, graded_component
from excolex.monomials import Monomial
from excolex.verify import (
    CLAIMS,
    VerificationReport,
    run_claim,
    verify_bound_tables,
    verify_colex_lower_bound,
    verify_green,
    verify_minimal_shadow_membership,
    verify_oracle_agreement,
    verify_revlex_characterizations,
    verify_shadow_counting,
)


def test_report_status_semantics():
    r = VerificationReport("demo", {}, 0)
    assert r.status == "skipped"
    r.instances = 3
    assert r.status == "verified"
    r.failures.append({"boom": 1})
    assert r.status == "counterexample"
    assert r.as_dict() == {
        "claim": "demo", "universe": {}, "instances": 3,
        "failures": [{"boom": 1}], "notes": [], "status": "counterexample",
    }
    assert list(r.as_dict()) == ["claim", "universe", "instances", "failures", "notes", "status"]


def test_green_small():
    report = verify_green(n_max=4)
    assert report.status == "verified"
    assert report.instances == 37  # all ideals with n <= 4, <= 2 degrees

def test_colex_lower_bound_small():
    report = verify_colex_lower_bound(n_max=5, i_max=6)
    assert report.status == "verified"
    assert report.instances > 0


def test_shadow_counting_small():
    report = verify_shadow_counting(n_max=4, ideal_n_max=3)
    assert report.status == "verified"


def test_minimal_shadow_membership_small():
    report = verify_minimal_shadow_membership(n_max=4)
    assert report.status == "verified"


def test_bound_tables():
    report = verify_bound_tables()
    assert report.status == "verified"
    assert report.instances == 11
    # the observed low-degree equalities in the upper rows are surfaced
    assert any("equal at i in {0,1}" in note for note in report.notes)


def test_revlex_characterizations_small():
    report = verify_revlex_characterizations(segment_n_max=6, ideal_n_max=6)
    assert report.status == "verified"


def test_oracle_agreement_small():
    report = verify_oracle_agreement(n_max=3, i_max=3)
    assert report.status == "verified"
    assert any("beta1 universe" in note for note in report.notes)


def test_reports_serialize_deterministically():
    a = json.dumps(verify_bound_tables().as_dict(), sort_keys=True)
    b = json.dumps(verify_bound_tables().as_dict(), sort_keys=True)
    assert a == b
    payload = json.loads(a)
    assert set(payload) == {
        "claim", "universe", "instances", "failures", "notes", "status",
    }


def test_run_claim_dispatch():
    report = run_claim("example51")
    assert report.claim == "example51"
    assert report.status == "verified"
    with pytest.raises(ContractViolation):
        run_claim("nonsense")
    assert set(CLAIMS) == {
        "green",
        "colex-bound",
        "prop42",
        "lemma41",
        "example51",
        "section6",
        "oracle-agreement",
    }


def test_run_claim_bounds_pass_through():
    report = run_claim("lemma41", n_max=3)
    assert report.universe == {"n_max": 3}
    assert report.status == "verified"


def test_run_claim_honours_explicit_bounds():
    assert run_claim("example51", i_max=2).universe["i_max"] == 2
    assert run_claim("green", n_max=1).universe["n_max"] == 1
    assert run_claim("colex-bound", n_max=2, i_max=0).universe == {
        "n_max": 2, "degrees": 1, "i_max": 0,
    }
    assert run_claim("prop42", n_max=7).universe["ideal_n_max"] == 5
    assert run_claim("lemma41").universe == {"n_max": 6}


@pytest.mark.parametrize("bounds", [{"n_max": 0}, {"n_max": -1}, {"i_max": -1}])
def test_run_claim_rejects_bounds_out_of_range(bounds):
    with pytest.raises(ContractViolation):
        run_claim("lemma41", **bounds)


@pytest.mark.parametrize("i_max", [0, 1])
def test_bound_tables_refuse_a_window_below_the_strict_range(i_max):
    # the upper rows are strict only from i = 2, so a smaller window would
    # report their equal totals as a counterexample
    with pytest.raises(ContractViolation):
        run_claim("example51", i_max=i_max)


# the keywords each campaign gets from run_claim(claim, n_max=7, i_max=3), in
# the order of CLAIMS, which is the order of --claim's choices and the README
KEYWORDS_AT_7_3 = {
    "green": {"n_max": 7},
    "colex-bound": {"n_max": 7, "i_max": 3},
    "prop42": {"n_max": 7, "ideal_n_max": 5},
    "lemma41": {"n_max": 7},
    "example51": {"i_max": 3},
    "section6": {"segment_n_max": 7, "ideal_n_max": 7},
    "oracle-agreement": {"n_max": 7, "i_max": 3},
}


@pytest.mark.parametrize("claim", CLAIMS)
def test_claim_table_maps_bounds_to_keywords(claim, monkeypatch):
    assert CLAIMS == tuple(KEYWORDS_AT_7_3)
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return VerificationReport(claim, {}, 0)

    _, keywords, ceiling = verify._CAMPAIGNS[claim]
    monkeypatch.setitem(verify._CAMPAIGNS, claim, (recorder, keywords, ceiling))
    run_claim(claim)
    run_claim(claim, n_max=7, i_max=3)
    run_claim(claim, n_max=9)
    # no bound given, no keyword passed: the defaults live in the signatures
    assert calls[0] == ((), {})
    assert calls[1] == ((), KEYWORDS_AT_7_3[claim])
    # the ideal parts of prop42 and section6 stay capped at 5 and 7
    caps = {"prop42": 5, "section6": 7}
    assert calls[2][1].get("ideal_n_max") == caps.get(claim)


# every claim that reads n admits n_max = 9: past each size the CI workflow
# pins by report digest (section6 9, the others 6 to 8) and the next sizes to
# pin (green 8, colex-bound 9)
ADMITTED_N_MAX = 9


@pytest.mark.parametrize("claim", CLAIMS)
def test_run_claim_refuses_a_size_above_the_ceiling_before_any_work(claim, monkeypatch):
    _, keywords, ceiling = verify._CAMPAIGNS[claim]
    if ceiling is None:  # only example51 ignores n
        assert claim == "example51"
        return

    def forbidden(**kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setitem(verify._CAMPAIGNS, claim, (forbidden, keywords, ceiling))
    assert ceiling >= ADMITTED_N_MAX
    for n_max in (ceiling + 1, 10**22):
        with pytest.raises(CampaignTooLarge, match=f"n_max = {n_max} is above its ceiling {ceiling}"):
            run_claim(claim, n_max=n_max)


@pytest.mark.parametrize(
    "campaign, keys",
    [(lambda: verify_colex_lower_bound(6), 120), (lambda: verify_green(5), 122)],
    ids=["colex-bound", "green"],
)
def test_each_call_builds_one_construction_per_profile(monkeypatch, campaign, keys):
    built = []  # the (n, profile) of every construction built
    real = verify.colex_ideal

    def spy(I, *args, **kwargs):
        built.append((I.n, degree_profile(I)))
        return real(I, *args, **kwargs)

    monkeypatch.setattr(verify, "colex_ideal", spy)
    first = campaign()
    assert len(built) == len(set(built)) == keys
    # nothing carries over: a second call builds every construction again
    second = campaign()
    assert built[keys:] == built[:keys]
    assert second.as_dict() == first.as_dict()


def test_section6_builds_one_ideal_per_profile(monkeypatch):
    # the two-degree part walks 3482 sets at its defaults but builds and checks
    # one ideal per (n, profile); with no failure, it builds nothing more
    walked = sum(1 for n in (5, 6, 7) for _ in _two_degree_sets(n, 2 if n == 7 else None))
    built, checked = [], []  # the (n, profile) of each two-degree ideal built, checked
    real_build, real_check = verify._derived_ideal, verify.revlex_conditions_two_degrees

    def build(n, gens):
        I = real_build(n, gens)
        if len(profile := degree_profile(I)) == 2:
            built.append((n, profile))
        return I

    def check(I):
        checked.append((I.n, degree_profile(I)))
        return real_check(I)

    monkeypatch.setattr(verify, "_derived_ideal", build)
    monkeypatch.setattr(verify, "revlex_conditions_two_degrees", check)
    first = verify_revlex_characterizations()
    keys = 686
    assert walked == 3482
    assert len(built) == len(set(built)) == keys
    assert checked == built
    # nothing carries over: a second call builds and checks every key again
    second = verify_revlex_characterizations()
    assert built[keys:] == built[:keys]
    assert checked == built
    assert second.as_dict() == first.as_dict()


def _busiest_key(ideals):
    """The (n, profile) shared by the most ideals, and those ideals."""
    by_key: dict = {}
    for I in ideals:
        by_key.setdefault((I.n, degree_profile(I)), []).append(I)
    return max(by_key.items(), key=lambda item: len(item[1]))


def test_section6_failure_stays_per_ideal(monkeypatch):
    bounds = {"segment_n_max": 6, "ideal_n_max": 6}
    clean = verify_revlex_characterizations(**bounds)
    real = verify.revlex_conditions_two_degrees

    def in_hypothesis(I):
        try:
            real(I)
        except HypothesisViolated:
            return False
        return True

    walked = (
        MonomialIdeal(n, [*mset, *extra])
        for n in (5, 6) for mset, extra in _two_degree_sets(n, 2 if n == 6 else None)
    )
    ideals = [I for I in walked if in_hypothesis(I)]
    key, hit = _busiest_key(ideals)

    def flipped(I):
        rep = real(I)
        if (I.n, degree_profile(I)) == key:
            return rep._replace(is_revlex=not rep.is_revlex)
        return rep

    monkeypatch.setattr(verify, "revlex_conditions_two_degrees", flipped)
    report = verify_revlex_characterizations(**bounds)
    # the failures are those of checking every ideal on its own
    expected = [
        {"case": "two degrees", "ideal": I.as_dict(), "report": flipped(I).as_dict()}
        for I in hit
    ]
    assert report.failures == expected
    assert len({f["report"]["dim_d2"] for f in expected}) > 1  # each ideal's own dim_d2
    assert report.instances == clean.instances


def test_construction_payloads_carry_the_colex_json(monkeypatch):
    # each curated ideal's expected generators, but over n = 6: every example51
    # row and the n = 5 section6 reference fail on the ambient alone
    expected = {
        verify._ideal_from_texts(5, i_text): verify._ideal_from_texts(5, j_text)
        for _, i_text, j_text in verify.BOUND_TABLE_ROWS
    }
    real = verify.colex_ideal

    def over_six(I, *args, **kwargs):
        J = expected.get(I)
        return real(I, *args, **kwargs) if J is None else MonomialIdeal(6, J.gens)

    monkeypatch.setattr(verify, "colex_ideal", over_six)
    report = verify_bound_tables()
    assert len(report.failures) == len(verify.BOUND_TABLE_ROWS)
    for failure in report.failures:
        J = MonomialIdeal(6, MonomialIdeal.from_dict(failure["expected"]).gens)
        assert "construction mismatch" in failure["problems"]
        assert failure["got"] == construction_dict(J) and failure["got"]["m"] == 6
    # the revlex reference is the ninth curated ideal; the n = 6 one keeps its construction
    report = verify_revlex_characterizations(segment_n_max=4, ideal_n_max=5)
    J = MonomialIdeal(6, verify._ideal_from_texts(5, "e1e2,e1e3,e2e3,e1e4e5").gens)
    reference = [f for f in report.failures if f["case"].startswith("reference")]
    assert reference == [{"case": "reference revlex", "got": construction_dict(J)}]


def test_colex_bound_failure_stays_per_ideal(monkeypatch):
    i_max = 6
    clean = verify_colex_lower_bound(5, i_max)
    key, hit = _busiest_key(verify._stable_ideals(5, max_degrees=1))

    def inflated(J, i):
        # raise the construction's i = 0 total, so that it exceeds the ideal's
        table = stable_betti_table(J, i)
        if (J.n, degree_profile(J)) != key:
            return table
        entries = dict(table.entries)
        entries[0, J.indeg] += 1
        return BettiTable(table.subject, table.i_max, entries)

    monkeypatch.setattr(verify, "stable_betti_table", inflated)
    report = verify_colex_lower_bound(5, i_max)
    expected = []
    for I in hit:
        J = colex_ideal(I)
        verdict = compare_betti(I, J, i_max, table_j=inflated(J, i_max))
        expected.append({
            "ideal": I.as_dict(),
            "construction": J.as_dict(),
            "verdict": verdict.as_dict(),
            "domination": verdict.domination,
        })
    assert report.failures == expected
    assert len({str(f["verdict"]) for f in expected}) > 1  # each ideal's own verdict
    assert report.instances == clean.instances


def test_green_failure_stays_per_ideal(monkeypatch):
    clean = verify_green(5)
    key, hit = _busiest_key(verify._stable_ideals(5))
    J = colex_ideal(hit[0])  # the construction of every ideal with this key

    def listed(X, t, p):
        component = graded_component(MonomialIdeal(J.n, X.gens), t)
        return sum(u.mask < 1 << p for u in component)

    # the first cell where the ideals' own counts differ; the construction's
    # count there drops just below the least of them, so each ideal fails once
    cells = [(t, p) for t in range(J.indeg, J.n + 1) for p in range(t, J.n + 1)]
    cell = next(c for c in cells if len({listed(I, *c) for I in hit}) > 1)
    floor = min(listed(I, *cell) for I in hit) - 1
    assert floor < listed(J, *cell)
    real = verify.low_index_counts

    def dropping(X, t, big):
        counts = real(X, t, big)
        if X == J:
            counts = {**counts, cell: floor}
        return counts

    monkeypatch.setattr(verify, "low_index_counts", dropping)
    report = verify_green(5)
    expected = [
        {
            "ideal": I.as_dict(),
            "construction": J.as_dict(),
            "t": cell[0],
            "p": cell[1],
            "lhs": listed(I, *cell),
            "rhs": floor,
        }
        for I in hit
    ]
    assert report.failures == expected
    assert len({f["lhs"] for f in expected}) > 1  # each ideal's own count
    assert report.instances == clean.instances


def _fed(monkeypatch, sets=(), ideals=()):
    """Feed the shadow campaigns fixed, deliberately non-stable inputs: the
    single-degree stream yields ``sets``, the two-degree one ``ideals``."""
    M = Monomial.from_text
    sets = [MonomialIdeal(n, list(map(M, texts))) for n, texts in sets]
    ideals = [MonomialIdeal(n, list(map(M, texts))) for n, texts in ideals]
    monkeypatch.setattr(
        verify, "_stable_ideals",
        lambda n_max, max_degrees=2: iter(sets if max_degrees == 1 else ideals),
    )


def test_shadow_counting_failure_payloads(monkeypatch):
    _fed(
        monkeypatch,
        sets=[(3, ["e1e3", "e2e3"]), (4, ["e1e2", "e3e4"])],
        ideals=[(2, ["e2"]), (4, ["e1", "e3"])],
    )
    report = verify_shadow_counting()
    one_three = {"n": 4, "generators": [[1], [3]]}
    assert report.instances == 4
    assert report.failures == [
        {"n": 3, "set": ["e1e3", "e2e3"], "shadow_size": 1, "expected": 0},
        {"n": 4, "set": ["e1e2", "e3e4"], "shadow_size": 4, "expected": 2},
        {"ideal": {"n": 2, "generators": [[2]]}, "t": 1, "p": 2,
         "combined": ["e1e2"], "union": []},
        {"ideal": one_three, "t": 1, "p": 3,
         "combined": ["e1e2", "e1e3", "e2e3"], "union": ["e1e2", "e1e3"]},
        # sorted as text: e1e4 before e2e3, though its mask is larger
        {"ideal": one_three, "t": 1, "p": 4,
         "combined": ["e1e2", "e1e3", "e1e4", "e2e3", "e3e4"],
         "union": ["e1e2", "e1e3", "e1e4", "e3e4"]},
    ]


def test_minimal_shadow_membership_failure_payloads(monkeypatch):
    # e2e3 is least in the first set and its one product stays; e3e4 is least
    # in the second, and neither e1e3e4 nor e2e3e4 is in the shadow of e1e2
    _fed(monkeypatch, sets=[(3, ["e1e3", "e2e3"]), (4, ["e1e2", "e3e4"])])
    report = verify_minimal_shadow_membership()
    assert report.instances == 2
    assert report.failures == [
        {"n": 4, "set": ["e1e2", "e3e4"], "tau": "e3e4", "i": i,
         "in_shadow": False, "expected": True}
        for i in (1, 2)
    ]
