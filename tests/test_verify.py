"""Verification campaigns on reduced bounds, report semantics, determinism."""

import json

import pytest

from excolex import verify
from excolex.errors import ContractViolation
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
    report = verify_oracle_agreement(n_max=3, i_max=3, beta1_target=20, dd_i_max=3)
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

    _, keywords = verify._CAMPAIGNS[claim]
    monkeypatch.setitem(verify._CAMPAIGNS, claim, (recorder, keywords))
    run_claim(claim)
    run_claim(claim, n_max=7, i_max=3)
    run_claim(claim, n_max=9)
    # no bound given, no keyword passed: the defaults live in the signatures
    assert calls[0] == ((), {})
    assert calls[1] == ((), KEYWORDS_AT_7_3[claim])
    # the ideal parts of prop42 and section6 stay capped at 5 and 7
    caps = {"prop42": 5, "section6": 7}
    assert calls[2][1].get("ideal_n_max") == caps.get(claim)
