"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every bound and tolerance is pinned here: exhaustive universes are walked in
full, comparisons are exact integer equalities, and runtime ceilings are
asserted against the wall clock. Run with -s to watch the lines stream.
"""

import hashlib
import json
import time

from excolex.cli import main
from excolex.colex import colex_ideal, greedy_generators
from excolex.enumeration import enumerate_strongly_stable_ideals
from excolex.ideals import degree_profile, minimalize
from excolex.monomials import Monomial
from excolex.verify import (
    verify_bound_tables,
    verify_colex_lower_bound,
    verify_green,
    verify_minimal_shadow_membership,
    verify_oracle_agreement,
    verify_revlex_characterizations,
    verify_shadow_counting,
)

M = Monomial.from_text


def ideal(n, *texts):
    return minimalize(n, [M(t) for t in texts])


# SHA-256 of json.dumps(report.as_dict(), sort_keys=True) for each campaign
# at its default bounds: a change that moves any report byte fails here.
REPORT_SHA256 = {
    "green": "1c8a504746ca7c5b3916d481be1bd5de73e3029aa8312a61fa5197efc93a5c68",
    "colex-bound": "0ec8b28ff5ec578345a0ded009131e02ec4155a8e0273ae2faeb1dd3aea119ba",
    "prop42": "65bf7bbb51955c9f5d5f48ac666c6734ccd8400b7c94d5738be34a13e2d5e5e8",
    "lemma41": "7f37474b9f86bac188ada1638de80407f7296bd84b70f1f57cb99c2372a2d7fc",
    "example51": "0020b3f13264c3641ba1f748bd78823ad9d25ec1262afdc4853036f7048ea067",
    "section6": "655e4ed3382ad94955678a5fe6e93a727f420d6c9653aaa5a1a5c5e16fcee622",
    "oracle-agreement": "c465220b570c1598bfdb7a3487ccbedbac5444578b88b8045e6f13f4ad2ac0fe",
}


def assert_same_bytes(rep):
    text = json.dumps(rep.as_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[rep.claim]


def report(number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_1_construction_fidelity(capsys, tmp_path):
    started = time.perf_counter()
    first = tmp_path / "first.json"
    first.write_text(json.dumps({"n": 5, "generators": [[1, 2], [1, 3, 4], [1, 3, 5]]}))
    second = tmp_path / "second.json"
    second.write_text(
        json.dumps(
            {
                "n": 5,
                "generators": [
                    [1, 2], [1, 3], [1, 4], [1, 5], [2, 3, 4], [2, 3, 5], [2, 4, 5]
                ],
            }
        )
    )
    code1 = main(["colex", "--input", str(first)])
    out1 = json.loads(capsys.readouterr().out)
    code2 = main(["colex", "--input", str(second)])
    out2 = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - started
    ok = (
        code1 == 0
        and out1["m"] == 5
        and out1["J"] == {"n": 5, "generators": [[1, 2], [1, 3, 4], [2, 3, 4]]}
        and code2 == 0
        and out2["m"] == 6
        and out2["J"]
        == {
            "n": 6,
            "generators": [
                [1, 2], [1, 3], [2, 3], [1, 4], [2, 4, 5], [3, 4, 5], [2, 4, 6]
            ],
        }
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, "construction fidelity", ok, f"{elapsed:.2f}s")
    assert ok, (out1, out2, elapsed)


def test_criterion_2_bound_tables(capsys):
    started = time.perf_counter()
    rep = verify_bound_tables(i_max=10)
    elapsed = time.perf_counter() - started
    ok = (
        rep.status == "verified"
        and rep.instances == 11
        and any("equal at i in {0,1}" in note for note in rep.notes)
        and elapsed < 5.0
    )
    with capsys.disabled():
        report(2, "eleven curated pairs, both bound directions", ok,
               f"{rep.instances} rows, {elapsed:.2f}s")
    assert ok, rep.as_dict()
    assert_same_bytes(rep)


def test_criterion_3_single_degree_lower_bound(capsys):
    started = time.perf_counter()
    rep = verify_colex_lower_bound(n_max=6, i_max=8)
    elapsed = time.perf_counter() - started
    ok = rep.status == "verified" and elapsed < 180.0
    with capsys.disabled():
        report(3, "single-degree lower bound, exhaustive n<=6, i<=8", ok,
               f"{rep.instances} ideals, {elapsed:.2f}s")
    assert ok, rep.as_dict()
    assert_same_bytes(rep)


def test_criterion_4_green_inequality(capsys):
    started = time.perf_counter()
    rep = verify_green(n_max=5)
    elapsed = time.perf_counter() - started
    ok = rep.status == "verified" and elapsed < 180.0
    with capsys.disabled():
        report(4, "componentwise count inequality, exhaustive n<=5", ok,
               f"{rep.instances} ideals, {elapsed:.2f}s")
    assert ok, rep.as_dict()
    assert_same_bytes(rep)


def test_criterion_5_shadow_property_suites(capsys):
    started = time.perf_counter()
    counting = verify_shadow_counting(n_max=6, ideal_n_max=5)
    membership = verify_minimal_shadow_membership(n_max=6)
    elapsed = time.perf_counter() - started
    ok = counting.status == "verified" and membership.status == "verified"
    with capsys.disabled():
        report(5, "shadow counting and least-member membership, n<=6", ok,
               f"{counting.instances}+{membership.instances} instances, {elapsed:.2f}s")
    assert ok, (counting.as_dict(), membership.as_dict())
    assert_same_bytes(counting)
    assert_same_bytes(membership)


def test_criterion_6_oracle_equivalence(capsys):
    started = time.perf_counter()
    rep = verify_oracle_agreement(n_max=5, i_max=4)
    elapsed = time.perf_counter() - started
    beta1_note = next((n for n in rep.notes if "beta1" in n), "")
    ok = rep.status == "verified" and elapsed < 600.0
    with capsys.disabled():
        report(6, "homology oracle equals closed form (n<=5, i<=4)", ok,
               f"{rep.instances} instances, {elapsed:.2f}s; {beta1_note}")
    assert ok, rep.as_dict()
    assert_same_bytes(rep)


def test_criterion_7_revlex_characterizations(capsys):
    started = time.perf_counter()
    rep = verify_revlex_characterizations(segment_n_max=8, ideal_n_max=7)
    elapsed = time.perf_counter() - started
    ok = rep.status == "verified" and elapsed < 300.0
    with capsys.disabled():
        report(7, "revlex characterizations (segments n<=8, ideals n<=7)", ok,
               f"{rep.instances} instances, {elapsed:.2f}s")
    assert ok, rep.as_dict()
    assert_same_bytes(rep)


def test_criterion_8_ambient_stability(capsys):
    started = time.perf_counter()
    checked = 0
    stable = True
    for n in (4, 5):
        for I in enumerate_strongly_stable_ideals(n):
            J = colex_ideal(I)
            profile = degree_profile(I)
            for extra in (1, 2):
                if greedy_generators(profile, J.n + extra) != J.gens:
                    stable = False
            checked += 1
            if checked >= 100:
                break
        if checked >= 100:
            break
    elapsed = time.perf_counter() - started
    ok = stable and checked >= 100
    with capsys.disabled():
        report(8, "construction unchanged at larger ambients", ok,
               f"{checked} inputs, {elapsed:.2f}s")
    assert ok
