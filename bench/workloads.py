"""The benchmark's three workloads: inputs, timed operations and output checks.

A workload is a list of operations grouped into three phases. One repetition
runs every operation once; the benchmark times each call and checks each
result afterwards, outside the timed region. Functions are looked up on the
``excolex`` package at call time, so that the traced run's wrappers apply.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Callable, NamedTuple

import excolex as ex

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

# Large enough that the timed oracle calls always run; the default cap refuses
# most of the oracle workload (see ``guard_refusals``).
UNCAPPED = 10**12
PRIME = 32003

PHASES = {
    "campaigns": ("section6", "oracle-agreement", "other-claims"),
    "oracle": ("strands", "seeded", "direct"),
    "enumerate": ("ideals-n7", "sets-n8", "single-degree-ideals-n8"),
}

# Each fixed template is relabelled by a seeded permutation of e1..e9: the
# ideals differ from seed to seed while the oracle's work stays the same size,
# so run-to-run spread measures the machine, not the draw.
SEEDED_TEMPLATES = (
    "e1e5,e2e7,e3e4e9,e6e8e9",
    "e1e2,e3e4,e5e6e7,e2e8e9",
    "e1e9,e2e8,e3e7,e4e5e6,e1e3e5",
    "e4e5,e1e6e7,e2e3e8,e3e6e9,e2e5e7",
)
SEEDED_N = 9

# What the CLI cold-start probe runs for each workload, and its stdin.
CLI_ARGS = {
    "campaigns": (["verify", "--claim", "example51"], None),
    "oracle": (
        ["betti", "--input", "-", "--oracle", "--i-max", "4", "--oracle-i-max", "3"],
        '{"n": 5, "generators": [[1, 2], [1, 3], [2, 3]]}',
    ),
    "enumerate": (["enumerate", "--n", "5", "--ideals"], None),
}


class Op(NamedTuple):
    """One timed call. ``check`` gets its result and every result of the
    repetition by op name, and returns a problem description or None."""

    phase: str
    name: str
    items: int
    run: Callable[[], Any]
    check: Callable[[Any, dict], str | None]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ideal(n: int, texts: str) -> ex.MonomialIdeal:
    return ex.minimalize(n, [ex.Monomial.from_text(t) for t in texts.split(",")])


# --- campaigns -------------------------------------------------------------

def _report_check(key: str) -> Callable[[Any, dict], str | None]:
    want = EXPECTED["reports"][key]

    def check(report, _results) -> str | None:
        if report.status != "verified":
            return f"{key}: status {report.status}"
        if report.instances != want["instances"]:
            return f"{key}: {report.instances} instances, expected {want['instances']}"
        digest = sha256_text(json.dumps(report.as_dict(), sort_keys=True))
        if digest != want["sha256"]:
            return f"{key}: report digest {digest} differs from the recorded one"
        return None

    return check


def _claim_runs() -> dict[str, Callable[[], Any]]:
    """Every claim at its default bounds, and four claims one size up."""
    runs: dict[str, Callable[[], Any]] = {
        claim: (lambda claim=claim: ex.run_claim(claim)) for claim in ex.CLAIMS
    }
    runs["green.up"] = lambda: ex.run_claim("green", n_max=6)
    runs["colex-bound.up"] = lambda: ex.run_claim("colex-bound", n_max=7)
    # run_claim caps the ideal part of prop42 at n <= 5, so call it directly
    runs["prop42.up"] = lambda: ex.verify_shadow_counting(7, 6)
    runs["lemma41.up"] = lambda: ex.run_claim("lemma41", n_max=7)
    return runs


def campaigns(rng: random.Random) -> list[Op]:
    ops = []
    for key, run in _claim_runs().items():
        phase = key if key in ("section6", "oracle-agreement") else "other-claims"
        ops.append(Op(phase, key, EXPECTED["reports"][key]["instances"], run, _report_check(key)))
    rng.shuffle(ops)
    return ops


# --- oracle ----------------------------------------------------------------

def _closed_form_check(I: ex.MonomialIdeal, i_max: int, same_as: str | None = None):
    """The oracle's ideal table equals the closed form, and its quotient table
    equals that of op ``same_as`` (when given and run) up to the smaller cutoff."""
    formula = ex.stable_betti_table(I, i_max - 1)

    def check(tables, results) -> str | None:
        if tables.ideal != formula:
            return "oracle table differs from the closed form"
        if same_as in results:
            other = results[same_as].quotient
            bound = min(other.i_max, tables.quotient.i_max)
            if not ex.tables_agree(tables.quotient, other, bound):
                return f"mod-p table differs from the exact one ({same_as})"
        return None

    return check


def _beta1_check(I: ex.MonomialIdeal):
    def check(tables, _results) -> str | None:
        for j in range(I.n + 2):
            gens = sum(1 for g in I.gens if g.mask.bit_count() == j)
            if tables.quotient.entry(1, j) != gens:
                return f"beta1 at degree {j} is {tables.quotient.entry(1, j)}, not {gens}"
        return None

    return check


def seeded_ideals(rng: random.Random) -> list[ex.MonomialIdeal]:
    """Non-stable ideals over e1..e9: each template under a random relabelling."""
    out = []
    for template in SEEDED_TEMPLATES:
        while True:
            perm = list(range(1, SEEDED_N + 1))
            rng.shuffle(perm)
            gens = [
                ex.Monomial.from_indices(perm[i - 1] for i in ex.Monomial.from_text(t).indices)
                for t in template.split(",")
            ]
            I = ex.minimalize(SEEDED_N, gens)
            if not ex.is_strongly_stable_ideal(I) and I not in out:
                out.append(I)
                break
    return out


def oracle_cases(rng: random.Random) -> list[tuple[str, str, ex.MonomialIdeal, dict, Callable]]:
    """(phase, name, ideal, cartan_betti keywords, check) for every oracle call."""
    cases = []
    triangle = "e1e2,e1e3,e2e3"
    for n in (8, 9, 10):
        I = ideal(n, triangle)
        cases.append(("strands", f"strands-n{n}", I, {"i_max": 6}, _closed_form_check(I, 6)))
    I = ideal(10, triangle)
    cases.append(("strands", "strands-n10-modp", I, {"i_max": 6, "prime": PRIME},
                  _closed_form_check(I, 6, same_as="strands-n10")))
    for k, I in enumerate(seeded_ideals(rng)):
        cases.append(("seeded", f"seeded-{k}", I, {"i_max": 4}, _beta1_check(I)))
    D = ideal(5, "e1e2,e1e3,e2e3,e1e4e5")
    cases.append(("direct", "direct-exact", D, {"i_max": 3, "method": "direct"},
                  _closed_form_check(D, 3)))
    cases.append(("direct", "direct-modp", D, {"i_max": 4, "method": "direct", "prime": PRIME},
                  _closed_form_check(D, 4, same_as="direct-exact")))
    return cases


def oracle(rng: random.Random) -> list[Op]:
    return [
        Op(phase, name, 1,
           lambda I=I, kw=kw: ex.cartan_betti(I, max_cell_dim=UNCAPPED, **kw), check)
        for phase, name, I, kw, check in oracle_cases(rng)
    ]


def guard_refusals(seed: int) -> tuple[int, list[str]]:
    """How many oracle cases the default cap refuses; accepted ones are checked."""
    refused, results = 0, {}
    cases = oracle_cases(random.Random(seed))
    for _phase, name, I, kw, _check in cases:
        try:
            results[name] = ex.cartan_betti(I, **kw)
        except ex.OracleTooLarge:
            refused += 1
    problems = []
    for _phase, name, _I, _kw, check in cases:
        problem = check(results[name], results) if name in results else None
        if problem:
            problems.append(f"{name} at the default cap: {problem}")
    return refused, problems


# --- enumerate -------------------------------------------------------------

def _drain(stream) -> tuple[int, str]:
    """Consume a stream of ideals or sets; count it and digest its masks in order."""
    h = hashlib.sha256()
    count = 0
    for item in stream:
        gens = item.gens if isinstance(item, ex.MonomialIdeal) else item
        h.update(repr([u.mask for u in gens]).encode())
        count += 1
    return count, h.hexdigest()


def _stream_check(key: str):
    want = EXPECTED["streams"][key]

    def check(result, _results) -> str | None:
        count, digest = result
        if count != want["count"]:
            return f"{key}: {count} objects, expected {want['count']}"
        if digest != want["sha256"]:
            return f"{key}: stream digest differs from the recorded one"
        return None

    return check


def _all_sets(n: int):
    for d in range(1, n + 1):
        yield from ex.enumerate_strongly_stable_sets(n, d)


def enumerate_(rng: random.Random) -> list[Op]:
    runs = {
        "ideals-n7": lambda: _drain(ex.enumerate_strongly_stable_ideals(7)),
        "sets-n8": lambda: _drain(_all_sets(8)),
        "single-degree-ideals-n8": lambda: _drain(
            ex.enumerate_strongly_stable_ideals(8, max_degrees=1)
        ),
    }
    ops = [
        Op(key, key, EXPECTED["streams"][key]["count"], run, _stream_check(key))
        for key, run in runs.items()
    ]
    rng.shuffle(ops)
    return ops


WORKLOAD_OPS = {"campaigns": campaigns, "oracle": oracle, "enumerate": enumerate_}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operations, in the order the seed gives them."""
    return WORKLOAD_OPS[workload](random.Random(seed))
