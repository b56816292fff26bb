"""Command-line surface: subcommands, JSON shapes, exit codes."""

import json
import signal
from contextlib import contextmanager

import pytest

from excolex.cli import main


def write_ideal(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def ex_small(tmp_path):
    return write_ideal(
        tmp_path, "small.json", {"n": 5, "generators": [[1, 2], [1, 3, 4], [1, 3, 5]]}
    )


@pytest.fixture
def ex_extending(tmp_path):
    return write_ideal(
        tmp_path,
        "extending.json",
        {
            "n": 5,
            "generators": [
                [1, 2], [1, 3], [1, 4], [1, 5], [2, 3, 4], [2, 3, 5], [2, 4, 5]
            ],
        },
    )


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_colex_first_example(capsys, ex_small):
    code, out, _ = run(capsys, "colex", "--input", ex_small)
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 5
    assert data["J"] == {"n": 5, "generators": [[1, 2], [1, 3, 4], [2, 3, 4]]}
    assert data["steps"][0] == {"degree": 2, "chosen": [[1, 2]]}


def test_colex_extends_the_ambient(capsys, ex_extending):
    code, out, _ = run(capsys, "colex", "--input", ex_extending)
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 6
    assert data["J"]["generators"] == [
        [1, 2], [1, 3], [2, 3], [1, 4], [2, 4, 5], [3, 4, 5], [2, 4, 6]
    ]


def test_colex_cap_exhaustion_is_resource_exit(capsys, ex_extending):
    code, _, err = run(capsys, "colex", "--input", ex_extending, "--m-cap", "5")
    assert code == 3
    assert "incomplete" in err


def test_text_generators_need_the_flag(capsys, tmp_path):
    path = write_ideal(
        tmp_path, "text.json", {"n": 5, "generators": ["e1e2", "e1e3e4", "e1e3e5"]}
    )
    code, _, err = run(capsys, "colex", "--input", path)
    assert code == 2
    assert "text" in err
    code, out, _ = run(capsys, "colex", "--input", path, "--text")
    assert code == 0
    assert json.loads(out)["m"] == 5


def test_betti_formula_only(capsys, ex_small):
    code, out, _ = run(capsys, "betti", "--input", ex_small, "--i-max", "2")
    assert code == 0
    data = json.loads(out)
    assert data["subject"] == "ideal"
    assert data["rows"][0] == {"i": 0, "by_j": {"2": 1, "3": 2}, "total": 3}


def test_betti_with_oracle(capsys, ex_small):
    code, out, _ = run(
        capsys, "betti", "--input", ex_small, "--i-max", "6", "--oracle",
        "--oracle-i-max", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["agreement"] is True
    assert data["agreement_i_max"] == 3
    assert data["oracle"]["quotient"]["subject"] == "quotient"
    assert data["formula"]["i_max"] == 6


def test_betti_rejects_non_stable_input(capsys, tmp_path):
    path = write_ideal(tmp_path, "bad.json", {"n": 3, "generators": [[2, 3]]})
    code, _, err = run(capsys, "betti", "--input", path)
    assert code == 2
    assert "strongly stable" in err


def test_betti_oracle_stands_in_for_the_closed_form(capsys, tmp_path):
    five_cycle = {"n": 5, "generators": [[1, 2], [1, 3], [2, 4], [3, 5], [4, 5]]}
    path = write_ideal(tmp_path, "cycle.json", five_cycle)
    code, _, err = run(capsys, "betti", "--input", path)
    assert code == 2
    assert "closed form needs a strongly stable ideal" in err
    code, out, _ = run(capsys, "betti", "--input", path, "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["formula"] is None
    assert data["agreement"] is None
    assert data["agreement_i_max"] == 4
    totals = [row["total"] for row in data["oracle"]["ideal"]["rows"]]
    assert totals == [5, 15, 31, 55, 90]  # the colex construction gives 5, 16, 35, 64, 105


def test_compare(capsys, tmp_path, ex_small):
    right = write_ideal(
        tmp_path, "right.json", {"n": 5, "generators": [[1, 2], [1, 3, 4], [2, 3, 4]]}
    )
    code, out, _ = run(
        capsys, "compare", "--left", ex_small, "--right", right, "--i-max", "10"
    )
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "LowerBoundAllChecked"
    assert data["domination"] is True
    assert data["i_max"] == 10


def test_verify_writes_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--claim", "example51", "--json", str(out_path)
    )
    assert code == 0
    stdout_report = json.loads(out)
    file_report = json.loads(out_path.read_text())
    assert stdout_report == file_report
    assert file_report["status"] == "verified"
    assert file_report["instances"] == 11


def test_verify_small_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "lemma41", "--n-max", "3")
    assert code == 0
    assert json.loads(out)["status"] == "verified"


def test_enumerate_sets(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--d", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    assert {"n": 3, "d": 2, "monomials": [[1, 2]]} in lines


def test_enumerate_ideals(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--ideals")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    assert {"n": 2, "generators": [[1]]} in lines
    assert {"n": 2, "generators": [[1], [2]]} in lines
    assert {"n": 2, "generators": [[1, 2]]} in lines


def test_enumerate_single_degree_ideals(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--d", "2", "--ideals")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3


def test_enumerate_sets_need_degree(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "3")
    assert code == 2
    assert "--d" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "70", "--d", "1"],
        ["--n", "0", "--d", "1"],
        ["--n", "70", "--ideals"],
        ["--n", "4", "--d", "0"],
        ["--n", "4", "--d", "5"],
        ["--n", "4", "--d", "5", "--ideals"],
    ],
)
def test_enumerate_bounds_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, "enumerate", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


def test_json_boolean_index_is_usage_error(capsys, tmp_path):
    path = write_ideal(tmp_path, "bool.json", {"n": 3, "generators": [[True, 2]]})
    code, out, err = run(capsys, "colex", "--input", path)
    assert code == 2
    assert out == ""
    assert err


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO('{"n": 3, "generators": [[1, 2]]}')
    )
    code, out, _ = run(capsys, "colex", "--input", "-")
    assert code == 0
    assert json.loads(out)["m"] == 3


def test_malformed_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "colex", "--input", str(path))
    assert code == 2
    assert err


def test_generators_not_a_list_is_usage_error(capsys, tmp_path):
    path = write_ideal(tmp_path, "scalar.json", {"n": 3, "generators": 5})
    code, out, err = run(capsys, "colex", "--input", path)
    assert code == 2
    assert not out and err


def test_undecodable_input_is_usage_error(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"n": 3, "generators": [[1, 2]], "note": "\xff"}')
    code, out, err = run(capsys, "colex", "--input", str(path))
    assert code == 2
    assert not out and err


def test_deeply_nested_input_is_usage_error(capsys, tmp_path):
    # the JSON decoder recurses once per array, so this depth exhausts its stack
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"n": 3, "generators": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run(capsys, "colex", "--input", str(path))
    assert code == 2
    assert not out and "nested too deeply" in err


def nested(depth):
    entry = []
    for _ in range(depth - 1):
        entry = [entry]
    return entry


@pytest.mark.parametrize(
    "entry, flags", [(nested(500), ()), ("e1" + "x" * 3000, ("--text",))],
    ids=["nested-entry", "long-text-entry"],
)
def test_error_clips_the_echoed_entry(capsys, tmp_path, entry, flags):
    path = write_ideal(tmp_path, "bad.json", {"n": 3, "generators": [entry]})
    code, out, err = run(capsys, "colex", "--input", path, *flags)
    assert code == 2
    assert not out and err.startswith("error: ") and len(err) < 200


def test_overlong_integer_literal_is_usage_error(capsys, tmp_path):
    # the decoder refuses integer literals over 4300 digits with a ValueError
    path = tmp_path / "huge.json"
    path.write_text('{"n": ' + "9" * 5000 + ', "generators": [[1]]}')
    code, out, err = run(capsys, "colex", "--input", str(path))
    assert code == 2
    assert not out and err.startswith("error: ") and len(err) < 200


HUGE = "9" * 4000
NEGATIVE = "-" + "9" * 3000
UNPARSABLE = "9" * 5000  # past the interpreter's 4300-digit limit for int()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", HUGE],
        ["enumerate", "--n", "4", "--d", HUGE],
        ["colex", "--input", "{ideal}", "--m-cap", NEGATIVE],
        ["verify", "--claim", "lemma41", "--n-max", NEGATIVE],
        ["verify", "--claim", "lemma41", "--i-max", NEGATIVE],
        ["betti", "--input", "{ideal}", "--i-max", NEGATIVE],
        ["compare", "--left", "{ideal}", "--right", "{ideal}", "--i-max", NEGATIVE],
        ["betti", "--input", "{ideal}", "--oracle", "--field", HUGE],
        ["enumerate", "--n", UNPARSABLE],
        ["enumerate", "--n", "4", "--d", UNPARSABLE],
        ["colex", "--input", "{ideal}", "--m-cap", UNPARSABLE],
        ["verify", "--claim", "lemma41", "--n-max", UNPARSABLE],
        ["verify", "--claim", "lemma41", "--i-max", UNPARSABLE],
        ["betti", "--input", "{ideal}", "--i-max", UNPARSABLE],
        ["betti", "--input", "{ideal}", "--oracle", "--oracle-i-max", UNPARSABLE],
        ["compare", "--left", "{ideal}", "--right", "{ideal}", "--i-max", UNPARSABLE],
        ["betti", "--input", "{ideal}", "--oracle", "--field", UNPARSABLE],
        ["verify", "--claim", "x" * 3000],
    ],
    ids=["enumerate-n", "enumerate-d", "colex-m-cap", "verify-n-max", "verify-i-max",
         "betti-i-max", "compare-i-max", "betti-field",
         "unparsable-enumerate-n", "unparsable-enumerate-d", "unparsable-colex-m-cap",
         "unparsable-verify-n-max", "unparsable-verify-i-max", "unparsable-betti-i-max",
         "unparsable-betti-oracle-i-max", "unparsable-compare-i-max",
         "unparsable-betti-field", "verify-claim"],
)
def test_error_clips_an_echoed_command_line_integer(capsys, ex_small, argv):
    code, out, err = run(capsys, *(ex_small if a == "{ideal}" else a for a in argv))
    assert code == 2
    assert not out and err.startswith("error: ") and len(err) < 200


def test_composite_field_is_usage_error(capsys, ex_small):
    code, out, err = run(capsys, "betti", "--input", ex_small, "--oracle", "--field", "4")
    assert code == 2
    assert not out and "prime" in err


@pytest.mark.parametrize("bound", [["--n-max", "0"], ["--n-max", "-1"], ["--i-max", "-1"]])
def test_verify_bounds_out_of_range_are_usage_errors(capsys, bound):
    code, out, err = run(capsys, "verify", "--claim", "lemma41", *bound)
    assert code == 2
    assert not out and err


def test_claim_metavar_copy_matches_the_campaigns():
    from excolex import cli, verify

    assert cli.CLAIM_NAMES == verify.CLAIMS


def test_unknown_claim_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--claim", "made-up"])
    assert exc.value.code == 2


def test_counterexample_report_maps_to_exit_one(capsys, monkeypatch):
    from excolex.verify import VerificationReport

    def falsified(claim, n_max=None, i_max=None):
        return VerificationReport(claim, {}, 1, failures=[{"witness": "x"}])

    monkeypatch.setattr("excolex.verify.run_claim", falsified)
    code, out, _ = run(capsys, "verify", "--claim", "green")
    assert code == 1
    assert json.loads(out)["status"] == "counterexample"


@contextmanager
def deadline(seconds):
    """Fail the block, by interrupting it, once it has run ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--input", "{ideal}"],
        ["compare", "--left", "{ideal}", "--right", "{ideal}"],
        ["verify", "--claim", "example51"],
        ["verify", "--claim", "oracle-agreement"],
    ],
    ids=["betti", "compare", "verify-example51", "verify-oracle-agreement"],
)
def test_closed_form_table_cap_is_resource_exit(capsys, ex_small, argv):
    argv = [ex_small if a == "{ideal}" else a for a in argv] + ["--i-max", "1000000000"]
    with deadline(1.0):
        code, out, err = run(capsys, *argv)
    assert code == 3
    assert not out and "cells" in err


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
@pytest.mark.parametrize(
    "claim, n_max", [("green", "99999999999999999999999"), ("section6", "40")],
)
def test_campaign_above_its_ceiling_is_resource_exit(capsys, claim, n_max):
    with deadline(1.0):
        code, out, err = run(capsys, "verify", "--claim", claim, "--n-max", n_max)
    assert code == 3
    assert not out and err.startswith("error: ") and err.count("\n") == 1
    assert "ceiling" in err


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_oracle_strand_guard_is_resource_exit(capsys, tmp_path):
    # every chain space past degree 0 is empty, but the LCM lattice is all
    # 2^16 supports, 3^16 subsets for the strands to walk
    variables = {"n": 16, "generators": [[k] for k in range(1, 17)]}
    path = write_ideal(tmp_path, "variables.json", variables)
    with deadline(1.0):
        code, out, err = run(capsys, "betti", "--input", path, "--oracle")
    assert code == 3
    assert not out and "LCM lattice" in err


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_oracle_strand_guard_admits_desk_time_only(capsys, tmp_path):
    # one support of size s has s 2^(s-1) boundary entries: s = 12 is the
    # largest under the default cap, and its ranks fill in most of the work
    for s, expected in ((12, 0), (13, 3), (15, 3)):
        single = {"n": s, "generators": [list(range(1, s + 1))]}
        path = write_ideal(tmp_path, f"single{s}.json", single)
        with deadline(5.0):
            code, _, err = run(capsys, "betti", "--input", path, "--oracle", "--i-max", "2")
        assert code == expected, err


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_colex_stops_at_the_last_pick(capsys, tmp_path):
    # the degree-16 component over n = 32 has C(32, 16) monomials; the first is the pick
    single = {"n": 32, "generators": [list(range(1, 17))]}
    path = write_ideal(tmp_path, "half.json", single)
    with deadline(1.0):
        code, out, _ = run(capsys, "colex", "--input", path)
    assert code == 0
    result = json.loads(out)
    assert result["m"] == 32 and result["J"]["generators"] == [list(range(1, 17))]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_colex_scan_guard_refuses_long_scans(capsys, tmp_path):
    # (e1, ..., ek, e(k+1)...en) and every quadratic over e1..ek plus e(k+1)...en:
    # valid inputs whose last pick lies hundreds of millions of masks into its
    # component; the scan budget refuses both in about a second
    for n in (31, 32):
        k = (n - 1) // 2
        linear = [[i] for i in range(1, k + 1)] + [list(range(k + 1, n + 1))]
        k = n // 2
        quadratic = [[a, b] for b in range(2, k + 1) for a in range(1, b)]
        quadratic.append(list(range(k + 1, n + 1)))
        for name, gens in (("linear", linear), ("quadratic", quadratic)):
            path = write_ideal(tmp_path, f"{name}{n}.json", {"n": n, "generators": gens})
            with deadline(5.0):
                code, out, err = run(capsys, "colex", "--input", path)
            assert code == 3 and not out, (name, n)
            assert "construction scan passes" in err
