"""The package namespace and the modules each entry point imports.

``import excolex`` loads no submodule; each name resolves on first use to the
object its submodule defines. Each CLI command imports only the modules it
runs, no module imports ``dataclasses``, and ``enumerate`` loads neither
``typing`` nor ``random``. The import checks run fresh
interpreters (``-S``, ``PYTHONPATH`` set to this checkout's ``src``) and read
the modules they load from ``-X importtime``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import excolex
from excolex import verify

SRC = Path(__file__).resolve().parent.parent / "src"

# The export list, by the submodule that defines each name.
EXPORTS = {
    "betti": [
        "BettiTable", "ComparisonVerdict", "compare_betti", "low_index_counts",
        "max_index_domination", "stable_betti_table", "tables_agree",
    ],
    "cartan": ["CartanTables", "cartan_betti", "exact_rank", "rank_mod_p"],
    "colex": [
        "RevlexConditionReport", "colex_ideal", "construction_dict", "greedy_generators",
        "is_revlex_ideal", "is_revlex_segment", "revlex_condition_single_degree",
        "revlex_conditions_two_degrees", "segment_shadow_conditions",
    ],
    "enumeration": [
        "enumerate_proper_ideals", "enumerate_strongly_stable_ideals",
        "enumerate_strongly_stable_sets",
    ],
    "errors": [
        "AmbientCapExceeded", "CampaignTooLarge", "ComponentTooLarge", "ConstructionTooLarge",
        "ContractViolation", "DegreeTooHigh", "FormulaInapplicable", "HypothesisViolated",
        "InsufficientMonomials", "NotARevlexSegment", "OracleTooLarge", "ProfileMismatch",
        "TableTooLarge",
    ],
    "ideals": [
        "MonomialIdeal", "degree_profile", "graded_component", "is_strongly_stable_ideal",
        "is_strongly_stable_ideal_componentwise", "minimalize", "parse_monomial",
    ],
    "monomials": [
        "Monomial", "borel_reductions", "common_degree", "is_stable", "is_strongly_stable",
        "revlex_segment",
    ],
    "verify": [
        "CLAIMS", "VerificationReport", "run_claim", "verify_bound_tables",
        "verify_colex_lower_bound", "verify_green", "verify_minimal_shadow_membership",
        "verify_oracle_agreement", "verify_revlex_characterizations", "verify_shadow_counting",
    ],
}
HEAVY = {"excolex.verify", "excolex.cartan", "excolex.betti", "excolex.colex", "dataclasses"}


def loaded_modules(*args: str) -> set[str]:
    """The modules a fresh ``python -S -X importtime <args>`` imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    } - {"imported package"}


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import excolex"],
        ["-c", "import excolex.cli"],
        ["-c", "import excolex.cli; excolex.cli.build_parser()"],
        ["-m", "excolex.cli", "-h"],
        ["-m", "excolex.cli", "verify", "-h"],
    ],
)
def test_package_and_parser_load_no_campaign_module(args):
    loaded = loaded_modules(*args)
    assert "excolex" in loaded
    assert not loaded & HEAVY


def test_enumerate_loads_only_what_it_runs():
    loaded = loaded_modules("-m", "excolex.cli", "enumerate", "--n", "3", "--ideals")
    ours = {name for name in loaded if name.startswith("excolex")}
    # ``-m`` runs excolex.cli as __main__, outside the import system
    assert ours == {
        "excolex", "excolex.errors", "excolex.monomials", "excolex.ideals", "excolex.enumeration",
    }
    assert "dataclasses" not in loaded


def test_enumerate_probe_loads_neither_typing_nor_random():
    # the bench's enumerate probe; under -S no site module loads them first
    loaded = loaded_modules("-m", "excolex.cli", "enumerate", "--n", "5", "--ideals")
    assert "excolex.enumeration" in loaded
    assert not loaded & {"typing", "random"}


def test_verify_command_never_imports_dataclasses():
    loaded = loaded_modules("-m", "excolex.cli", "verify", "--claim", "example51")
    assert "excolex.verify" in loaded
    assert "dataclasses" not in loaded


def test_submodule_resolves_after_a_bare_import():
    loaded = loaded_modules(
        "-c", "import excolex; assert excolex.cartan.__name__ == 'excolex.cartan'"
    )
    assert "excolex.cartan" in loaded
    assert "excolex.verify" not in loaded


def test_export_list():
    assert sorted(excolex.__all__) == sorted(name for names in EXPORTS.values() for name in names)


def test_each_name_is_its_submodule_object():
    for module, names in EXPORTS.items():
        sub = getattr(excolex, module)
        assert sub.__name__ == f"excolex.{module}"
        for name in names:
            assert getattr(excolex, name) is getattr(sub, name), name


def test_star_import_binds_the_export_list():
    namespace: dict = {}
    exec("from excolex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(excolex.__all__)
    assert all(namespace[name] is getattr(excolex, name) for name in excolex.__all__)


def test_dir_lists_exports_and_submodules():
    listed = dir(excolex)
    assert set(excolex.__all__) <= set(listed)
    assert set(EXPORTS) | {"cli"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        excolex.nonesuch  # noqa: B018
    assert not hasattr(excolex, "verify_everything")


def test_a_patch_seen_while_active_does_not_outlive_its_restore(monkeypatch):
    original = verify.run_claim

    def stand_in(*args, **kwargs):
        raise AssertionError("restored away")

    with monkeypatch.context() as patch:
        patch.setattr(verify, "run_claim", stand_in)
        assert excolex.run_claim is stand_in  # read through the package while patched
    assert verify.run_claim is original
    assert excolex.run_claim is verify.run_claim
