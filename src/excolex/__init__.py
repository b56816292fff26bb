"""Colexsegment ideals, Betti tables, and desk-scale verification campaigns
for squarefree monomial ideals in an exterior algebra.

The namespace is lazy (PEP 562): ``import excolex`` loads no submodule, and
the first use of an exported name imports the submodule that defines it.
"""

import sys

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "betti": (
        "BettiTable",
        "ComparisonVerdict",
        "compare_betti",
        "low_index_counts",
        "max_index_domination",
        "stable_betti_table",
        "tables_agree",
    ),
    "cartan": ("CartanTables", "cartan_betti", "exact_rank", "rank_mod_p"),
    "colex": (
        "RevlexConditionReport",
        "colex_ideal",
        "construction_dict",
        "greedy_generators",
        "is_revlex_ideal",
        "is_revlex_segment",
        "revlex_condition_single_degree",
        "revlex_conditions_two_degrees",
        "segment_shadow_conditions",
    ),
    "enumeration": (
        "enumerate_proper_ideals",
        "enumerate_strongly_stable_ideals",
        "enumerate_strongly_stable_sets",
    ),
    "errors": (
        "AmbientCapExceeded",
        "CampaignTooLarge",
        "ComponentTooLarge",
        "ConstructionTooLarge",
        "ContractViolation",
        "DegreeTooHigh",
        "FormulaInapplicable",
        "HypothesisViolated",
        "InsufficientMonomials",
        "NotARevlexSegment",
        "OracleTooLarge",
        "ProfileMismatch",
        "TableTooLarge",
    ),
    "ideals": (
        "MonomialIdeal",
        "degree_profile",
        "graded_component",
        "is_strongly_stable_ideal",
        "is_strongly_stable_ideal_componentwise",
        "minimalize",
        "parse_monomial",
    ),
    "monomials": (
        "Monomial",
        "borel_reductions",
        "common_degree",
        "is_stable",
        "is_strongly_stable",
        "revlex_segment",
    ),
    "verify": (
        "CLAIMS",
        "VerificationReport",
        "run_claim",
        "verify_bound_tables",
        "verify_colex_lower_bound",
        "verify_green",
        "verify_minimal_shadow_membership",
        "verify_oracle_agreement",
        "verify_revlex_characterizations",
        "verify_shadow_counting",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli")
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _load(qualified: str):
    module = sys.modules.get(qualified)
    if module is None:
        # __import__ rather than importlib: it loads no extra module, and
        # ``-X importtime`` reports the import; it also binds the submodule here
        __import__(qualified)
        module = sys.modules[qualified]
    return module


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        if name in _SUBMODULES:
            return _load(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(home), name)
    # A function is looked up in its submodule on every access, so a patched or
    # traced replacement there is the one seen here, and none outlives its
    # restore; classes and constants are bound on first use.
    if not callable(value) or isinstance(value, type):
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})
