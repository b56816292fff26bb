"""Colexsegment ideals, Betti tables, and desk-scale verification campaigns
for squarefree monomial ideals in an exterior algebra."""

from .betti import (
    BettiTable,
    ComparisonVerdict,
    compare_betti,
    low_index_counts,
    max_index_domination,
    stable_betti_table,
    tables_agree,
)
from .cartan import (
    CartanTables,
    cartan_betti,
    chain_space,
    exact_rank,
    rank_mod_p,
)
from .colex import (
    RevlexConditionReport,
    colex_ideal,
    construction_dict,
    greedy_generators,
    is_revlex_ideal,
    is_revlex_segment,
    revlex_condition_single_degree,
    revlex_conditions_two_degrees,
    segment_shadow_conditions,
)
from .enumeration import (
    enumerate_proper_ideals,
    enumerate_strongly_stable_ideals,
    enumerate_strongly_stable_sets,
)
from .errors import (
    AmbientCapExceeded,
    ConstructionTooLarge,
    ContractViolation,
    DegreeTooHigh,
    FormulaInapplicable,
    HypothesisViolated,
    InsufficientMonomials,
    NotARevlexSegment,
    OracleTooLarge,
    ProfileMismatch,
    TableTooLarge,
)
from .ideals import (
    MonomialIdeal,
    degree_profile,
    graded_component,
    is_strongly_stable_ideal,
    is_strongly_stable_ideal_componentwise,
    minimalize,
    parse_monomial,
)
from .monomials import (
    Monomial,
    borel_reductions,
    common_degree,
    is_stable,
    is_strongly_stable,
    partial_shadow,
    revlex_segment,
    shadow,
)
from .verify import (
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

__version__ = "0.1.0"
