"""Numerics for g-function chains.

Models of g-functions on finite alphabets, exact transfer-operator
diagnostics, maximal and block couplings, renewal analysis of the dominating
disagreement chain, and closed-form uniqueness criteria, plus a reproducible
CLI experiment runner.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    ConfigError,
    ConvergenceError,
    GMeasureError,
    TruncationError,
)
from .tails import Exponential, FiniteRange, PowerLaw
from .gmodel import (
    Alphabet,
    FiniteMemoryModel,
    LongRangeLinearModel,
    VariationProfile,
    binary_alphabet,
    iid_model,
    load_model,
    parse_model,
    variation_profile,
)
from .transfer import (
    StationaryMeasure,
    TransferOperator,
    apply_Ln,
    indicator,
    stationary,
    uniqueness_diagnostic,
)
from .coupling import (
    BlockSchedule,
    MaximalCoupling,
    constant_schedule,
    dbar,
    dn_bruteforce,
    estimate_disagreement,
    geometric_blocks,
    maximal_coupling,
    sample_block_coupling,
)
from .renewal import (
    AlphaBeta,
    RenewalSpec,
    build_alphabeta,
    disagreement_bound_sweep,
    renewal_solve,
)
from .criteria import (
    CUBIC_REMAINDER_K2,
    CriterionReport,
    affinity_product_floor,
    block_tv_bounds,
    check_geometric_window_sums,
    check_rho_product_series,
    check_single_site_series,
    check_square_summable_variation,
    check_variation_o_sqrt,
    tv_bound_from_site_ratios,
)
