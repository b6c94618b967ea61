"""rdclab: a verification laboratory for rate-distortion-classification tradeoffs.

Scalar-Gaussian closed forms, a universal fixed-encoder construction, exact
finite-alphabet region machinery, quantitative corner bounds, and Monte Carlo
plus brute-force oracles for all of it.  All rates and entropies are in nats;
distortion is mean squared error.
"""

from .bounds_eval import (
    HarnessRecord,
    Theorem5Instance,
    gap_lower_bound,
    ratio_lower_bound,
    sandwich_check,
    theorem5_gaussian_harness,
    upper_left_bounds,
)
from .discrete_region import (
    Channel,
    CMinSolution,
    DiscreteDistribution,
    DiscreteSource,
    MMSEReduction,
    OuterBoundReport,
    c_min_solver,
    cond_entropy_discrete,
    discretize_gaussian,
    extreme_point_a,
    extreme_point_b,
    mmse_reduction,
    mutual_info_xz,
    outer_bound_check,
    region_approx,
    w2_squared_lp,
    w2_squared_quantile,
)
from .errors import (
    InfeasibleBudgetError,
    ParameterError,
    RdcError,
    SizeGuardError,
)
from .gaussian_model import (
    GaussianPairSource,
    GaussianReconstruction,
    TradeoffPoint,
    cond_entropy_s_given_xhat,
    differential_entropy,
    gaussian_w2_squared,
    mse_of_reconstruction,
    mutual_info_x_xhat,
)
from .gaussian_tradeoff import (
    ConstraintSet,
    FeasibilityVerdict,
    boundary_curve,
    c_min,
    c_threshold,
    dcr_distortion_oracle,
    dcr_distortion_printed,
    grid_oracle_rate,
    max_useful_rate,
    rdc_rate,
)
from .universal_gaussian import (
    GaussianRepresentation,
    LinearDecoder,
    achieved_point,
    encoder_for_rate,
    gamma_for_classification,
    linear_decoder_stats,
    mmse_gain,
    rate_penalty,
    region_sweep,
)
from .validation_oracles import SampleBatch, plugin_estimates, sample_joint

__version__ = "0.1.0"
