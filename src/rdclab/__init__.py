"""rdclab: a verification laboratory for rate-distortion-classification tradeoffs.

Scalar-Gaussian closed forms, a universal fixed-encoder construction, exact
finite-alphabet region machinery, quantitative corner bounds, and Monte Carlo
plus brute-force oracles for all of it.  All rates and entropies are in nats;
distortion is mean squared error.

``import rdclab`` loads ``rdclab.errors`` and nothing else.  Every other name
is served on first access (PEP 562) from the module that defines it, and so
is each module, so a process loads only what it uses: the Gaussian modules
and ``bounds_eval`` need only ``math``; numpy loads with ``discrete_region``,
``validation_oracles`` or ``_kernels`` (``grid_oracle_rate`` calls it);
``scipy.optimize`` and ``scipy.special`` load on the first call of
``w2_squared_lp`` or ``discretize_gaussian``, and ``scipy.stats`` never.
"""

import importlib

from .errors import InfeasibleBudgetError, ParameterError, RdcError, SizeGuardError

# Each module and the names the package serves from it.
_EXPORTS = {
    "gaussian_model": (
        "GaussianPairSource", "GaussianReconstruction", "TradeoffPoint",
        "cond_entropy_s_given_xhat", "differential_entropy", "gaussian_w2_squared",
        "mse_of_reconstruction", "mutual_info_x_xhat",
    ),
    "gaussian_tradeoff": (
        "ConstraintSet", "FeasibilityVerdict", "boundary_curve", "c_min", "c_threshold",
        "dcr_distortion_oracle", "dcr_distortion_printed", "grid_oracle_rate",
        "max_useful_rate", "rdc_rate",
    ),
    "universal_gaussian": (
        "GaussianRepresentation", "LinearDecoder", "achieved_point", "encoder_for_rate",
        "gamma_for_classification", "linear_decoder_stats", "mmse_gain", "rate_penalty",
        "region_sweep",
    ),
    "bounds_eval": (
        "HarnessRecord", "Theorem5Instance", "gap_lower_bound", "ratio_lower_bound",
        "sandwich_check", "theorem5_gaussian_harness", "upper_left_bounds",
    ),
    "discrete_region": (
        "Channel", "CMinSolution", "DiscreteDistribution", "DiscreteSource",
        "MMSEReduction", "OuterBoundReport", "c_min_solver", "cond_entropy_discrete",
        "discretize_gaussian", "extreme_point_a", "extreme_point_b", "mmse_reduction",
        "mutual_info_xz", "outer_bound_check", "region_approx", "w2_squared_lp",
        "w2_squared_quantile",
    ),
    "validation_oracles": ("SampleBatch", "plugin_estimates", "sample_joint"),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("_kernels", *_EXPORTS)

__all__ = sorted(
    ["InfeasibleBudgetError", "ParameterError", "RdcError", "SizeGuardError", *_LAZY]
)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY) | set(_SUBMODULES))
