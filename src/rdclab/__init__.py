"""rdclab: a verification laboratory for rate-distortion-classification tradeoffs.

Scalar-Gaussian closed forms, a universal fixed-encoder construction, exact
finite-alphabet region machinery, quantitative corner bounds, and Monte Carlo
plus brute-force oracles for all of it.  All rates and entropies are in nats;
distortion is mean squared error.

``import rdclab`` loads no numpy: ``errors``, the Gaussian modules and
``bounds_eval`` need only ``math``.  numpy loads on first use of
``discrete_region``, ``validation_oracles`` or ``_kernels``
(``grid_oracle_rate`` calls it), whose names the package serves on first
access, as it does those of ``bounds_eval``; ``scipy.optimize`` and
``scipy.special`` load on the first call of ``w2_squared_lp`` or
``discretize_gaussian``, and ``scipy.stats`` never.
"""

import importlib
import types

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

# Served on first access (PEP 562), each name from the module that defines it:
# the modules that use numpy, and bounds_eval, which only `bounds` needs (building
# its dataclasses takes a few milliseconds).
_LAZY = {
    "HarnessRecord": "bounds_eval",
    "Theorem5Instance": "bounds_eval",
    "gap_lower_bound": "bounds_eval",
    "ratio_lower_bound": "bounds_eval",
    "sandwich_check": "bounds_eval",
    "theorem5_gaussian_harness": "bounds_eval",
    "upper_left_bounds": "bounds_eval",
    "Channel": "discrete_region",
    "CMinSolution": "discrete_region",
    "DiscreteDistribution": "discrete_region",
    "DiscreteSource": "discrete_region",
    "MMSEReduction": "discrete_region",
    "OuterBoundReport": "discrete_region",
    "c_min_solver": "discrete_region",
    "cond_entropy_discrete": "discrete_region",
    "discretize_gaussian": "discrete_region",
    "extreme_point_a": "discrete_region",
    "extreme_point_b": "discrete_region",
    "mmse_reduction": "discrete_region",
    "mutual_info_xz": "discrete_region",
    "outer_bound_check": "discrete_region",
    "region_approx": "discrete_region",
    "w2_squared_lp": "discrete_region",
    "w2_squared_quantile": "discrete_region",
    "SampleBatch": "validation_oracles",
    "plugin_estimates": "validation_oracles",
    "sample_joint": "validation_oracles",
}
_SUBMODULES = ("_kernels", "bounds_eval", "discrete_region", "validation_oracles")

__all__ = sorted(
    [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, types.ModuleType)]
    + list(_LAZY)
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
