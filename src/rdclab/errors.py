"""Semantic exceptions and the input contract shared across the package.

The contract, enforced with ``ParameterError`` by the checks below: NaN is
refused everywhere; rates and distortion budgets are >= 0 and may be +inf (no
budget); a classification budget c may be +inf (no budget) or -inf (one
nothing meets); means, variances, covariances, gains and the entries of
discrete distributions and channels must be finite; the variances of a
Gaussian source lie in ``VAR_RANGE``; a gain or covariance whose square
overflows is refused.  The scalar checks use ``math``, not numpy: they run
in constructors built thousands of times a sweep.
A Gaussian pair is checked in two places, once each: a source has rho^2 < 1
(its constructor) and a reconstruction t <= 1 (``squared_correlation``).
"""

import math

import numpy as np


# var_x * var_s (in rho^2) stays a normal float; var_xhat is not bounded, so it
# enters only through the ratios of t = (theta2 / var_x) * (theta2 / var_xhat).
VAR_RANGE = (1e-60, 1e60)


class RdcError(Exception):
    """Base class for all rdclab errors."""


class ParameterError(RdcError, ValueError):
    """Inputs violate a documented precondition (domain, shape, range)."""


class SizeGuardError(RdcError):
    """An enumeration would exceed the combinatorial guard rails."""


class InfeasibleBudgetError(RdcError):
    """No decoder satisfies the requested budget, or no source has the
    requested parameters."""


def check_finite(name: str, value: float) -> None:
    """Refuse NaN and +-inf."""
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value}")


def check_nonneg(name: str, value: float) -> None:
    """Refuse NaN and negative values; +inf stays legal."""
    if not value >= 0.0:
        raise ParameterError(f"{name} must be >= 0, got {value}")


def check_not_nan(name: str, value: float) -> None:
    """Refuse NaN; +-inf keep their meaning."""
    if math.isnan(value):
        raise ParameterError(f"{name} must not be NaN")


def check_scale(name: str, value: float) -> None:
    """Refuse a variance outside ``VAR_RANGE``, NaN included."""
    lo, hi = VAR_RANGE
    if not lo <= value <= hi:
        raise ParameterError(f"{name} = {value} is out of range [{lo:g}, {hi:g}]")


def checked_square(name: str, value: float) -> float:
    """value**2, refusing a value whose square overflows."""
    try:
        return value**2
    except OverflowError:
        raise ParameterError(f"{name} = {value} is out of range") from None


def check_finite_array(name: str, arr: np.ndarray) -> None:
    """Refuse NaN and infinite entries, which every ``<``/``>`` check lets through."""
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite")
