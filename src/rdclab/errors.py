"""Semantic exceptions, the input contract shared across the package, and
``Frozen``, the base of its immutable value types.

The contract, enforced with ``ParameterError`` by the checks below: NaN is
refused everywhere; rates and distortion budgets are >= 0 and may be +inf (no
budget); a classification budget c may be +inf (no budget) or -inf (one
nothing meets); means, variances, covariances, gains and the entries of
discrete distributions and channels must be finite; the variances of a
Gaussian source lie in ``VAR_RANGE``; a gain or covariance whose square
overflows is refused.  The checks here use ``math`` only: they run in
constructors built thousands of times a sweep.  The arrays of the discrete
value types pass one check, ``discrete_region._frozen_array``, which refuses
ragged, empty, wrong-rank, non-finite and out-of-float-range input and
returns a read-only float64 copy: constructors copy their input, so a later
write to the caller's array never reaches a checked object.
A Gaussian pair is checked in two places, once each: a source has rho^2 < 1
(its constructor) and a reconstruction t <= 1 (``squared_correlation``).
"""

import math


# var_x * var_s (in rho^2) stays a normal float; var_xhat is not bounded, so it
# enters only through the ratios of t = (theta2 / var_x) * (theta2 / var_xhat).
VAR_RANGE = (1e-60, 1e60)


class Frozen:
    """Base of the immutable value types.  A subclass's ``__init__`` checks its
    arguments, then stores its fields in order with one ``self.__dict__.update``;
    equality, hash and repr read the fields in that order, and assignment and
    deletion raise ``AttributeError``.  Pickle and ``copy`` rebuild a copy
    through ``__init__``, so it passes the same checks and its arrays come back
    read-only."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(self.__dict__.values()) == tuple(other.__dict__.values())

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(self.__dict__.values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{self.__class__.__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self.__class__.__name__} is frozen: cannot delete {name!r}")


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
