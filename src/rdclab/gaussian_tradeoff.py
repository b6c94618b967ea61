"""Closed-form rate/distortion/classification tradeoffs for a scalar Gaussian.

The central reduction: for a jointly Gaussian reconstruction with squared
correlation t = theta2^2 / (var_x * var_xhat) and matched means,

    rate          I(X; X̂)  = -0.5 * ln(1 - t)          (increasing in t)
    distortion    min MSE   = var_x * (1 - t)           (optimal sigma_xhat)
    class. loss   h(S | X̂) = h(S) + 0.5 * ln(1 - rho^2 * t)   (decreasing in t)

so a distortion budget D demands t >= 1 - D/var_x, a classification budget C
demands t >= t_min(C) = (1 - e^{2(C - h(S))}) / rho^2, and a rate budget R
caps t at t_max(R) = 1 - e^{-2R}.

Two D(C, R) evaluators ship side by side:

  * ``dcr_distortion_printed`` transcribes the published three-case formula
    verbatim, including a middle case whose activation band contradicts the
    reduction above (in that band the classification budget demands more
    correlation than the rate budget allows, so the true problem is
    infeasible).  Nothing is corrected here.
  * ``dcr_distortion_oracle`` solves the problem by the reduction, and
    ``grid_oracle_rate`` re-checks the rate function with the exact minimum
    over a reconstruction grid, found by per-row boundary search (the full
    scan is its oracle in ``tests/``), bypassing any case analysis.

Disagreements between the two are tabulated by the CLI discrepancy report,
never papered over.
"""

from __future__ import annotations

import math

from .errors import Frozen, ParameterError, check_finite, check_nonneg, check_not_nan, checked_index
from .gaussian_model import GaussianPairSource, TradeoffPoint

STATUSES = ("feasible", "infeasible", "unbounded")


class FeasibilityVerdict(Frozen):
    """Outcome of a constrained tradeoff evaluation.

    ``status`` is one of ``STATUSES``.  ``value`` is the optimal rate (for rate
    solvers) or distortion (for distortion solvers), never NaN, and is present
    exactly when ``status == "feasible"``.  ``branch`` labels the case that
    produced it, as the CSV/JSON emitters print it; for ``rdc_rate`` it names
    the active budget ("distortion", "classification" or "both").
    """

    def __init__(self, status: str, value: float | None = None, branch: str | None = None):
        if status not in STATUSES:
            raise ParameterError(f"status must be one of {STATUSES}, got {status!r}")
        if (status == "feasible") != (value is not None):
            raise ParameterError("value must be present iff status is feasible")
        if value is not None:
            check_not_nan("value", value)
        self.__dict__.update(status=status, value=value, branch=branch)


class ConstraintSet(Frozen):
    """A non-empty collection of (distortion, classification-loss) pairs."""

    def __init__(self, pairs: tuple[tuple[float, float], ...]):
        if len(pairs) == 0:
            raise ParameterError("constraint set must be non-empty")
        for d, c in pairs:
            check_nonneg("distortion budget", d)
            check_not_nan("classification budget c", c)
        self.__dict__.update(pairs=pairs)


def t_max(rate: float) -> float:
    """Largest squared correlation a rate budget allows: 1 - e^{-2R}."""
    return -math.expm1(-2.0 * rate)


def c_min(src: GaussianPairSource) -> float:
    """Smallest achievable classification loss: 0.5*ln(1 - rho^2) + h(S).

    Finite, since every source has rho^2 < 1; equals h(S) when the label is
    independent of the source.
    """
    return src.h_s - max_useful_rate(src)


def max_useful_rate(src: GaussianPairSource) -> float:
    """I(X; S) = -0.5*ln(1 - rho^2): the rate beyond which no further
    classification information about S exists in any reconstruction.
    Finite, since every source has rho^2 < 1."""
    return -0.5 * math.log1p(-src.rho_sq)


def c_threshold(src: GaussianPairSource, rate: float) -> float:
    """Smallest classification loss reachable at a given rate budget.

    0.5*ln(1 - rho^2*(1 - e^{-2R})) + h(S); equals h(S) at R = 0 and falls
    monotonically to c_min as R grows; finite at every rate, as rho^2 < 1.
    """
    check_nonneg("rate", rate)
    return 0.5 * math.log(1.0 - src.rho_sq * t_max(rate)) + src.h_s


def t_required(src: GaussianPairSource, d: float, c: float) -> tuple[float, float]:
    """(t_d, t_c): the least squared correlation t that the distortion budget d
    and the classification budget c each demand; d = 0 demands t = 1 and
    d = +inf (no budget) demands 0."""
    t_d = max(0.0, 1.0 - d / src.var_x) if d > 0.0 else 1.0
    shortfall = -math.expm1(2.0 * (c - src.h_s))  # 1 - e^{2(C - h(S))}
    if shortfall <= 0.0:
        return t_d, 0.0
    if src.rho_sq == 0.0:
        return t_d, math.inf
    return t_d, shortfall / src.rho_sq


def _printed_case2(src: GaussianPairSource, c: float) -> float:
    """The printed case-2 distortion at loss c, transcribed verbatim.  It divides
    by theta1^2: an uncorrelated label or an overflow raises ParameterError."""
    if src.rho_sq == 0.0:
        raise ParameterError("printed case 2 divides by Cov(X, S)^2 = 0")
    scale = src.var_s * src.var_x**2 / src.cov_xs**2
    value = src.var_x - scale * (-math.expm1(2.0 * (c - src.h_s)))
    check_finite("printed case-2 distortion", value)
    return value


def rdc_rate(src: GaussianPairSource, d: float, c: float) -> FeasibilityVerdict:
    """Minimum rate meeting a distortion budget d and classification budget c.

    Infeasible below c_min; unbounded (infinite rate) at d = 0 or when the
    classification budget demands perfect correlation.
    """
    check_nonneg("distortion budget", d)
    check_not_nan("classification budget c", c)
    if c < c_min(src):
        return FeasibilityVerdict("infeasible", branch="infeasible")
    t_d, t_c = t_required(src, d, c)
    t = max(t_d, t_c)
    if t >= 1.0:
        return FeasibilityVerdict("unbounded", branch="unbounded")
    if t == 0.0:
        return FeasibilityVerdict("feasible", 0.0, branch="zero_rate")
    rate = -0.5 * math.log1p(-t)
    if t_d == t_c:
        branch = "both"
    elif t_d > t_c:
        branch = "distortion"
    else:
        branch = "classification"
    return FeasibilityVerdict("feasible", rate, branch=branch)


def dcr_distortion_printed(
    src: GaussianPairSource, c: float, rate: float
) -> FeasibilityVerdict:
    """The published three-case D(C, R) formula, transcribed verbatim.

    Case 1 (C above the rate's classification threshold): var_x * e^{-2R}.
    Case 2 (c_min <= C <= threshold):
        var_x - (var_s * var_x^2 / theta1^2) * (1 - e^{2(C - h(S))}).
    Case 3 (C > h(S) and R > h(X)): 0.  Unreachable for a continuous source
    given the case ordering; transcribed anyway.

    The case-2 band is exactly where the independent oracle reports
    infeasibility; see the module docstring.
    """
    check_nonneg("rate", rate)
    check_not_nan("classification budget c", c)
    cmin = c_min(src)
    if c < cmin:
        return FeasibilityVerdict("infeasible", branch="infeasible")
    thr = c_threshold(src, rate)
    if c > thr:
        return FeasibilityVerdict(
            "feasible", src.var_x * math.exp(-2.0 * rate), branch="case1"
        )
    if cmin <= c <= thr:
        return FeasibilityVerdict("feasible", _printed_case2(src, c), branch="case2")
    # Printed case 3; dead code for continuous sources, kept for fidelity.
    if c > src.h_s and rate > src.h_x:
        return FeasibilityVerdict("feasible", 0.0, branch="case3")
    return FeasibilityVerdict("infeasible", branch="infeasible")


def dcr_distortion_oracle(
    src: GaussianPairSource, c: float, rate: float
) -> FeasibilityVerdict:
    """D(C, R) by the analytic reduction over the jointly Gaussian family.

    Feasible iff t_min(C) <= t_max(R) = 1 - e^{-2R}; the optimum then takes
    the full rate budget: D = var_x * (1 - t_max), sigma_xhat = sigma_x *
    sqrt(t_max), matched means.
    """
    check_nonneg("rate", rate)
    check_not_nan("classification budget c", c)
    _, t_min = t_required(src, math.inf, c)
    t_cap = t_max(rate)
    if t_min > t_cap:
        return FeasibilityVerdict("infeasible", branch="infeasible")
    # var_x*(1 - t_max), written so the case-1 agreement with the printed
    # formula is bitwise.
    value = src.var_x * math.exp(-2.0 * rate)
    return FeasibilityVerdict("feasible", value, branch="case1")


def grid_oracle_rate(
    src: GaussianPairSource,
    d: float,
    c: float,
    n_sigma: int = 400,
    n_theta: int = 400,
) -> FeasibilityVerdict:
    """R(D, C) as the least rate over a reconstruction grid; no case analysis.

    The grid holds sigma_xhat over (0, 3*sigma_x] and theta2 over
    [-sigma_x*sigma_xhat, +sigma_x*sigma_xhat] (the zero column is always
    included so the constant decoder is represented exactly).  The result is
    the least mutual information over the grid points meeting both budgets:
    the grid's exact minimum by per-row boundary search, with the full scan
    in ``tests/`` as its oracle.
    """
    n_sigma = checked_index("n_sigma", n_sigma, 16)
    n_theta = checked_index("n_theta", n_theta, 16)
    check_nonneg("distortion budget", d)
    check_not_nan("classification budget c", c)
    from . import _kernels  # numpy loads here, not with the closed forms

    found, rate = _kernels.grid_rate_scan(src.var_x, src.h_s, src.rho_sq, d, c, n_sigma, n_theta)
    if not found:
        return FeasibilityVerdict("infeasible", branch="infeasible")
    if math.isinf(rate):
        return FeasibilityVerdict("unbounded", branch="unbounded")
    return FeasibilityVerdict("feasible", rate, branch="grid")


def boundary_curve(
    src: GaussianPairSource, rate: float, n_points: int
) -> list[TradeoffPoint]:
    """Sample the printed lower-boundary curve at a fixed rate.

    C runs uniformly over the half-open interval [c_min, c_threshold(rate));
    D follows the printed case-2 expression.  Empty when the interval is
    empty (rate 0 or an uncorrelated label).
    """
    n_points = checked_index("n_points", n_points, 2)
    check_nonneg("rate", rate)
    if rate == 0.0:
        return []  # no boundary below the trivial point at zero rate
    lo = c_min(src)
    hi = c_threshold(src, rate)
    if not hi > lo:
        return []
    points = []
    for i in range(n_points):
        ci = lo + (hi - lo) * i / n_points
        di = _printed_case2(src, ci)
        points.append(TradeoffPoint(rate=rate, distortion=max(di, 0.0), closs=ci))
    return points
