"""Fixed Gaussian encoder, adaptive linear decoders, and the rate penalty.

A rate-R Gaussian representation is normalised to Z ~ N(0, 1) with
Cov(X, Z) = sigma_x * sqrt(1 - e^{-2R}); any other jointly Gaussian Z of the
same rate differs only by an affine map the decoder absorbs, so Cov(X, Z)
alone states the representation: its rate is -0.5 * ln(1 - cov_xz^2 / var_x).
Decoders are deterministic linear maps X̂ = gamma * Z + mu_x; a negative
gamma flips the sign.

Key structural fact (exact, not asymptotic): the classification loss achieved
by any nonzero linear decode of Z is independent of gamma and equals
c_threshold(R), because the squared correlation of S with gamma*Z cancels
gamma.  The single minimum-MSE gain gamma* = Cov(X, Z) therefore dominates
every pair the rate R can serve, which is what drives the zero rate penalty.

One published identity is transcribed but not trusted: the gamma solving the
classification constraint with equality (``gamma_for_classification``).  The
construction it comes from pins both the reconstruction variance and the
covariance at once, which a deterministic linear decode can only satisfy at
C = c_threshold(R); achieved losses are always measured via
``achieved_point``, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, check_finite, check_nonneg, checked_square
from .gaussian_model import (
    GaussianPairSource,
    GaussianReconstruction,
    cond_entropy_s_given_xhat,
    mse_of_reconstruction,
)
from .gaussian_tradeoff import ConstraintSet, c_min, c_threshold, rdc_rate, t_max

_BISECTION_TOL = 1e-9  # bracket width at which rate_penalty stops bisecting


@dataclass(frozen=True)
class GaussianRepresentation:
    """Gaussian encoder output Z ~ N(0, 1), stated by Cov(X, Z).  var_z = 1 by
    construction, so it is not a field; the rate follows from cov_xz."""

    cov_xz: float

    def __post_init__(self) -> None:
        check_finite("cov_xz", self.cov_xz)


@dataclass(frozen=True)
class LinearDecoder:
    """Signed scaling gain applied to the representation."""

    gamma: float

    def __post_init__(self) -> None:
        check_finite("gamma", self.gamma)


def encoder_for_rate(src: GaussianPairSource, rate: float) -> GaussianRepresentation:
    """Representation Z ~ N(0,1) with I(X; Z) exactly equal to the budget."""
    check_nonneg("rate", rate)
    cov_xz = math.sqrt(src.var_x * t_max(rate))
    return GaussianRepresentation(cov_xz=cov_xz)


def linear_decoder_stats(
    src: GaussianPairSource, rep: GaussianRepresentation, dec: LinearDecoder
) -> GaussianReconstruction:
    """Second-order statistics of X̂ = gamma * Z + mu_x; a representation with
    cov_xz^2 > var_x (no rate gives it) is refused whatever the gain."""
    GaussianReconstruction(0.0, 1.0, rep.cov_xz).validate_against(src)
    var_xhat = checked_square("gamma", dec.gamma)
    return GaussianReconstruction(src.mu_x, var_xhat, dec.gamma * rep.cov_xz)


def gamma_for_classification(
    src: GaussianPairSource, rep: GaussianRepresentation, c: float
) -> float:
    """The published gain sigma_s*sigma_x^2*sqrt(1-e^{2(C-h(S))})/(theta1*sigma_z),
    with sigma_z = 1.

    Pure transcription; the loss this gain actually achieves must be measured
    with ``achieved_point`` (it equals c_threshold at the representation's
    rate, not C, except where the two coincide).
    """
    if src.cov_xs == 0.0:
        raise ParameterError("gamma_for_classification needs a correlated label")
    lo, hi = c_min(src), src.h_s
    if not (lo <= c <= hi):
        raise ParameterError(f"classification budget {c} outside [{lo}, {hi}]")
    shortfall = -math.expm1(2.0 * (c - src.h_s))  # 1 - e^{2(C - h(S))}
    return (
        math.sqrt(src.var_s) * src.var_x * math.sqrt(max(shortfall, 0.0)) / src.cov_xs
    )


def achieved_point(
    src: GaussianPairSource, rep: GaussianRepresentation, dec: LinearDecoder
) -> tuple[float, float]:
    """(distortion, classification loss) actually reached by a decoder."""
    stats = linear_decoder_stats(src, rep, dec)
    return (
        float(mse_of_reconstruction(src, stats)),
        float(cond_entropy_s_given_xhat(src, stats)),
    )


def region_sweep(
    src: GaussianPairSource,
    rep: GaussianRepresentation,
    gamma_grid,
) -> list[tuple[float, float]]:
    """Achieved (D, C) over a gamma grid plus the constant decoder, sorted by D."""
    gammas = list(gamma_grid)
    if len(gammas) == 0:
        raise ParameterError("gamma grid must be non-empty")
    points = [achieved_point(src, rep, LinearDecoder(g)) for g in gammas]
    if not any(g == 0.0 for g in gammas):
        points.append(achieved_point(src, rep, LinearDecoder(0.0)))
    points.sort(key=lambda p: (p[0], p[1]))
    return points


def mmse_gain(rep: GaussianRepresentation) -> float:
    """gamma* = Cov(X, Z) (var_z = 1), the unique distortion-minimising gain."""
    return rep.cov_xz


def rate_penalty(src: GaussianPairSource, theta: ConstraintSet) -> float:
    """Extra rate a single encoder needs beyond the per-pair supremum.

    R_sup is the supremum of the per-pair optimal rates over the set.  R_univ
    is found by bisection (to 1e-9) as the smallest rate whose minimum-MSE
    decoder point (var_x*e^{-2R}, c_threshold(R)) dominates every pair
    component-wise; gamma-invariance of the loss makes that single decoder
    test sufficient.  Returns R_univ - R_sup.
    """
    rates = []
    for d, c in theta.pairs:
        verdict = rdc_rate(src, d, c)
        if verdict.status != "feasible":
            raise ParameterError(
                f"constraint pair ({d}, {c}) is {verdict.status}; the rate "
                "penalty needs every pair to have a finite optimal rate"
            )
        rates.append(verdict.value)
    r_sup = max(rates)

    def dominates(rate: float) -> bool:
        d_star = src.var_x * math.exp(-2.0 * rate)
        c_star = c_threshold(src, rate)
        return all(d_star <= d and c_star <= c for d, c in theta.pairs)

    lo, hi = 0.0, r_sup + 10.0
    if not dominates(hi):  # pragma: no cover - excluded by the feasibility check
        raise ParameterError("no finite rate dominates the constraint set")
    if dominates(lo):
        return lo - r_sup
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if dominates(mid):
            hi = mid
        else:
            lo = mid
    return hi - r_sup
