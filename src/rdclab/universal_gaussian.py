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
every pair the rate R can serve, so one encoder serves a whole constraint set
at its largest per-pair rate: the Gaussian rate penalty is exactly 0.

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
    squared_correlation,
)
from .gaussian_tradeoff import ConstraintSet, c_min, rdc_rate, t_max, t_required


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
    cov_xz^2 > var_x (no rate gives it) is refused whatever the gain, and so is
    a nonzero gain whose square underflows (var_xhat would be inexact)."""
    squared_correlation(src, GaussianReconstruction(0.0, 1.0, rep.cov_xz))
    if 0.0 < abs(dec.gamma) < 2.0**-511:  # gamma^2 would be subnormal or 0
        raise ParameterError(f"gamma = {dec.gamma} is out of range: its square underflows")
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
    """Extra rate one encoder needs beyond the per-pair supremum: R_univ - R_sup.

    The minimum-MSE decoder point at rate R, (var_x*e^{-2R}, c_threshold(R)),
    meets a pair exactly when t_max(R) reaches the pair's max(t_d, t_c) (see
    ``t_required``), and gamma-invariance of the loss makes it the one decoder
    to test.  So R_univ = -0.5*ln(1 - max over pairs of max(t_d, t_c)), the
    largest per-pair rate R_sup: the Gaussian penalty is 0.  Every pair must
    have a finite optimal rate.
    """
    rates, t_univ = [], 0.0
    for d, c in theta.pairs:
        verdict = rdc_rate(src, d, c)
        if verdict.status != "feasible":
            raise ParameterError(
                f"constraint pair ({d}, {c}) is {verdict.status}; the rate "
                "penalty needs every pair to have a finite optimal rate"
            )
        rates.append(verdict.value)
        t_univ = max(t_univ, *t_required(src, d, c))
    return -0.5 * math.log1p(-t_univ) - max(rates)
