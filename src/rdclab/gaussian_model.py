"""Exact information and distortion functionals for jointly Gaussian triples.

Everything here works on a scalar source X, a scalar label S and a scalar
reconstruction X̂ under the Markov chain S - X - X̂.  All entropies and rates
are in nats (natural logarithms throughout); distortion is mean squared error.

Conventions:
  * theta1 = Cov(X, S), theta2 = Cov(X, X̂).
  * theta2 may carry either sign.  Every information quantity depends on
    theta2 only through its square, but the MSE uses the signed value.
  * A constant decoder (var_xhat = 0) is legal: it carries zero rate and
    leaves the label untouched.
  * A perfectly correlated reconstruction has infinite rate; we return
    math.inf rather than raising so curve sweeps stay total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateDependenceError, ParameterError
from .errors import check_finite, check_nonneg, check_not_nan, check_scale, checked_square

LOG_2PI_E = math.log(2.0 * math.pi) + 1.0


@dataclass(frozen=True)
class GaussianPairSource:
    """Jointly Gaussian (X, S) pair: means, variances and Cov(X, S).

    Means and Cov(X, S) must be finite and variances in ``VAR_RANGE``;
    a Cov(X, S) whose square overflows is refused.
    `allow_degenerate` must be set explicitly to permit |Cov(X,S)| equal to
    sigma_x * sigma_s (a perfectly correlated pair).
    """

    mu_x: float
    var_x: float
    mu_s: float
    var_s: float
    cov_xs: float
    allow_degenerate: bool = False

    def __post_init__(self) -> None:
        for name in ("mu_x", "mu_s", "cov_xs", "var_x", "var_s"):
            check_finite(name, getattr(self, name))
        check_scale("var_x", self.var_x)
        check_scale("var_s", self.var_s)
        bound = self.var_x * self.var_s
        cov_sq = checked_square("cov_xs", self.cov_xs)
        if cov_sq > bound:
            raise ParameterError(f"cov_xs^2 = {cov_sq} exceeds var_x*var_s = {bound}")
        if cov_sq == bound and not self.allow_degenerate:
            raise ParameterError(
                "perfectly correlated (X, S) pair; pass allow_degenerate=True"
            )

    @property
    def rho(self) -> float:
        """Correlation coefficient Cov(X,S) / (sigma_s * sigma_x)."""
        return self.cov_xs / math.sqrt(self.var_x * self.var_s)

    @property
    def rho_sq(self) -> float:
        """Squared correlation Cov(X,S)^2 / (var_x * var_s)."""
        return self.cov_xs**2 / (self.var_x * self.var_s)

    @property
    def h_s(self) -> float:
        """Differential entropy of the label, nats."""
        return differential_entropy(self.var_s)

    @property
    def h_x(self) -> float:
        """Differential entropy of the source, nats."""
        return differential_entropy(self.var_x)


@dataclass(frozen=True)
class GaussianReconstruction:
    """Second-order statistics of a jointly Gaussian reconstruction X̂."""

    mu_xhat: float
    var_xhat: float
    cov_xxhat: float

    def __post_init__(self) -> None:
        for name in ("mu_xhat", "var_xhat", "cov_xxhat"):
            check_finite(name, getattr(self, name))
        check_nonneg("var_xhat", self.var_xhat)

    def validate_against(self, src: GaussianPairSource) -> None:
        """Check the correlation bound theta2^2 <= var_x * var_xhat; a theta2
        whose square overflows is refused."""
        cov_sq = checked_square("cov_xxhat", self.cov_xxhat)
        if cov_sq > src.var_x * self.var_xhat * (1.0 + 1e-12):
            raise ParameterError(
                "cov_xxhat^2 exceeds var_x * var_xhat: not a valid covariance"
            )


@dataclass(frozen=True)
class TradeoffPoint:
    """A (rate, distortion, classification loss) triple.

    rate is in nats and may be +inf; distortion is MSE; closs is the
    conditional differential entropy h(S|X̂) and may be anywhere in
    [-inf, +inf].
    """

    rate: float
    distortion: float
    closs: float

    def __post_init__(self) -> None:
        check_nonneg("rate", self.rate)
        check_nonneg("distortion", self.distortion)
        check_not_nan("closs", self.closs)


def differential_entropy(var: float) -> float:
    """h(N(mu, var)) = 0.5 * ln(2*pi*e*var), in nats."""
    if not (var > 0.0):
        raise ParameterError(f"variance must be positive, got {var}")
    return 0.5 * (LOG_2PI_E + math.log(var))


def mutual_info_x_xhat(src: GaussianPairSource, rec: GaussianReconstruction) -> float:
    """I(X; X̂) = -0.5 * ln(1 - theta2^2 / (var_x * var_xhat)).

    Returns 0 for an uninformative reconstruction (theta2 = 0 or a constant
    decoder) and +inf for a perfectly correlated one.  Scales whose
    denominator underflows to 0 or overflows to inf are refused.
    """
    if rec.var_xhat == 0.0 or rec.cov_xxhat == 0.0:
        return 0.0
    den = src.var_x * rec.var_xhat
    if not 0.0 < den < math.inf:
        raise ParameterError(f"var_x * var_xhat = {den} is out of range")
    t = rec.cov_xxhat**2 / den
    if t >= 1.0:
        return math.inf
    return -0.5 * math.log1p(-t)


def cond_entropy_s_given_xhat(
    src: GaussianPairSource, rec: GaussianReconstruction
) -> float:
    """h(S | X̂) = h(S) + 0.5 * ln(1 - theta1^2 theta2^2 / (var_s var_x^2 var_xhat)).

    Uses the Markov chain S - X - X̂, under which
    Cov(S, X̂) = theta1 * theta2 / var_x.  Scales whose denominator
    underflows to 0 or overflows to inf are refused, not turned into NaN.
    """
    h_s = src.h_s
    if rec.var_xhat == 0.0 or rec.cov_xxhat == 0.0:
        return h_s
    den = src.var_s * src.var_x**2 * rec.var_xhat
    if not 0.0 < den < math.inf:
        raise ParameterError(f"var_s * var_x^2 * var_xhat = {den} is out of range")
    arg = 1.0 - (src.cov_xs**2 * rec.cov_xxhat**2) / den
    if arg <= 0.0:
        raise DegenerateDependenceError(
            "label is a deterministic function of the reconstruction"
        )
    return h_s + 0.5 * math.log(arg)


def mse_of_reconstruction(
    src: GaussianPairSource, rec: GaussianReconstruction
) -> float:
    """E[(X - X̂)^2] = (mu_x - mu_xhat)^2 + var_x + var_xhat - 2*theta2, clamped
    at 0: as X̂ -> X the sum cancels, and its rounding (ulps of var_x) can be < 0."""
    d = (src.mu_x - rec.mu_xhat) ** 2 + src.var_x + rec.var_xhat - 2.0 * rec.cov_xxhat
    return max(d, 0.0)


def gaussian_w2_squared(mu1: float, var1: float, mu2: float, var2: float) -> float:
    """Squared 2-Wasserstein distance between two scalar Gaussians.

    W2^2(N(mu1, var1), N(mu2, var2)) = (mu1 - mu2)^2 + (sigma1 - sigma2)^2,
    the one-dimensional monotone-coupling optimum.
    """
    for name, value in (("mu1", mu1), ("var1", var1), ("mu2", mu2), ("var2", var2)):
        check_finite(name, value)
    if var1 < 0.0 or var2 < 0.0:
        raise ParameterError("variances must be >= 0")
    return (mu1 - mu2) ** 2 + (math.sqrt(var1) - math.sqrt(var2)) ** 2
