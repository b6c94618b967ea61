"""Exact information and distortion functionals for jointly Gaussian triples.

Everything here works on a scalar source X, a scalar label S and a scalar
reconstruction X̂ under the Markov chain S - X - X̂.  All entropies and rates
are in nats (natural logarithms throughout); distortion is mean squared error.

Conventions:
  * theta1 = Cov(X, S), theta2 = Cov(X, X̂).
  * theta2 may carry either sign.  Every information quantity depends on
    theta2 only through its square, but the MSE uses the signed value.
  * A source has rho^2 < 1, and every function of a pair reads the squared
    correlation t in [0, 1] from ``squared_correlation``, its one check.
  * A constant decoder (var_xhat = 0) is legal: it carries zero rate and
    leaves the label untouched.
  * A perfectly correlated reconstruction (t = 1) has infinite rate; we return
    math.inf rather than raising so curve sweeps stay total.
"""

from __future__ import annotations

import math

from .errors import Frozen, ParameterError
from .errors import check_finite, check_nonneg, check_not_nan, check_scale, checked_square

LOG_2PI_E = math.log(2.0 * math.pi) + 1.0


class GaussianPairSource(Frozen):
    """Jointly Gaussian (X, S) pair: means, variances and Cov(X, S).

    Means and Cov(X, S) must be finite and variances in ``VAR_RANGE``;
    a Cov(X, S) whose square overflows is refused, and so is a perfectly
    correlated pair: Cov(X, S)^2 < var_x * var_s, hence ``rho_sq`` < 1.
    """

    def __init__(self, mu_x: float, var_x: float, mu_s: float, var_s: float, cov_xs: float):
        check_finite("mu_x", mu_x)
        check_finite("mu_s", mu_s)
        check_finite("cov_xs", cov_xs)
        check_finite("var_x", var_x)
        check_finite("var_s", var_s)
        check_scale("var_x", var_x)
        check_scale("var_s", var_s)
        bound = var_x * var_s
        cov_sq = checked_square("cov_xs", cov_xs)
        if cov_sq >= bound:
            raise ParameterError(f"cov_xs^2 = {cov_sq} is not below var_x*var_s = {bound}")
        self.__dict__.update(mu_x=mu_x, var_x=var_x, mu_s=mu_s, var_s=var_s, cov_xs=cov_xs)

    @property
    def rho_sq(self) -> float:
        """Squared correlation Cov(X,S)^2 / (var_x * var_s); at most 1 - 2^-53."""
        return self.cov_xs**2 / (self.var_x * self.var_s)

    @property
    def h_s(self) -> float:
        """Differential entropy of the label, nats."""
        return differential_entropy(self.var_s)

    @property
    def h_x(self) -> float:
        """Differential entropy of the source, nats."""
        return differential_entropy(self.var_x)


class GaussianReconstruction(Frozen):
    """Second-order statistics of a jointly Gaussian reconstruction X̂."""

    def __init__(self, mu_xhat: float, var_xhat: float, cov_xxhat: float):
        check_finite("mu_xhat", mu_xhat)
        check_finite("var_xhat", var_xhat)
        check_finite("cov_xxhat", cov_xxhat)
        check_nonneg("var_xhat", var_xhat)
        self.__dict__.update(mu_xhat=mu_xhat, var_xhat=var_xhat, cov_xxhat=cov_xxhat)


class TradeoffPoint(Frozen):
    """A (rate, distortion, classification loss) triple.

    rate is in nats and may be +inf; distortion is MSE; closs is the
    conditional differential entropy h(S|X̂) and may be anywhere in
    [-inf, +inf].
    """

    def __init__(self, rate: float, distortion: float, closs: float):
        check_nonneg("rate", rate)
        check_nonneg("distortion", distortion)
        check_not_nan("closs", closs)
        self.__dict__.update(rate=rate, distortion=distortion, closs=closs)


def differential_entropy(var: float) -> float:
    """h(N(mu, var)) = 0.5 * ln(2*pi*e*var), in nats."""
    if not (var > 0.0):
        raise ParameterError(f"variance must be positive, got {var}")
    return 0.5 * (LOG_2PI_E + math.log(var))


def squared_correlation(src: GaussianPairSource, rec: GaussianReconstruction) -> float:
    """t = theta2^2 / (var_x * var_xhat) as two ratios (no product of scales), in
    [0, 1]: a constant reconstruction needs theta2 = 0, a theta2 whose square
    overflows or a t > 1 + 1e-12 is refused, and a t in (1, 1 + 1e-12] is 1."""
    checked_square("cov_xxhat", rec.cov_xxhat)
    if rec.var_xhat == 0.0:
        if rec.cov_xxhat != 0.0:
            raise ParameterError("a constant reconstruction needs cov_xxhat = 0")
        return 0.0
    t = (rec.cov_xxhat / src.var_x) * (rec.cov_xxhat / rec.var_xhat)
    if t > 1.0 + 1e-12:
        raise ParameterError(f"t = {t} > 1: cov_xxhat is not a valid covariance")
    return min(t, 1.0)


def mutual_info_x_xhat(src: GaussianPairSource, rec: GaussianReconstruction) -> float:
    """I(X; X̂) = -0.5 * ln(1 - t), t = theta2^2 / (var_x * var_xhat).

    0 for an uninformative reconstruction (t = 0) and +inf for a perfectly
    correlated one (t = 1).
    """
    t = squared_correlation(src, rec)
    return math.inf if t == 1.0 else -0.5 * math.log1p(-t)


def cond_entropy_s_given_xhat(
    src: GaussianPairSource, rec: GaussianReconstruction
) -> float:
    """h(S | X̂) = h(S) + 0.5 * ln(1 - rho^2 * t), t = theta2^2 / (var_x * var_xhat).

    Uses the Markov chain S - X - X̂, under which
    Cov(S, X̂) = theta1 * theta2 / var_x, so the squared correlation of S and
    X̂ is rho^2 * t.  Finite: rho^2 < 1 and t <= 1 keep the log's argument >= 2^-53.
    """
    return src.h_s + 0.5 * math.log(1.0 - src.rho_sq * squared_correlation(src, rec))


def mse_of_reconstruction(
    src: GaussianPairSource, rec: GaussianReconstruction
) -> float:
    """E[(X - X̂)^2] = (mu_x - mu_xhat)^2 + var_x + var_xhat - 2*theta2, clamped
    at 0: as X̂ -> X the sum cancels, and its rounding (ulps of var_x) can be < 0."""
    squared_correlation(src, rec)
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
