"""Seeded Monte Carlo estimators that re-derive every Gaussian closed form.

Sampling uses the counter-based Philox generator keyed by the seed, so
regeneration is bit-identical and parallel batches stay reproducible.  The
joint law realised is the unique jointly Gaussian one consistent with the
Markov chain S - X - X̂: S and X̂ are drawn conditionally independent given X.
A representation Z ~ N(0, 1) is sampled as the reconstruction
``GaussianReconstruction(0.0, 1.0, cov_xz)``.

Estimation is plug-in: fit the sample covariance, evaluate the Gaussian
closed forms on it.  The model class is exactly Gaussian here, so plug-in is
consistent and still exercises the algebra end to end.  Standard errors come
from the delta method:

    se(mse)      = sd((x - x̂)^2) / sqrt(n)
    se(I)        = |r| / sqrt(n)                (r = sample corr(x, x̂))
    se(h(S|X̂))  = sqrt(1 / (2n))               (log residual-variance noise)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .gaussian_model import (
    GaussianPairSource,
    GaussianReconstruction,
    differential_entropy,
    squared_correlation,
)


@dataclass(frozen=True)
class SampleBatch:
    """Aligned draws of (x, s, x̂)."""

    n: int
    seed: int
    x: np.ndarray
    s: np.ndarray
    xhat: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "s", "xhat"):
            col = getattr(self, name)
            if col.shape != (self.n,):
                raise ParameterError(f"column {name} must have length n={self.n}")


def sample_joint(
    src: GaussianPairSource,
    target: GaussianReconstruction,
    n: int,
    seed: int,
) -> SampleBatch:
    """Draw n samples of (X, S, X̂); the target is checked by ``squared_correlation``."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not isinstance(target, GaussianReconstruction):
        raise ParameterError(f"unsupported target type {type(target)!r}")
    squared_correlation(src, target)
    mu_w, var_w, cov_xw = target.mu_xhat, target.var_xhat, target.cov_xxhat
    resid_s = src.var_s - src.cov_xs**2 / src.var_x
    resid_w = var_w - cov_xw**2 / src.var_x
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.standard_normal((3, n))
    x = src.mu_x + math.sqrt(src.var_x) * u[0]
    centered = x - src.mu_x
    s = src.mu_s + (src.cov_xs / src.var_x) * centered + math.sqrt(max(resid_s, 0.0)) * u[1]
    w = mu_w + (cov_xw / src.var_x) * centered + math.sqrt(max(resid_w, 0.0)) * u[2]
    return SampleBatch(n=n, seed=seed, x=x, s=s, xhat=w)


def plugin_estimates(batch: SampleBatch) -> dict:
    """Plug-in MSE, I(X; X̂) and h(S | X̂) with delta-method standard errors.

    Sets ``degenerate`` (and infinite information) when the fitted covariance
    is singular, e.g. for an identity reconstruction.
    """
    if batch.n < 100:
        raise ParameterError("plug-in estimates need n >= 100")
    n = batch.n
    d = batch.x - batch.xhat
    dsq = d * d
    mse_hat = float(dsq.mean())
    se_mse = float(dsq.std(ddof=1) / math.sqrt(n))

    cov = np.cov(np.stack([batch.x, batch.s, batch.xhat]), ddof=1)
    var_x, var_s, var_h = cov[0, 0], cov[1, 1], cov[2, 2]
    degenerate = var_h <= 0.0 or var_s <= 0.0 or var_x <= 0.0

    if var_h <= 0.0:
        # Constant reconstruction: zero information, label untouched.
        i_hat, se_i = 0.0, 0.0
        h_hat = differential_entropy(var_s) if var_s > 0.0 else math.nan
        se_h = math.sqrt(0.5 / n)
    else:
        r = cov[0, 2] / math.sqrt(var_x * var_h)
        if 1.0 - r * r <= 1e-15:
            degenerate = True
            i_hat, se_i = math.inf, math.nan
        else:
            i_hat = -0.5 * math.log1p(-r * r)
            se_i = abs(r) / math.sqrt(n)
        r_sh_sq = cov[1, 2] ** 2 / (var_s * var_h)
        resid = var_s * (1.0 - r_sh_sq)
        if resid <= 0.0:
            degenerate = True
            h_hat, se_h = -math.inf, math.nan
        else:
            h_hat = differential_entropy(resid)
            se_h = math.sqrt(0.5 / n)

    return {
        "mse_hat": float(mse_hat),
        "i_xxhat_hat": float(i_hat),
        "h_s_given_xhat_hat": float(h_hat),
        "se_mse": float(se_mse),
        "se_i": float(se_i),
        "se_h": float(se_h),
        "degenerate": bool(degenerate),
    }
