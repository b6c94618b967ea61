"""Seeded Monte Carlo estimators that re-derive every Gaussian closed form.

Sampling uses the counter-based Philox generator keyed by the seed, so
regeneration is bit-identical and parallel batches stay reproducible.  The
joint law realised is the unique jointly Gaussian one consistent with the
Markov chain S - X - X̂: S and X̂ are drawn conditionally independent given X.
A representation Z ~ N(0, 1) is sampled as the reconstruction
``GaussianReconstruction(0.0, 1.0, cov_xz)``.

The standard normals are drawn into one (3, n) buffer, and x, s and x̂ are
formed in it in place, row by row, with the float operations of the broadcast
forms ``mu + sd*u`` and ``mu + gain*(x - mu_x) + sd*u`` in their order (IEEE
addition and multiplication commute, so ``u *= sd; u += mu`` is ``mu + sd*u``
bit for bit).  One scratch row holds x - mu_x and then the shift, so a batch
costs 32 B per sample at its peak, 24 of them the batch.

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

import numpy as np

from .errors import Frozen, ParameterError, checked_index
from .gaussian_model import (
    GaussianPairSource,
    GaussianReconstruction,
    differential_entropy,
    squared_correlation,
)


class SampleBatch(Frozen):
    """Aligned draws of (x, s, x̂): the rows of ``draws``, a (3, n) array.

    The batch holds a read-only view of ``draws``; ``x``, ``s`` and ``xhat``
    are views of its rows, so no column is copied."""

    def __init__(self, n: int, seed: int, draws: np.ndarray):
        if draws.shape != (3, n):
            raise ParameterError(f"draws must have shape (3, n) = (3, {n}), got {draws.shape}")
        draws = draws.view()
        draws.flags.writeable = False
        self.__dict__.update(n=n, seed=seed, draws=draws)

    @property
    def x(self) -> np.ndarray:
        return self.draws[0]

    @property
    def s(self) -> np.ndarray:
        return self.draws[1]

    @property
    def xhat(self) -> np.ndarray:
        return self.draws[2]


def sample_joint(
    src: GaussianPairSource,
    target: GaussianReconstruction,
    n: int,
    seed: int,
) -> SampleBatch:
    """Draw n samples of (X, S, X̂); the target is checked by ``squared_correlation``.

    ``n`` must be an integer >= 1 and ``seed`` one in [0, 2**128), Philox's
    key range."""
    n = checked_index("n", n, 1)
    seed = checked_index("seed", seed, 0)
    if seed >= 2**128:
        raise ParameterError(f"seed must be below 2**128, got {seed}")
    if not isinstance(target, GaussianReconstruction):
        raise ParameterError(f"unsupported target type {type(target)!r}")
    t = squared_correlation(src, target)
    mu_w, var_w, cov_xw = target.mu_xhat, target.var_xhat, target.cov_xxhat
    resid_s = src.var_s - src.cov_xs**2 / src.var_x
    resid_w = var_w * (1.0 - t)  # not var_w - cov_xw**2 / var_x: cov_xw**2 may underflow
    draws = np.random.Generator(np.random.Philox(key=seed)).standard_normal((3, n))
    x = draws[0]
    x *= math.sqrt(src.var_x)
    x += src.mu_x
    shift = np.empty(n)
    for row, mu, gain, sd in (
        (draws[1], src.mu_s, src.cov_xs / src.var_x, math.sqrt(max(resid_s, 0.0))),
        (draws[2], mu_w, cov_xw / src.var_x, math.sqrt(resid_w)),
    ):
        np.subtract(x, src.mu_x, out=shift)
        shift *= gain
        shift += mu
        row *= sd
        row += shift
    return SampleBatch(n=n, seed=seed, draws=draws)


def plugin_estimates(batch: SampleBatch) -> dict:
    """Plug-in MSE, I(X; X̂) and h(S | X̂) with delta-method standard errors.

    Sets ``degenerate`` (and infinite information) when the fitted covariance
    is singular, e.g. for an identity reconstruction.
    """
    if batch.n < 100:
        raise ParameterError("plug-in estimates need n >= 100")
    n = batch.n
    dsq = batch.x - batch.xhat
    dsq *= dsq
    mse_hat = float(dsq.mean())
    se_mse = float(dsq.std(ddof=1) / math.sqrt(n))
    del dsq

    cov = np.cov(batch.draws, ddof=1)
    var_x, var_s, var_h = cov[0, 0], cov[1, 1], cov[2, 2]
    degenerate = var_h <= 0.0 or var_s <= 0.0 or var_x <= 0.0

    if var_h <= 0.0:
        # Constant reconstruction: zero information, label untouched.
        i_hat, se_i = 0.0, 0.0
        h_hat = differential_entropy(var_s) if var_s > 0.0 else math.nan
        se_h = math.sqrt(0.5 / n)
    else:
        # Squared correlations as two ratios, as ``squared_correlation`` forms
        # t: a product of two tiny variances underflows.
        r_sq = (cov[0, 2] / var_x) * (cov[0, 2] / var_h)
        if 1.0 - r_sq <= 1e-15:
            degenerate = True
            i_hat, se_i = math.inf, math.nan
        else:
            i_hat = -0.5 * math.log1p(-r_sq)
            se_i = math.sqrt(r_sq) / math.sqrt(n)
        r_sh_sq = (cov[1, 2] / var_s) * (cov[1, 2] / var_h)
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
