"""Seeded Monte Carlo estimators that re-derive every Gaussian closed form.

Sampling uses the counter-based Philox generator keyed by the seed, so
regeneration is bit-identical and parallel batches stay reproducible.  The
joint law realised is the unique jointly Gaussian one consistent with the
Markov chain S - X - X̂: S and X̂ are drawn conditionally independent given X.
A representation Z ~ N(0, 1) is sampled as the reconstruction
``GaussianReconstruction(0.0, 1.0, cov_xz)``.

The standard normals are drawn into one (3, n) buffer, and x, s and x̂ are
formed in it in place with the float operations of the broadcast forms
``mu + sd*u`` and ``mu + gain*(x - mu_x) + sd*u`` in their order (IEEE
addition and multiplication commute, so ``u *= sd; u += mu`` is ``mu + sd*u``
bit for bit).  The shift ``gain*(x - mu_x) + mu`` is formed in one scratch
block of ``_BLOCK`` columns at a time, so the draws keep their bits and a
batch costs ~24.35 B per sample at its peak at n = 100,000, 24 of them the
batch (a full scratch row made it 32).

``plugin_estimates`` walks the batch in the same column blocks: it takes the
row means as ``np.cov`` does, adds each centred block's ``blk @ blk.T`` into
a 3 x 3 sum and scales it by 1 / (n - 1), and sums the squared residual and
then its squared deviations block by block.  Three rows of ``_BLOCK``
columns are 96 KB, under glibc's initial 128 KB mmap threshold, so the
scratch comes from the heap.  ``np.cov``'s 2.4 MB copy of a 100,000-sample
batch made glibc trim the heap and refill it, ~1,140 fresh pages on every
warm call; the blocks fault none, and the call peaks at ~26.15 B per sample,
the batch included (48 before).  Up to n = ``_BLOCK`` the estimates equal
the ``np.cov`` and ``dsq.mean()`` / ``dsq.std(ddof=1)`` forms bit for bit;
above that only the order of the block sums differs.

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

_BLOCK = 4096  # columns of a scratch block; three rows of them are 96 KB


class SampleBatch(Frozen):
    """Aligned draws of (x, s, x̂): the rows of ``draws``, a finite float64 (3, n) array.

    ``n`` and ``seed`` follow ``sample_joint``'s rules.  The batch holds a
    read-only view of ``draws``; ``x``, ``s`` and ``xhat`` are views of its
    rows, so no column is copied."""

    def __init__(self, n: int, seed: int, draws: np.ndarray):
        n, seed = _checked_key(n, seed)
        if not isinstance(draws, np.ndarray) or draws.dtype != np.float64:
            got = getattr(draws, "dtype", type(draws).__name__)
            raise ParameterError(f"draws must be a float64 array, got {got}")
        if draws.shape != (3, n):
            raise ParameterError(f"draws must have shape (3, n) = (3, {n}), got {draws.shape}")
        # min and max propagate NaN and allocate nothing: np.isfinite's mask is 3 B a sample.
        if not (math.isfinite(draws.min()) and math.isfinite(draws.max())):
            raise ParameterError("draws must be finite")
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


def _checked_key(n, seed) -> tuple[int, int]:
    """n as an integer >= 1 and seed as one in [0, 2**128), Philox's key range."""
    n = checked_index("n", n, 1)
    seed = checked_index("seed", seed, 0)
    if seed >= 2**128:
        raise ParameterError(f"seed must be below 2**128, got {seed}")
    return n, seed


def _blocks(n: int):
    """(start, stop) of each block of at most ``_BLOCK`` columns of an n-column batch."""
    for start in range(0, n, _BLOCK):
        yield start, min(start + _BLOCK, n)


def sample_joint(
    src: GaussianPairSource,
    target: GaussianReconstruction,
    n: int,
    seed: int,
) -> SampleBatch:
    """Draw n samples of (X, S, X̂); the target is checked by ``squared_correlation``.

    ``n`` must be an integer >= 1 and ``seed`` one in [0, 2**128), Philox's
    key range."""
    n, seed = _checked_key(n, seed)
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
    rows = (
        (draws[1], src.mu_s, src.cov_xs / src.var_x, math.sqrt(max(resid_s, 0.0))),
        (draws[2], mu_w, cov_xw / src.var_x, math.sqrt(resid_w)),
    )
    scratch = np.empty(min(n, _BLOCK))
    for start, stop in _blocks(n):
        shift = scratch[: stop - start]
        for row, mu, gain, sd in rows:
            np.subtract(x[start:stop], src.mu_x, out=shift)
            shift *= gain
            shift += mu
            block = row[start:stop]
            block *= sd
            block += shift
    return SampleBatch(n=n, seed=seed, draws=draws)


def plugin_estimates(batch: SampleBatch) -> dict:
    """Plug-in MSE, I(X; X̂) and h(S | X̂) with delta-method standard errors.

    Sets ``degenerate`` (and infinite information) when the fitted covariance
    is singular, e.g. for an identity reconstruction.
    """
    if batch.n < 100:
        raise ParameterError("plug-in estimates need n >= 100")
    n, draws = batch.n, batch.draws
    centred = np.empty((3, min(n, _BLOCK)))
    dsq = np.empty(min(n, _BLOCK))

    def squared_residual(start: int, stop: int) -> np.ndarray:
        d = dsq[: stop - start]
        np.subtract(draws[0, start:stop], draws[2, start:stop], out=d)
        d *= d
        return d

    # np.cov's centring and scale, and the two passes of dsq.mean() and
    # dsq.std(ddof=1), taken block by block.
    mean = draws.mean(axis=1)
    cov = np.zeros((3, 3))
    dsq_sum = 0.0
    for start, stop in _blocks(n):
        block = centred[:, : stop - start]
        np.subtract(draws[:, start:stop], mean[:, None], out=block)
        cov += np.dot(block, block.T)
        dsq_sum += float(squared_residual(start, stop).sum())
    cov *= 1.0 / (n - 1)
    mse_hat = dsq_sum / n
    dev_sum = 0.0
    for start, stop in _blocks(n):
        d = squared_residual(start, stop)
        d -= mse_hat
        d *= d
        dev_sum += float(d.sum())
    se_mse = math.sqrt(dev_sum / (n - 1)) / math.sqrt(n)

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
