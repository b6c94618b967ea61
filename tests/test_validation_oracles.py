"""Monte Carlo plug-in oracles: determinism, convergence, degeneracy flags,
the bits of the in-place draw buffer, and its memory under ``tracemalloc``."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rdclab import (
    GaussianPairSource,
    GaussianReconstruction,
    LinearDecoder,
    ParameterError,
    SampleBatch,
    cond_entropy_s_given_xhat,
    encoder_for_rate,
    linear_decoder_stats,
    mse_of_reconstruction,
    mutual_info_x_xhat,
    plugin_estimates,
    sample_joint,
)
from rdclab.gaussian_model import differential_entropy, squared_correlation

UNIT = GaussianPairSource(0.0, 1.0, 0.0, 1.0, 0.7)
R_STAR = 0.3366722766318828
# var_s - cov_xs**2 / var_x rounds to 0 here, so the label's noise is clamped
ZERO_RESIDUAL = GaussianPairSource(0.25, 0.9317519014656098, -1.0, 8.343177061768637,
                                   2.7881483266797673)
# cov_xxhat**2 underflows to 0 here (t = 0.25)
TINY_SRC = GaussianPairSource(0.0, 1e-60, 0.0, 1.0, 0.5e-30)
TINY_REC = GaussianReconstruction(0.0, 1e-300, 5e-181)


def mmse_reconstruction():
    rep = encoder_for_rate(UNIT, R_STAR)
    return linear_decoder_stats(UNIT, rep, LinearDecoder(0.7))


class TestSampleJoint:
    def test_bit_identical_regeneration(self):
        rec = mmse_reconstruction()
        a = sample_joint(UNIT, rec, 4, seed=2024)
        b = sample_joint(UNIT, rec, 4, seed=2024)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.xhat, b.xhat)

    def test_different_seeds_differ(self):
        rec = mmse_reconstruction()
        a = sample_joint(UNIT, rec, 100, seed=0)
        b = sample_joint(UNIT, rec, 100, seed=1)
        assert not np.array_equal(a.x, b.x)

    def test_source_covariance_reproduced(self):
        n = 1_000_000
        rec = mmse_reconstruction()
        batch = sample_joint(UNIT, rec, n, seed=7)
        cov = float(np.cov(batch.x, batch.s, ddof=1)[0, 1])
        se = math.sqrt((1.0 + 0.49) / n)
        assert abs(cov - 0.7) <= 3.0 * se

    def test_independent_label(self):
        src = GaussianPairSource(0.0, 1.0, 0.0, 1.0, 0.0)
        z = GaussianReconstruction(0.0, 1.0, encoder_for_rate(src, 0.5).cov_xz)
        n = 100_000
        batch = sample_joint(src, z, n, seed=11)
        cov = float(np.cov(batch.x, batch.s, ddof=1)[0, 1])
        assert abs(cov) <= 3.0 / math.sqrt(n)

    def test_markov_conditional_independence(self):
        # Cov(S, W) = Cov(S, X) * Cov(X, W) / Var(X) under the chain
        n = 1_000_000
        rec = mmse_reconstruction()
        batch = sample_joint(UNIT, rec, n, seed=13)
        cov = np.cov(np.stack([batch.x, batch.s, batch.xhat]), ddof=1)
        expected = 0.7 * 0.49 / 1.0
        assert abs(cov[1, 2] - expected) <= 4.0 / math.sqrt(n)

    def test_invalid_covariance_rejected(self):
        bad = GaussianReconstruction(0.0, 0.25, 0.7)
        with pytest.raises(ParameterError):
            sample_joint(UNIT, bad, 100, seed=0)

    def test_invalid_covariance_rejected_at_tiny_scale(self):
        # cov_xxhat^2 underflows to 0 here, but t = 25; this once drew samples.
        src = GaussianPairSource(0.0, 1e-60, 0.0, 1.0, 0.5e-30)
        bad = GaussianReconstruction(0.0, 1e-300, 5e-180)
        with pytest.raises(ParameterError, match="not a valid covariance"):
            sample_joint(src, bad, 100, seed=0)

    def test_reconstruction_variance_at_tiny_scale(self):
        # cov_xxhat^2 underflows to 0 here (t = 0.25); the residual variance
        # of X̂ given X is var_xhat * (1 - t), not var_xhat.
        src = GaussianPairSource(0.0, 1e-60, 0.0, 1.0, 0.5e-30)
        rec = GaussianReconstruction(0.0, 1e-300, 5e-181)
        batch = sample_joint(src, rec, 200_000, seed=5)
        assert abs(float(np.var(batch.xhat, ddof=1)) / 1e-300 - 1.0) <= 0.02


def broadcast_rows(src, target, n, seed):
    """The rows of (x, s, x̂) in their broadcast form, one expression each."""
    t = squared_correlation(src, target)
    resid_s = src.var_s - src.cov_xs**2 / src.var_x
    resid_w = target.var_xhat * (1.0 - t)
    u = np.random.Generator(np.random.Philox(key=seed)).standard_normal((3, n))
    x = src.mu_x + math.sqrt(src.var_x) * u[0]
    centered = x - src.mu_x
    s = src.mu_s + (src.cov_xs / src.var_x) * centered + math.sqrt(max(resid_s, 0.0)) * u[1]
    w = target.mu_xhat + (target.cov_xxhat / src.var_x) * centered + math.sqrt(resid_w) * u[2]
    return x, s, w


def seeded_pairs():
    """(source, reconstruction) pairs drawn from seeded generators, then the
    zero-residual and tiny-scale pairs."""
    rng = np.random.default_rng(2504)
    for _ in range(6):
        var_x, var_s, var_h = np.exp(rng.uniform(-4.0, 4.0, 3)).tolist()
        mu_x, mu_s, mu_h = rng.normal(0.0, 3.0, 3).tolist()
        rho, r = rng.uniform(-0.99, 0.99, 2).tolist()
        src = GaussianPairSource(mu_x, var_x, mu_s, var_s, rho * math.sqrt(var_x * var_s))
        yield src, GaussianReconstruction(mu_h, var_h, r * math.sqrt(var_x * var_h))
    yield ZERO_RESIDUAL, GaussianReconstruction(0.5, 0.25, 0.25)
    yield ZERO_RESIDUAL, GaussianReconstruction(-1.0, 0.0, 0.0)  # constant decoder
    yield TINY_SRC, TINY_REC
    yield UNIT, GaussianReconstruction(0.0, 1.0, 1.0)  # identity: no noise on x̂


def stacked_estimates(batch):
    """``plugin_estimates`` in its stacked form: ``np.cov`` of the whole batch,
    and the mean and ``std(ddof=1)`` of the full squared-residual row."""
    n = batch.n
    dsq = (batch.x - batch.xhat) ** 2
    mse_hat, se_mse = float(dsq.mean()), float(dsq.std(ddof=1) / math.sqrt(n))
    cov = np.cov(batch.draws, ddof=1)
    var_x, var_s, var_h = cov[0, 0], cov[1, 1], cov[2, 2]
    degenerate = var_h <= 0.0 or var_s <= 0.0 or var_x <= 0.0
    se_h = math.sqrt(0.5 / n)
    if var_h <= 0.0:
        i_hat, se_i = 0.0, 0.0
        h_hat = differential_entropy(var_s) if var_s > 0.0 else math.nan
    else:
        r_sq = (cov[0, 2] / var_x) * (cov[0, 2] / var_h)
        if 1.0 - r_sq <= 1e-15:
            degenerate, i_hat, se_i = True, math.inf, math.nan
        else:
            i_hat, se_i = -0.5 * math.log1p(-r_sq), math.sqrt(r_sq) / math.sqrt(n)
        resid = var_s * (1.0 - (cov[1, 2] / var_s) * (cov[1, 2] / var_h))
        if resid <= 0.0:
            degenerate, h_hat, se_h = True, -math.inf, math.nan
        else:
            h_hat = differential_entropy(resid)
    return {
        "mse_hat": mse_hat, "i_xxhat_hat": float(i_hat), "h_s_given_xhat_hat": float(h_hat),
        "se_mse": se_mse, "se_i": float(se_i), "se_h": se_h, "degenerate": bool(degenerate),
    }


class TestDrawBuffer:
    def test_zero_residual_source_rounds_to_zero(self):
        src = ZERO_RESIDUAL
        assert src.var_s - src.cov_xs**2 / src.var_x == 0.0

    @pytest.mark.parametrize(
        "n, seed", [(1, 0), (7, 3), (1000, 2026), (4095, 4), (4096, 5), (4097, 6), (8193, 7)]
    )
    def test_rows_are_the_broadcast_forms_bit_for_bit(self, n, seed):
        for src, target in seeded_pairs():
            batch = sample_joint(src, target, n, seed)
            assert batch.draws.shape == (3, n) and batch.draws.dtype == np.float64
            want = broadcast_rows(src, target, n, seed)
            for got, want_row in zip((batch.x, batch.s, batch.xhat), want):
                np.testing.assert_array_equal(got.view(np.int64), want_row.view(np.int64))

    def test_rows_are_read_only_views_of_the_draws(self):
        batch = sample_joint(UNIT, mmse_reconstruction(), 10, seed=1)
        for i, row in enumerate((batch.x, batch.s, batch.xhat)):
            assert row.base is not None and np.shares_memory(row, batch.draws)
            assert np.array_equal(row, batch.draws[i])
            assert not row.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            batch.x[0] = 0.0

    def test_plugin_estimates_equal_the_stacked_form(self):
        # Up to one block: the same float operations in the same order.
        for n, (src, target) in itertools.product((100, 500, 4095, 4096), seeded_pairs()):
            batch = sample_joint(src, target, n, seed=9)
            want, got = stacked_estimates(batch), plugin_estimates(batch)
            assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()

    @pytest.mark.parametrize("n", [4097, 8193, 100_000])
    def test_plugin_estimates_meet_the_stacked_form(self, n):
        # Several blocks: only the order of the block sums differs.  The
        # dimensionless fields get an absolute bound, since they can be ~0.
        for src, target in seeded_pairs():
            batch = sample_joint(src, target, n, seed=9)
            want, got = stacked_estimates(batch), plugin_estimates(batch)
            assert got["degenerate"] == want["degenerate"]
            for key in ("mse_hat", "se_mse", "se_h"):
                assert got[key] == pytest.approx(want[key], rel=1e-13, abs=0.0)
            for key in ("i_xxhat_hat", "h_s_given_xhat_hat", "se_i"):
                assert got[key] == pytest.approx(want[key], rel=0.0, abs=1e-13, nan_ok=True)

    def test_memory(self):
        # No timing: tracemalloc counts numpy's buffers.  The batch is 24 B per
        # sample; sample_joint adds one 32 KB scratch block (~24.35 B per
        # sample in all at this n) and plugin_estimates 3 + 1 rows of _BLOCK
        # columns (~26.15 B).  A full scratch row and np.cov's copy of the
        # batch read 32 and 48.
        n = 100_000
        rec = mmse_reconstruction()
        plugin_estimates(sample_joint(UNIT, rec, 100, seed=0))  # first-call set-up
        tracemalloc.start()
        try:
            batch = sample_joint(UNIT, rec, n, seed=3)
            sample_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            plugin_estimates(batch)  # the batch it holds counts
            plugin_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample_peak <= 25 * n
        assert plugin_peak <= 27 * n


def finite_draws(n=200):
    return np.random.default_rng(5).standard_normal((3, n))


def with_entry(value):
    d = finite_draws()
    d[0, 5] = value
    return d


class TestSampleBatchContract:
    """The constructor applies ``sample_joint``'s n and seed rules and wants
    finite float64 draws: an infinite draw gave ``mse_hat = inf`` and NaN
    information with ``degenerate`` False, and integer draws NaN errors."""

    @pytest.mark.parametrize(
        "n, seed, draws",
        [
            pytest.param(200, 0, with_entry(math.inf), id="inf-draw"),
            pytest.param(200, 0, with_entry(-math.inf), id="minus-inf-draw"),
            pytest.param(200, 0, with_entry(math.nan), id="nan-draw"),
            pytest.param(True, 0, finite_draws(1), id="n-true"),
            pytest.param(200.0, 0, finite_draws(), id="n-float"),
            pytest.param(200, -1, finite_draws(), id="seed-negative"),
            pytest.param(200, "a", finite_draws(), id="seed-str"),
            pytest.param(200, 2**128, finite_draws(), id="seed-past-philox-key"),
            pytest.param(200, 0, np.arange(600).reshape(3, 200), id="integer-draws"),
            pytest.param(200, 0, finite_draws().astype(np.float32), id="float32-draws"),
            pytest.param(200, 0, finite_draws().tolist(), id="list-draws"),
        ],
    )
    def test_refused(self, n, seed, draws):
        with pytest.raises(ParameterError):
            SampleBatch(n, seed, draws)

    def test_numpy_integers_are_stored_as_ints(self):
        batch = SampleBatch(np.int64(200), np.uint8(3), finite_draws())
        assert (type(batch.n), type(batch.seed)) == (int, int)
        assert (batch.n, batch.seed) == (200, 3)

    def test_accepted_batch_estimates(self):
        est = plugin_estimates(SampleBatch(200, 0, finite_draws()))
        assert all(math.isfinite(v) for v in est.values())


class TestPluginEstimates:
    def test_identity_reconstruction_degenerate(self):
        rec = GaussianReconstruction(0.0, 1.0, 1.0)
        batch = sample_joint(UNIT, rec, 10_000, seed=5)
        est = plugin_estimates(batch)
        assert est["mse_hat"] == pytest.approx(0.0, abs=1e-12)
        assert est["degenerate"]
        assert est["i_xxhat_hat"] == math.inf

    def test_mmse_point_three_sigma(self):
        rec = mmse_reconstruction()
        batch = sample_joint(UNIT, rec, 1_000_000, seed=17)
        est = plugin_estimates(batch)
        assert not est["degenerate"]
        assert abs(est["mse_hat"] - 0.51) <= 3.0 * est["se_mse"]
        assert abs(est["i_xxhat_hat"] - R_STAR) <= 3.0 * est["se_i"]
        assert abs(est["h_s_given_xhat_hat"] - 1.2816543165514738) <= 3.0 * est["se_h"]

    def test_tiny_scale_pair_is_not_degenerate(self):
        # var_x * var_h underflows to 0 here; the two-ratio correlations do not.
        est = plugin_estimates(sample_joint(TINY_SRC, TINY_REC, 100_000, seed=3))
        assert not est["degenerate"]
        assert abs(est["mse_hat"] - mse_of_reconstruction(TINY_SRC, TINY_REC)) <= 3 * est["se_mse"]
        assert abs(est["i_xxhat_hat"] - mutual_info_x_xhat(TINY_SRC, TINY_REC)) <= 3 * est["se_i"]
        h = cond_entropy_s_given_xhat(TINY_SRC, TINY_REC)
        assert abs(est["h_s_given_xhat_hat"] - h) <= 3 * est["se_h"]

    def test_constant_decoder(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        stats = linear_decoder_stats(UNIT, rep, LinearDecoder(0.0))
        batch = sample_joint(UNIT, stats, 100_000, seed=19)
        est = plugin_estimates(batch)
        assert est["i_xxhat_hat"] == 0.0
        assert est["h_s_given_xhat_hat"] == pytest.approx(
            UNIT.h_s, abs=3.0 * est["se_h"]
        )

    def test_requires_minimum_samples(self):
        rec = mmse_reconstruction()
        batch = sample_joint(UNIT, rec, 50, seed=0)
        with pytest.raises(ParameterError):
            plugin_estimates(batch)

    def test_coverage_over_seeds(self):
        # Light version of the convergence invariant: 20 seeds at n = 2e5,
        # each closed form within 3 SE in at least 18 runs.
        rng_sources = np.random.default_rng(23)
        rec = mmse_reconstruction()
        truth = {
            "mse": mse_of_reconstruction(UNIT, rec),
            "i": mutual_info_x_xhat(UNIT, rec),
            "h": cond_entropy_s_given_xhat(UNIT, rec),
        }
        hits = {"mse": 0, "i": 0, "h": 0}
        for seed in range(20):
            batch = sample_joint(UNIT, rec, 200_000, seed=seed)
            est = plugin_estimates(batch)
            hits["mse"] += abs(est["mse_hat"] - truth["mse"]) <= 3 * est["se_mse"]
            hits["i"] += abs(est["i_xxhat_hat"] - truth["i"]) <= 3 * est["se_i"]
            hits["h"] += abs(est["h_s_given_xhat_hat"] - truth["h"]) <= 3 * est["se_h"]
        assert hits["mse"] >= 18 and hits["i"] >= 18 and hits["h"] >= 18
        del rng_sources
