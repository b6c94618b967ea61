"""Monte Carlo plug-in oracles: determinism, convergence, degeneracy flags."""

import math

import numpy as np
import pytest

from rdclab import (
    GaussianPairSource,
    GaussianReconstruction,
    LinearDecoder,
    ParameterError,
    cond_entropy_s_given_xhat,
    encoder_for_rate,
    linear_decoder_stats,
    mse_of_reconstruction,
    mutual_info_x_xhat,
    plugin_estimates,
    sample_joint,
)

UNIT = GaussianPairSource(0.0, 1.0, 0.0, 1.0, 0.7)
R_STAR = 0.3366722766318828


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
