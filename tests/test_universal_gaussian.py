"""Fixed-encoder construction: decoder stats, gamma invariance, rate penalty."""

import math

import numpy as np
import pytest

from rdclab import (
    ConstraintSet,
    GaussianPairSource,
    GaussianRepresentation,
    LinearDecoder,
    ParameterError,
    achieved_point,
    c_min,
    c_threshold,
    encoder_for_rate,
    gamma_for_classification,
    linear_decoder_stats,
    mmse_gain,
    mutual_info_x_xhat,
    rate_penalty,
    rdc_rate,
    region_sweep,
)

H_UNIT = 1.4189385332046727
R_STAR = 0.3366722766318828  # -0.5*ln(0.51)
UNIT = GaussianPairSource(0.0, 1.0, 0.0, 1.0, 0.7)


def random_source(rng):
    sx = rng.uniform(0.5, 2.0)
    ss = rng.uniform(0.5, 2.0)
    rho = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.95)
    return GaussianPairSource(rng.normal(), sx**2, rng.normal(), ss**2, rho * sx * ss)


class TestEncoderForRate:
    def test_zero_rate(self):
        assert encoder_for_rate(UNIT, 0.0).cov_xz == 0.0

    def test_mmse_rate(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        assert rep.cov_xz == pytest.approx(0.7, abs=1e-12)

    def test_rate_two(self):
        rep = encoder_for_rate(UNIT, 2.0)
        assert rep.cov_xz == pytest.approx(math.sqrt(-math.expm1(-4.0)), abs=1e-15)
        assert rep.cov_xz == pytest.approx(0.9907998592608226, abs=1e-12)

    def test_rate_is_reproduced_exactly(self):
        # I(X; Z) computed through the generic mutual-information closed form
        rng = np.random.default_rng(3)
        for _ in range(50):
            src = random_source(rng)
            rate = rng.uniform(0.0, 4.0)
            rep = encoder_for_rate(src, rate)
            as_rec = linear_decoder_stats(src, rep, LinearDecoder(1.0))
            assert mutual_info_x_xhat(src, as_rec) == pytest.approx(rate, abs=1e-12)

    def test_negative_rate_raises(self):
        with pytest.raises(ParameterError):
            encoder_for_rate(UNIT, -0.1)

    def test_representation_identity_enforced(self):
        # cov_xz^2 = var_x * (1 - e^(-2R)) has a rate R in [0, inf] iff
        # cov_xz^2 <= var_x, so a larger covariance is no representation.
        bad = GaussianRepresentation(cov_xz=1.1)
        for gain in (1.0, 0.0):
            with pytest.raises(ParameterError, match="not a valid covariance"):
                linear_decoder_stats(UNIT, bad, LinearDecoder(gain))

    def test_representation_identity_is_relative_to_var_x(self):
        # cov_xz = 2e-6 needs var_x >= 4e-12; it would decode to D = 0 at
        # var_x = 1e-12, as if the rate were infinite.
        small = GaussianPairSource(0.0, 1e-12, 0.0, 1.0, 5e-7)
        with pytest.raises(ParameterError, match="not a valid covariance"):
            achieved_point(small, GaussianRepresentation(cov_xz=2e-6), LinearDecoder(1e-6))
        d, _ = achieved_point(small, encoder_for_rate(small, 0.1), LinearDecoder(4.35e-7))
        assert d >= 1e-12 * math.exp(-0.2)

    def test_gain_with_subnormal_square_is_legal(self):
        # gamma^2 rounds as a subnormal; checking the decoded X̂ against
        # var_x * var_xhat would refuse this valid decoder.
        src = GaussianPairSource(0.0, 0.7, 0.0, 1.0, 0.1)
        stats = linear_decoder_stats(src, encoder_for_rate(src, 30.0), LinearDecoder(3e-161))
        assert stats.var_xhat > 0.0


class TestLinearDecoderStats:
    def test_constant_decoder(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        stats = linear_decoder_stats(UNIT, rep, LinearDecoder(0.0))
        d, c = achieved_point(UNIT, rep, LinearDecoder(0.0))
        assert stats.var_xhat == 0.0 and stats.cov_xxhat == 0.0
        assert d == pytest.approx(1.0) and c == pytest.approx(H_UNIT)

    def test_mmse_gain(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        stats = linear_decoder_stats(UNIT, rep, LinearDecoder(0.7))
        assert stats.cov_xxhat == pytest.approx(0.49, abs=1e-12)
        assert stats.var_xhat == pytest.approx(0.49, abs=1e-12)
        d, _ = achieved_point(UNIT, rep, LinearDecoder(0.7))
        assert d == pytest.approx(0.51, abs=1e-12)

    def test_unit_gain(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        d, _ = achieved_point(UNIT, rep, LinearDecoder(1.0))
        assert d == pytest.approx(0.6, abs=1e-12)

    def test_sign_tracks_negative_correlation(self):
        src = GaussianPairSource(0.0, 1.0, 0.0, 1.0, -0.7)
        rep = encoder_for_rate(src, R_STAR)
        stats = linear_decoder_stats(src, rep, LinearDecoder(-0.7))
        assert stats.cov_xxhat == pytest.approx(-0.49, abs=1e-12)
        assert stats.var_xhat == pytest.approx(0.49, abs=1e-12)


class TestGammaForClassification:
    def test_published_value(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        assert gamma_for_classification(UNIT, rep, 1.2) == pytest.approx(
            0.8506838546201448, abs=1e-12
        )

    def test_zero_demand(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        assert gamma_for_classification(UNIT, rep, H_UNIT) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_full_demand_unit_instance(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        assert gamma_for_classification(UNIT, rep, c_min(UNIT)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_out_of_range_raises(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        with pytest.raises(ParameterError):
            gamma_for_classification(UNIT, rep, H_UNIT + 0.1)
        with pytest.raises(ParameterError):
            gamma_for_classification(UNIT, rep, c_min(UNIT) - 0.1)

    def test_achieved_loss_is_threshold_not_budget(self):
        # The transcription pins sigma and covariance jointly; a linear decode
        # lands at c_threshold(R) regardless of the requested budget.
        rep = encoder_for_rate(UNIT, R_STAR)
        g = gamma_for_classification(UNIT, rep, 1.2)
        _, c = achieved_point(UNIT, rep, LinearDecoder(g))
        assert c == pytest.approx(c_threshold(UNIT, R_STAR), abs=1e-12)
        assert abs(c - 1.2) > 0.05


class TestAchievedPoint:
    def test_mmse_point_values(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        d, c = achieved_point(UNIT, rep, LinearDecoder(0.7))
        assert d == pytest.approx(0.51, abs=1e-12)
        assert c == pytest.approx(1.2816543165514738, abs=1e-12)

    def test_loss_unchanged_by_gain(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        d, c = achieved_point(UNIT, rep, LinearDecoder(3.0))
        assert d == pytest.approx(5.8, abs=1e-12)
        assert c == pytest.approx(1.2816543165514738, abs=1e-12)

    def test_gamma_invariance_exact(self):
        rng = np.random.default_rng(19)
        gammas = np.arange(0.05, 20.0001, 0.05)
        for _ in range(50):
            src = random_source(rng)
            rate = rng.uniform(0.01, 3.0)
            rep = encoder_for_rate(src, rate)
            target = c_threshold(src, rate)
            worst = max(
                abs(achieved_point(src, rep, LinearDecoder(float(g)))[1] - target)
                for g in gammas
            )
            assert worst <= 1e-12

    def test_data_processing_rate(self):
        rng = np.random.default_rng(23)
        rep = encoder_for_rate(UNIT, 0.8)
        for g in (0.05, 0.7, 1.0, 4.0, -2.0):
            stats = linear_decoder_stats(UNIT, rep, LinearDecoder(g))
            assert mutual_info_x_xhat(UNIT, stats) == pytest.approx(0.8, abs=1e-12)
        stats0 = linear_decoder_stats(UNIT, rep, LinearDecoder(0.0))
        assert mutual_info_x_xhat(UNIT, stats0) == 0.0
        del rng


class TestRegionSweep:
    def test_constant_only(self):
        rep = encoder_for_rate(UNIT, 0.34)
        pts = region_sweep(UNIT, rep, [0.0])
        assert len(pts) == 1
        assert pts[0][0] == pytest.approx(1.0) and pts[0][1] == pytest.approx(H_UNIT)

    def test_single_mmse_gain(self):
        rep = encoder_for_rate(UNIT, R_STAR)
        pts = region_sweep(UNIT, rep, [0.7])
        assert pts[0][0] == pytest.approx(0.51, abs=1e-12)
        assert pts[0][1] == pytest.approx(1.2816543165514738, abs=1e-12)
        assert pts[1][0] == pytest.approx(1.0)  # appended constant decoder

    def test_minimum_distortion_at_mmse_gain(self):
        rep = encoder_for_rate(UNIT, 0.34)
        grid = np.union1d(np.linspace(0.0, 2.5, 200), [mmse_gain(rep)])
        pts = region_sweep(UNIT, rep, grid)
        assert min(d for d, _ in pts) == pytest.approx(math.exp(-0.68), abs=1e-12)

    def test_distortion_strictly_convex_in_gain(self):
        rep = encoder_for_rate(UNIT, 0.34)
        gstar = mmse_gain(rep)
        gs = np.linspace(0.0, 3.0, 121)
        ds = [achieved_point(UNIT, rep, LinearDecoder(float(g)))[0] for g in gs]
        best = int(np.argmin(ds))
        assert gs[best] == pytest.approx(gstar, abs=gs[1] - gs[0])
        diffs = np.diff(ds)
        assert np.all(diffs[: best - 1] < 0.0) and np.all(diffs[best + 1 :] > 0.0)

    def test_mmse_dominance(self):
        # The single gain gamma* dominates every pair the rate can serve.
        rng = np.random.default_rng(29)
        rate = 0.34
        rep = encoder_for_rate(UNIT, rate)
        d_star, c_star = achieved_point(UNIT, rep, LinearDecoder(mmse_gain(rep)))
        for _ in range(200):
            d = rng.uniform(0.05, 1.5)
            c = rng.uniform(c_min(UNIT) + 0.01, H_UNIT + 0.5)
            v = rdc_rate(UNIT, d, c)
            if v.status != "feasible" or v.value > rate:
                continue
            assert d_star <= d + 1e-12 and c_star <= c + 1e-12


class TestRatePenalty:
    def test_boundary_point(self):
        d0 = math.exp(-2.0 * 0.25)
        theta = ConstraintSet(((d0, c_threshold(UNIT, 0.25)),))
        assert rate_penalty(UNIT, theta) <= 1e-9

    def test_trivial_point(self):
        theta = ConstraintSet(((1.0, H_UNIT),))
        assert abs(rate_penalty(UNIT, theta)) <= 1e-9

    def test_sampled_achievable_set(self):
        rng = np.random.default_rng(31)
        rate = 0.34
        pairs = []
        for _ in range(20):
            c = rng.uniform(c_threshold(UNIT, rate), H_UNIT)
            d = rng.uniform(math.exp(-2.0 * rate), 1.5)
            pairs.append((d, c))
        penalty = rate_penalty(UNIT, ConstraintSet(tuple(pairs)))
        assert penalty <= 1e-9

    def test_infeasible_pair_raises(self):
        theta = ConstraintSet(((0.5, c_min(UNIT) - 0.05),))
        with pytest.raises(ParameterError):
            rate_penalty(UNIT, theta)

    def test_unbounded_pair_raises(self):
        theta = ConstraintSet(((0.0, H_UNIT),))
        with pytest.raises(ParameterError):
            rate_penalty(UNIT, theta)
