"""Closed-form Gaussian functionals: frozen values and structural identities.

Frozen constants were computed with a 40-digit mpmath evaluation of the same
expressions; Monte Carlo cross-checks live in test_validation_oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdclab import (
    GaussianPairSource,
    GaussianReconstruction,
    ParameterError,
    TradeoffPoint,
    cond_entropy_s_given_xhat,
    differential_entropy,
    gaussian_w2_squared,
    mse_of_reconstruction,
    mutual_info_x_xhat,
)
from rdclab._kernels import w2_quantile_pairs
from rdclab.discrete_region import discretize_gaussian
from rdclab.gaussian_model import squared_correlation
from rdclab.gaussian_tradeoff import c_min, c_threshold

H_UNIT = 1.4189385332046727  # 0.5*ln(2*pi*e)
UNIT = GaussianPairSource(0.0, 1.0, 0.0, 1.0, 0.7)


def random_source(rng):
    sx = rng.uniform(0.5, 2.0)
    ss = rng.uniform(0.5, 2.0)
    rho = rng.uniform(-0.95, 0.95)
    return GaussianPairSource(rng.normal(), sx**2, rng.normal(), ss**2, rho * sx * ss)


class TestDifferentialEntropy:
    def test_unit_variance(self):
        assert differential_entropy(1.0) == pytest.approx(H_UNIT, abs=1e-15)

    def test_half_nat_variance(self):
        assert differential_entropy(1.0 / (2.0 * math.pi)) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_variance_four(self):
        assert differential_entropy(4.0) == pytest.approx(
            2.112085713764618, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_variance_raises(self, bad):
        with pytest.raises(ParameterError):
            differential_entropy(bad)


class TestMutualInfo:
    def test_independent_is_zero(self):
        rec = GaussianReconstruction(0.0, 0.7, 0.0)
        assert mutual_info_x_xhat(UNIT, rec) == 0.0

    def test_constant_decoder_is_zero(self):
        rec = GaussianReconstruction(0.3, 0.0, 0.0)
        assert mutual_info_x_xhat(UNIT, rec) == 0.0

    def test_mmse_point(self):
        rec = GaussianReconstruction(0.0, 0.49, 0.49)
        assert mutual_info_x_xhat(UNIT, rec) == pytest.approx(
            0.3366722766318828, abs=1e-12
        )

    def test_high_correlation(self):
        rec = GaussianReconstruction(0.0, 1.0, 0.99)
        assert mutual_info_x_xhat(UNIT, rec) == pytest.approx(
            1.9585177736258452, abs=1e-12
        )

    def test_singular_correlation_is_infinite(self):
        rec = GaussianReconstruction(0.0, 1.0, 1.0)
        assert mutual_info_x_xhat(UNIT, rec) == math.inf

    def test_sign_flip_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            src = random_source(rng)
            var_h = rng.uniform(0.1, 3.0)
            theta2 = rng.uniform(-0.99, 0.99) * math.sqrt(src.var_x * var_h)
            base = mutual_info_x_xhat(src, GaussianReconstruction(0.0, var_h, theta2))
            flipped = mutual_info_x_xhat(
                src, GaussianReconstruction(0.0, var_h, -theta2)
            )
            a = rng.uniform(0.2, 5.0)
            scaled = mutual_info_x_xhat(
                src, GaussianReconstruction(0.0, var_h * a * a, theta2 * a)
            )
            assert flipped == base
            assert scaled == pytest.approx(base, abs=1e-12)


class TestCondEntropy:
    def test_uninformative_reconstruction_gives_label_entropy(self):
        rec = GaussianReconstruction(0.0, 0.0, 0.0)
        assert cond_entropy_s_given_xhat(UNIT, rec) == pytest.approx(
            H_UNIT, abs=1e-15
        )

    def test_mmse_point(self):
        rec = GaussianReconstruction(0.0, 0.49, 0.49)
        assert cond_entropy_s_given_xhat(UNIT, rec) == pytest.approx(
            1.2816543165514738, abs=1e-12
        )

    def test_label_sign_symmetry(self):
        src_neg = GaussianPairSource(0.0, 1.0, 0.0, 1.0, -0.7)
        rec = GaussianReconstruction(0.0, 0.49, 0.49)
        assert cond_entropy_s_given_xhat(src_neg, rec) == cond_entropy_s_given_xhat(
            UNIT, rec
        )

    def test_floor_and_equality_condition(self):
        # h(S|X̂) >= h(S) + 0.5*ln(1 - rho^2), equality iff theta2^2 = var_x*var_xhat
        rng = np.random.default_rng(11)
        for _ in range(100):
            src = random_source(rng)
            rho_sq = src.cov_xs**2 / (src.var_x * src.var_s)
            floor = src.h_s + 0.5 * math.log1p(-rho_sq)
            var_h = rng.uniform(0.1, 3.0)
            frac = rng.uniform(0.0, 1.0)
            theta2 = math.sqrt(frac * src.var_x * var_h)
            ce = cond_entropy_s_given_xhat(
                src, GaussianReconstruction(0.0, var_h, theta2)
            )
            assert ce >= floor - 1e-12
            at_max = cond_entropy_s_given_xhat(
                src, GaussianReconstruction(0.0, var_h, math.sqrt(src.var_x * var_h))
            )
            assert at_max == pytest.approx(floor, abs=1e-10)


class TestMse:
    def test_identity_reconstruction(self):
        rec = GaussianReconstruction(0.0, 1.0, 1.0)
        assert mse_of_reconstruction(UNIT, rec) == 0.0

    def test_mmse_point(self):
        rec = GaussianReconstruction(0.0, 0.49, 0.49)
        assert mse_of_reconstruction(UNIT, rec) == pytest.approx(0.51, abs=1e-15)

    def test_constant_decoder_with_mean_offset(self):
        rec = GaussianReconstruction(1.0, 0.0, 0.0)
        assert mse_of_reconstruction(UNIT, rec) == pytest.approx(2.0, abs=1e-15)

    def test_completing_the_square_floor(self):
        # mse >= var_x*(1 - t); equality iff matched means and
        # sigma_xhat = sigma_x*|corr(X, X̂)|.
        rng = np.random.default_rng(13)
        for _ in range(100):
            src = random_source(rng)
            var_h = rng.uniform(0.05, 4.0)
            t = rng.uniform(0.0, 0.999)
            theta2 = math.sqrt(t * src.var_x * var_h)
            rec = GaussianReconstruction(src.mu_x, var_h, theta2)
            floor = src.var_x * (1.0 - t)
            assert mse_of_reconstruction(src, rec) >= floor - 1e-12
            matched = GaussianReconstruction(
                src.mu_x, src.var_x * t, math.sqrt(t * src.var_x * src.var_x * t)
            )
            assert mse_of_reconstruction(src, matched) == pytest.approx(
                floor, abs=1e-10
            )


class TestGaussianW2:
    def test_identical(self):
        assert gaussian_w2_squared(0.3, 1.7, 0.3, 1.7) == 0.0

    def test_pure_mean_shift(self):
        assert gaussian_w2_squared(0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_scale_gap_against_quantile_oracle(self):
        # Closed form (sigma1 - sigma2)^2 = 1 vs the monotone coupling on a
        # 1e4-point equal-mass discretisation of each marginal.
        closed = gaussian_w2_squared(0.0, 1.0, 0.0, 4.0)
        assert closed == pytest.approx(1.0, abs=1e-15)
        pa = discretize_gaussian(0.0, 1.0, 10_000)
        pb = discretize_gaussian(0.0, 4.0, 10_000)
        oracle = w2_quantile_pairs(pa.support, pa.probs, pb.support, pb.probs)
        assert closed == pytest.approx(oracle, abs=1e-3)

    def test_negative_variance_raises(self):
        with pytest.raises(ParameterError):
            gaussian_w2_squared(0.0, -1.0, 0.0, 1.0)


class TestTypes:
    def test_source_requires_positive_variances(self):
        with pytest.raises(ParameterError):
            GaussianPairSource(0.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            GaussianPairSource(0.0, 1.0, 0.0, -1.0, 0.0)

    def test_source_cauchy_schwarz(self):
        with pytest.raises(ParameterError):
            GaussianPairSource(0.0, 1.0, 0.0, 1.0, 1.5)
        with pytest.raises(ParameterError):
            GaussianPairSource(0.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            GaussianPairSource(0.0, 4.0, 0.0, 9.0, -6.0)

    def test_reconstruction_invariants(self):
        with pytest.raises(ParameterError):
            GaussianReconstruction(0.0, -0.1, 0.0)
        rec = GaussianReconstruction(0.0, 0.25, 0.7)
        with pytest.raises(ParameterError):
            squared_correlation(UNIT, rec)
        assert squared_correlation(UNIT, GaussianReconstruction(0.0, 0.49, 0.49)) == 0.49

    def test_squared_correlation_reads_t_at_any_scale(self):
        # theta2^2 and var_x * var_xhat both underflow to 0 here, but t = 25.
        src = GaussianPairSource(0.0, 1e-60, 0.0, 1.0, 0.5e-30)
        with pytest.raises(ParameterError):
            squared_correlation(src, GaussianReconstruction(0.0, 1e-300, 5e-180))
        t = squared_correlation(src, GaussianReconstruction(0.0, 1e-300, 5e-181))
        assert t == pytest.approx(0.25, rel=1e-15)
        assert squared_correlation(src, GaussianReconstruction(0.0, 0.0, 0.0)) == 0.0
        with pytest.raises(ParameterError):
            squared_correlation(src, GaussianReconstruction(0.0, 0.0, 1e-200))

    def test_squared_correlation_rounds_to_one_within_tolerance(self):
        assert squared_correlation(UNIT, GaussianReconstruction(0.0, 1.0, 1.0 + 1e-13)) == 1.0
        with pytest.raises(ParameterError):
            squared_correlation(UNIT, GaussianReconstruction(0.0, 1.0, 1.0 + 1e-11))

    @pytest.mark.parametrize(
        "func", [mse_of_reconstruction, mutual_info_x_xhat, cond_entropy_s_given_xhat]
    )
    def test_functions_of_a_pair_refuse_t_above_one(self, func):
        # t = 1.2^2 = 1.44: these once returned 0.0, inf and 1.1958.
        with pytest.raises(ParameterError, match="not a valid covariance"):
            func(GaussianPairSource(0.0, 1.0, 0.0, 1.0, 0.5), GaussianReconstruction(0.0, 1.0, 1.2))

    def test_tradeoff_point_invariants(self):
        TradeoffPoint(rate=math.inf, distortion=0.0, closs=-math.inf)
        with pytest.raises(ParameterError):
            TradeoffPoint(rate=-0.1, distortion=0.0, closs=0.0)
        with pytest.raises(ParameterError):
            TradeoffPoint(rate=0.0, distortion=-0.1, closs=0.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0), st.booleans())
def test_source_one_ulp_below_perfect_correlation(log_var_x, log_var_s, negative):
    # Every accepted source has rho^2 < 1, so c_min, the loss at unbounded
    # rate and h(S|X̂) at t = 1 are finite.
    var_x, var_s = 10.0**log_var_x, 10.0**log_var_s
    cov = math.nextafter(math.sqrt(var_x * var_s), 0.0)
    try:
        src = GaussianPairSource(0.0, var_x, 0.0, var_s, -cov if negative else cov)
    except ParameterError:
        return  # the rounded square reached var_x * var_s
    assert src.rho_sq < 1.0
    perfect = GaussianReconstruction(0.0, var_x, var_x)
    assert squared_correlation(src, perfect) == 1.0
    for value in (c_min(src), c_threshold(src, math.inf), cond_entropy_s_given_xhat(src, perfect)):
        assert math.isfinite(value)
