"""Corner bounds: frozen arithmetic, harness properties, limiting regimes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdclab import (
    GaussianPairSource,
    ParameterError,
    Theorem5Instance,
    encoder_for_rate,
    gap_lower_bound,
    mmse_gain,
    ratio_lower_bound,
    region_sweep,
    sandwich_check,
    theorem5_gaussian_harness,
    upper_left_bounds,
)

UNIT = GaussianPairSource(0.0, 1.0, 0.0, 1.0, 0.7)
R_STAR = 0.3366722766318828


class TestGapLowerBound:
    def test_full_distortion_endpoint(self):
        inst = Theorem5Instance(1.0, 1.0, d1=1.0, d3=1.0)
        assert gap_lower_bound(inst) == pytest.approx(0.0, abs=1e-15)

    def test_near_zero_distortion(self):
        inst = Theorem5Instance(1.0, 1.0, d1=0.01, d3=0.5)
        expected = 2.0 - 2.0 * math.sqrt(0.99) - 0.02
        assert gap_lower_bound(inst) == pytest.approx(expected, abs=1e-15)
        assert gap_lower_bound(inst) == pytest.approx(-0.009974874, abs=1e-8)

    def test_vacuous_midrange(self):
        inst = Theorem5Instance(1.0, 1.0, d1=0.51, d3=0.5)
        assert gap_lower_bound(inst) == pytest.approx(-0.42, abs=1e-12)

    def test_d1_above_var_x_rejected(self):
        with pytest.raises(ParameterError):
            Theorem5Instance(1.0, 1.0, d1=1.1, d3=0.5)

    def test_assumption_guard(self):
        inst = Theorem5Instance(1.0, 0.5, d1=0.2, d3=2.0)
        with pytest.raises(ParameterError):
            gap_lower_bound(inst)


class TestRatioLowerBound:
    def test_full_distortion_endpoint(self):
        inst = Theorem5Instance(1.0, 1.0, d1=1.0, d3=1.0)
        assert ratio_lower_bound(inst) == pytest.approx(1.0, abs=1e-15)

    def test_midrange(self):
        inst = Theorem5Instance(1.0, 1.0, d1=0.51, d3=0.5)
        assert ratio_lower_bound(inst) == pytest.approx(0.6 / 1.02, abs=1e-12)

    def test_constant_decoder_corner(self):
        inst = Theorem5Instance(1.0, 0.0, d1=0.5, d3=0.5)
        assert ratio_lower_bound(inst) == pytest.approx(1.0, abs=1e-15)

    def test_zero_d1_guard(self):
        inst = Theorem5Instance(1.0, 1.0, d1=0.0, d3=0.0)
        assert ratio_lower_bound(inst) == math.inf


class TestSandwich:
    def test_holds(self):
        assert sandwich_check(Theorem5Instance(1.0, 1.0, d1=0.25, d3=0.4, d_b=0.3))

    def test_violated(self):
        assert not sandwich_check(Theorem5Instance(1.0, 1.0, d1=1.0, d3=0.4, d_b=0.5))

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            sandwich_check(Theorem5Instance(1.0, 1.0, d1=0.25, d3=0.4, d_b=-0.1))

    def test_missing_d_b_rejected(self):
        with pytest.raises(ParameterError):
            sandwich_check(Theorem5Instance(1.0, 1.0, d1=0.25, d3=0.4))

    def test_tolerance_follows_var_x(self):
        # 1e-12*var_x: an excess of 1e-9 is rounding at var_x = 1e4, not at 1.
        assert sandwich_check(Theorem5Instance(1e4, 1.0, d1=0.25, d3=0.4, d_b=0.4 + 1e-9))
        assert not sandwich_check(Theorem5Instance(1.0, 1.0, d1=0.25, d3=0.4, d_b=0.4 + 1e-9))


class TestUpperLeftBounds:
    def test_zero_d3(self):
        gap_ub, ratio_ub = upper_left_bounds(Theorem5Instance(1.0, 1.0, 0.5, 0.0))
        assert gap_ub == pytest.approx(0.0, abs=1e-15)
        assert ratio_ub == math.inf

    def test_d3_02(self):
        gap_ub, _ = upper_left_bounds(Theorem5Instance(1.0, 1.0, 0.5, 0.2))
        assert gap_ub == pytest.approx(0.09, abs=1e-12)

    def test_d3_two(self):
        _, ratio_ub = upper_left_bounds(Theorem5Instance(1.0, 1.0, 0.5, 2.0))
        assert ratio_ub == pytest.approx(1.0, abs=1e-12)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ParameterError):
            upper_left_bounds(Theorem5Instance(1.0, 0.0, 0.5, 0.2))


class TestHarness:
    def test_spec_instance(self):
        rec = theorem5_gaussian_harness(UNIT, rate=R_STAR, n=1)[0]
        assert rec.instance.d1 == pytest.approx(0.51, abs=1e-12)
        assert rec.instance.sigma_xhat3 == pytest.approx(0.7, abs=1e-12)
        assert rec.sandwich_holds and rec.gap_holds and rec.ratio_holds

    def test_random_instances_all_hold(self):
        records = theorem5_gaussian_harness(UNIT, seed=101, n=300)
        assert all(r.sandwich_holds for r in records)
        assert all(r.gap_holds for r in records)
        assert all(r.ratio_holds for r in records)
        assert all(r.instance.d3 - r.instance.d_b >= r.gap_lb - 1e-12 for r in records)

    def test_varied_sources(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            sx, ss = rng.uniform(0.5, 2.0, 2)
            rho = rng.uniform(-0.9, 0.9)
            src = GaussianPairSource(0.0, sx**2, 0.0, ss**2, rho * sx * ss)
            records = theorem5_gaussian_harness(src, seed=5, n=30)
            assert all(r.sandwich_holds and r.gap_holds and r.ratio_holds
                       for r in records)

    def test_zero_rate_degenerate(self):
        rec = theorem5_gaussian_harness(UNIT, rate=0.0, n=1)[0]
        assert rec.degenerate
        assert rec.gap_ub is None
        assert rec.sandwich_holds

    def test_seed_determinism(self):
        a = theorem5_gaussian_harness(UNIT, seed=9, n=20)
        b = theorem5_gaussian_harness(UNIT, seed=9, n=20)
        assert [r.instance for r in a] == [r.instance for r in b]

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            theorem5_gaussian_harness(UNIT, seed=-1, n=2)


class TestLimitingRegimes:
    """Behaviour of the bounds as D1 approaches its endpoints with the
    reconstruction deviation pinned to sigma_x (the zero-transport condition).

    The gap bound converges to 0 linearly as D1 -> 0 but only as
    O(sqrt(var_x - D1)) as D1 -> var_x: at D1 = 0.999*var_x its value is
    2 - 2*sqrt(0.001) - 1.998 = -0.0612, so two-sided closeness at that point
    holds only for sqrt-adjusted offsets (var_x - D1 <= 2.5e-5*var_x).
    """

    def test_gap_converges_near_zero_distortion(self):
        inst = Theorem5Instance(1.0, 1.0, d1=0.001, d3=0.001)
        assert abs(gap_lower_bound(inst)) <= 1e-2

    def test_gap_value_near_full_distortion(self):
        inst = Theorem5Instance(1.0, 1.0, d1=0.999, d3=0.999)
        val = gap_lower_bound(inst)
        assert val == pytest.approx(2.0 - 2.0 * math.sqrt(0.001) - 1.998, abs=1e-12)
        assert val <= 1e-2  # never forces a positive gap in this regime
        # sqrt-rate convergence: within 1e-2 once var_x - d1 <= 2.5e-5
        tight = Theorem5Instance(1.0, 1.0, d1=1.0 - 2.5e-5, d3=1.0 - 2.5e-5)
        assert abs(gap_lower_bound(tight)) <= 1e-2

    def test_ratio_value_near_full_distortion(self):
        inst = Theorem5Instance(1.0, 1.0, d1=0.999, d3=0.999)
        val = ratio_lower_bound(inst)
        assert val == pytest.approx(1.0 / (1.0 + math.sqrt(0.001)), abs=1e-12)
        assert val <= 1.0 + 1e-2  # consistent with a unit ratio
        tight = Theorem5Instance(1.0, 1.0, d1=1.0 - 1e-4, d3=1.0 - 1e-4)
        assert abs(ratio_lower_bound(tight) - 1.0) <= 1e-2

    def test_actual_gap_and_ratio_at_endpoints(self):
        # On the Gaussian harness the measured gap is 0 and the ratio is 1 at
        # both endpoint rates, far inside 1e-2.
        for d1_frac in (0.001, 0.999):
            rate = -0.5 * math.log(d1_frac)
            rec = theorem5_gaussian_harness(UNIT, rate=rate, n=1)[0]
            assert rec.instance.d1 == pytest.approx(d1_frac, abs=1e-12)
            gap = rec.instance.d3 - rec.instance.d_b
            assert abs(gap) <= 1e-2
            assert abs(rec.instance.d3 / rec.instance.d_b - 1.0) <= 1e-2

    def test_upper_left_zero_exactly_at_corner(self):
        gap_ub, _ = upper_left_bounds(Theorem5Instance(1.0, 1.0, 0.0, 0.0))
        assert gap_ub == 0.0


def _sweep_d_b(src, rep):
    """Extreme point B by brute force: the least D among 62 swept gains whose
    loss lies in the sweep's least-loss band.

    A gamma* whose square underflows is left out, because a ``LinearDecoder``
    refuses it; its D rounds to var_x, which the zero gain reaches too."""
    gains = [g for g in [mmse_gain(rep)] if abs(g) >= 2.0**-511]
    gammas = np.union1d(np.linspace(0.0, 3.0 * math.sqrt(src.var_x), 61), gains)
    sweep = region_sweep(src, rep, gammas)
    min_c = min(c for _, c in sweep)
    # All nonzero gains share the minimum loss up to last-bit noise; collect
    # the band rather than demanding exact float equality.
    band = 1e-9 * max(1.0, abs(min_c))
    return float(min(d for d, c in sweep if c <= min_c + band))


def _source(sigma_x, sigma_s, rho):
    return GaussianPairSource(0.0, sigma_x**2, 0.0, sigma_s**2, rho * sigma_x * sigma_s)


SIGMAS = st.floats(0.01, 100.0)
RHOS = st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True)


class TestClosedFormExtremeB:
    """The harness's D_b, the MSE at gamma*, against the gain sweep it replaced."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(SIGMAS, SIGMAS, RHOS, st.floats(0.01, 2.5, exclude_min=True, exclude_max=True))
    def test_equals_sweep_at_harness_rates(self, sigma_x, sigma_s, rho, rate):
        src = _source(sigma_x, sigma_s, rho)
        d_b = theorem5_gaussian_harness(src, rate=rate)[0].instance.d_b
        assert d_b == _sweep_d_b(src, encoder_for_rate(src, rate))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(SIGMAS, SIGMAS, RHOS, st.floats(0.0, 60.0))
    @example(1.0, 1.0, 0.0, 2.225073858507e-311)  # gamma* = 6.7e-156
    def test_within_rounding_of_sweep_at_any_rate(self, sigma_x, sigma_s, rho, rate):
        src = _source(sigma_x, sigma_s, rho)
        d_b = theorem5_gaussian_harness(src, rate=rate)[0].instance.d_b
        sweep = _sweep_d_b(src, encoder_for_rate(src, rate))
        assert sweep <= d_b <= sweep + 1e-15 * src.var_x

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        RHOS,
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-2, 1e2]),
    )
    def test_scaling_x_scales_d_and_keeps_verdicts(self, sigma_x, sigma_s, rho, seed, a):
        base = theorem5_gaussian_harness(_source(sigma_x, sigma_s, rho), seed=seed, n=10)
        scaled = theorem5_gaussian_harness(_source(a * sigma_x, sigma_s, rho), seed=seed, n=10)
        for r0, r1 in zip(base, scaled):
            for name in ("d1", "d3", "d_b"):
                want = a * a * getattr(r0.instance, name)
                assert getattr(r1.instance, name) == pytest.approx(want, rel=1e-12, abs=0)
            verdicts = [(r.sandwich_holds, r.gap_holds, r.ratio_holds) for r in (r0, r1)]
            assert verdicts[0] == verdicts[1]
