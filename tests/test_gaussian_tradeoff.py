"""Tradeoff functions: frozen values, branch logic, and oracle agreement.

The rate function has an independent transcription oracle here (the printed
three-branch form evaluated directly) plus the brute-force grid; the two
distortion functions are compared branch by branch, with the case-2 band
asserted as an oracle-infeasible region rather than papered over.
"""

import math

import numpy as np
import pytest

from rdclab import (
    GaussianPairSource,
    ParameterError,
    boundary_curve,
    c_min,
    c_threshold,
    dcr_distortion_oracle,
    dcr_distortion_printed,
    differential_entropy,
    grid_oracle_rate,
    max_useful_rate,
    rdc_rate,
)

H_UNIT = 1.4189385332046727
UNIT = GaussianPairSource(0.0, 1.0, 0.0, 1.0, 0.7)


def printed_theorem_rate(src, d, c):
    """Direct transcription of the published rate branches (test-side oracle)."""
    h_s = differential_entropy(src.var_s)
    rho_sq = src.cov_xs**2 / (src.var_x * src.var_s)
    if c > h_s and d > src.var_x:
        return 0.0
    k = (1.0 - math.exp(2.0 * (c - h_s))) / rho_sq
    cutoff = src.var_x * (1.0 - k)
    if d <= cutoff:
        return 0.5 * math.log(src.var_x / d)
    return max(0.0, -0.5 * math.log(1.0 - k))


class TestCMin:
    def test_unit_instance(self):
        assert c_min(UNIT) == pytest.approx(1.0822662565727899, abs=1e-12)

    def test_uncorrelated_label(self):
        src = GaussianPairSource(0.0, 1.0, 0.0, 1.0, 0.0)
        assert c_min(src) == pytest.approx(H_UNIT, abs=1e-15)

    def test_uncorrelated_wide_label(self):
        src = GaussianPairSource(0.0, 1.0, 0.0, 4.0, 0.0)
        assert c_min(src) == pytest.approx(2.112085713764618, abs=1e-12)

    def test_degenerate_pair(self):
        src = GaussianPairSource(0.0, 1.0, 0.0, 1.0, 1.0, allow_degenerate=True)
        assert c_min(src) == -math.inf

    def test_grid_rejects_everything_below(self):
        # Exhaustive-grid infeasibility just under the floor.
        v = grid_oracle_rate(UNIT, 10.0, c_min(UNIT) - 1e-6, 64, 64)
        assert v.status == "infeasible"

    def test_max_useful_rate(self):
        assert max_useful_rate(UNIT) == pytest.approx(0.3366722766318828, abs=1e-12)


class TestCThreshold:
    def test_zero_rate_gives_label_entropy(self):
        assert c_threshold(UNIT, 0.0) == pytest.approx(H_UNIT, abs=1e-15)

    def test_small_rate(self):
        assert c_threshold(UNIT, 0.1) == pytest.approx(1.372430065508957, abs=1e-12)

    def test_limit_is_c_min(self):
        assert c_threshold(UNIT, 50.0) == pytest.approx(c_min(UNIT), abs=1e-9)

    def test_monotone_decreasing(self):
        rates = np.linspace(0.0, 4.0, 120)
        vals = [c_threshold(UNIT, float(r)) for r in rates]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestRdcRate:
    def test_distortion_branch(self):
        v = rdc_rate(UNIT, 0.5, 2.0)
        assert v.status == "feasible"
        assert v.value == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert v.branch == "distortion"

    def test_classification_branch(self):
        v = rdc_rate(UNIT, 0.9, 1.2)
        assert v.status == "feasible"
        assert v.value == pytest.approx(0.6430671089150921, abs=1e-12)
        assert v.branch == "classification"

    def test_infeasible_below_c_min(self):
        assert rdc_rate(UNIT, 0.9, 1.0).status == "infeasible"

    def test_zero_distortion_unbounded(self):
        assert rdc_rate(UNIT, 0.0, 2.0).status == "unbounded"

    def test_zero_rate_corner(self):
        v = rdc_rate(UNIT, 1.5, 2.0)
        assert v.value == 0.0 and v.branch == "zero_rate"

    def test_matches_printed_branches(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            d = rng.uniform(0.02, 1.6)
            c = rng.uniform(c_min(UNIT) + 1e-6, H_UNIT + 0.6)
            v = rdc_rate(UNIT, d, c)
            assert v.status == "feasible"
            assert v.value == pytest.approx(printed_theorem_rate(UNIT, d, c), abs=1e-12)

    def test_monotone_in_both_arguments(self):
        ds = np.linspace(0.1, 1.4, 25)
        cs = np.linspace(c_min(UNIT) + 0.02, H_UNIT + 0.2, 25)
        rates = np.array([[rdc_rate(UNIT, d, c).value for c in cs] for d in ds])
        assert np.all(np.diff(rates, axis=0) <= 1e-12)
        assert np.all(np.diff(rates, axis=1) <= 1e-12)

    def test_midpoint_convexity_on_grid(self):
        ds = np.linspace(0.1, 1.4, 50)
        cs = np.linspace(c_min(UNIT) + 0.02, H_UNIT + 0.2, 50)
        rates = {
            (d, c): rdc_rate(UNIT, float(d), float(c)).value for d in ds for c in cs
        }
        rng = np.random.default_rng(17)
        for _ in range(400):
            i, j = rng.integers(0, 50, 2)
            k, l = rng.integers(0, 50, 2)
            mid = rdc_rate(
                UNIT, float(0.5 * (ds[i] + ds[k])), float(0.5 * (cs[j] + cs[l]))
            ).value
            assert mid <= 0.5 * (rates[(ds[i], cs[j])] + rates[(ds[k], cs[l])]) + 1e-9


class TestDcrPrinted:
    def test_case1(self):
        v = dcr_distortion_printed(UNIT, 1.4, 0.2)
        assert v.branch == "case1"
        assert v.value == pytest.approx(0.6703200460356393, abs=1e-12)

    def test_case2(self):
        v = dcr_distortion_printed(UNIT, 1.2, 0.2)
        assert v.branch == "case2"
        assert v.value == pytest.approx(0.2763369794886123, abs=1e-12)

    def test_infeasible(self):
        assert dcr_distortion_printed(UNIT, 1.0, 0.2).status == "infeasible"


class TestDcrOracle:
    def test_case1_matches_printed_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            r = rng.uniform(0.01, 1.5)
            thr = c_threshold(UNIT, r)
            c = rng.uniform(thr + 1e-9, H_UNIT + 0.5)
            printed = dcr_distortion_printed(UNIT, c, r)
            oracle = dcr_distortion_oracle(UNIT, c, r)
            assert printed.branch == "case1"
            assert oracle.value == printed.value  # identical expression

    def test_case2_band_is_infeasible(self):
        v = dcr_distortion_oracle(UNIT, 1.2, 0.2)
        assert v.status == "infeasible"
        # the required vs available squared correlation, frozen from mpmath
        t_min = (1.0 - math.exp(2.0 * (1.2 - H_UNIT))) / 0.49
        t_max = 1.0 - math.exp(-0.4)
        assert t_min == pytest.approx(0.7236630205113877, abs=1e-12)
        assert t_max == pytest.approx(0.3296799539643607, abs=1e-12)
        assert t_min > t_max
        # no feasible point exists: cheapest rate honouring the loss budget
        # alone already exceeds the rate budget
        cheapest = grid_oracle_rate(UNIT, 1e9, 1.2)
        assert cheapest.value > 0.2

    def test_infeasible_region_agrees_with_printed(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            c = rng.uniform(c_min(UNIT) - 0.5, c_min(UNIT) - 1e-9)
            r = rng.uniform(0.0, 1.0)
            assert dcr_distortion_printed(UNIT, c, r).status == "infeasible"
            assert dcr_distortion_oracle(UNIT, c, r).status == "infeasible"

    def test_zero_rate_constant_decoder(self):
        v = dcr_distortion_oracle(UNIT, H_UNIT + 1.0, 0.0)
        assert v.value == pytest.approx(1.0, abs=1e-15)

    def test_inversion_consistency_on_distortion_branch(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            d = rng.uniform(0.05, 0.99)
            c = rng.uniform(c_min(UNIT) + 0.01, H_UNIT + 0.5)
            v = rdc_rate(UNIT, d, c)
            if v.status != "feasible" or v.branch != "distortion":
                continue
            back = dcr_distortion_oracle(UNIT, c, v.value)
            assert back.status == "feasible"
            assert back.value == pytest.approx(d, abs=1e-9)


class TestGridOracle:
    def test_brackets_closed_form(self):
        v = grid_oracle_rate(UNIT, 0.5, 2.0)
        assert v.status == "feasible"
        assert abs(v.value - 0.34657359027997264) <= 0.02

    def test_constant_decoder_reachable(self):
        v = grid_oracle_rate(UNIT, 1.2, H_UNIT + 0.5)
        assert v.value == 0.0

    def test_infeasible_below_c_min_at_both_resolutions(self):
        for n in (64, 400):
            assert grid_oracle_rate(UNIT, 0.5, 1.0, n, n).status == "infeasible"

    def test_resolution_guard(self):
        with pytest.raises(ParameterError):
            grid_oracle_rate(UNIT, 0.5, 2.0, 8, 400)

    def test_never_beats_true_optimum(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            d = rng.uniform(0.2, 1.4)
            c = rng.uniform(c_min(UNIT) + 0.05, H_UNIT + 0.4)
            truth = rdc_rate(UNIT, d, c)
            grid = grid_oracle_rate(UNIT, d, c, 128, 128)
            assert truth.status == "feasible" and grid.status == "feasible"
            assert grid.value >= truth.value - 1e-9

    def test_converges_with_resolution(self):
        truth = rdc_rate(UNIT, 0.6, 1.3).value
        gaps = []
        for n in (64, 128, 256, 512):
            gaps.append(grid_oracle_rate(UNIT, 0.6, 1.3, n, n).value - truth)
        assert gaps[-1] <= gaps[0]
        assert gaps[-1] <= 5e-3


class TestBoundaryCurve:
    def test_endpoint_limits(self):
        pts = boundary_curve(UNIT, 0.34, 400)
        assert pts[0].closs == pytest.approx(c_min(UNIT), abs=1e-15)
        assert pts[0].distortion == pytest.approx(0.0, abs=1e-12)
        # approaching c_threshold from below the curve tends to var_x*e^{-2R}
        thr = c_threshold(UNIT, 0.34)
        assert pts[-1].closs < thr
        target = math.exp(-0.68)
        assert abs(pts[-1].distortion - target) <= 5e-3
        # exact algebraic limit at the threshold itself
        at_thr = dcr_distortion_printed(UNIT, thr, 0.34)
        assert at_thr.value == pytest.approx(target, abs=1e-12)

    def test_matches_case2_formula(self):
        # interior sample against the case-2 value at the same loss
        pts = boundary_curve(UNIT, 0.34, 100)
        for pt in pts[1:]:
            ref = dcr_distortion_printed(UNIT, pt.closs, 0.34)
            assert ref.branch == "case2"
            assert pt.distortion == pytest.approx(ref.value, abs=1e-12)

    def test_zero_rate_empty(self):
        assert boundary_curve(UNIT, 0.0, 50) == []

    def test_uncorrelated_label_empty(self):
        src = GaussianPairSource(0.0, 1.0, 0.0, 1.0, 0.0)
        assert boundary_curve(src, 0.3, 50) == []

    def test_requires_two_points(self):
        with pytest.raises(ParameterError):
            boundary_curve(UNIT, 0.3, 1)


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: GaussianPairSource(math.nan, 1, 0, 1, 0.5), id="mu_x-nan"),
            pytest.param(lambda: GaussianPairSource(math.inf, 1, 0, 1, 0.5), id="mu_x-inf"),
            pytest.param(lambda: GaussianPairSource(0, 1, math.nan, 1, 0.5), id="mu_s-nan"),
            pytest.param(lambda: GaussianPairSource(0, 1, -math.inf, 1, 0.5), id="mu_s-inf"),
            pytest.param(lambda: GaussianPairSource(0, 1, 0, 1, math.nan), id="cov_xs-nan"),
            pytest.param(lambda: rdc_rate(UNIT, 0.5, math.nan), id="rdc_rate"),
            pytest.param(lambda: dcr_distortion_oracle(UNIT, math.nan, 0.2), id="oracle"),
            pytest.param(lambda: dcr_distortion_printed(UNIT, math.nan, 0.2), id="printed"),
            pytest.param(lambda: grid_oracle_rate(UNIT, 0.5, math.nan), id="grid"),
        ],
    )
    def test_non_finite_is_rejected(self, call):
        with pytest.raises(ParameterError):
            call()

    @pytest.mark.parametrize(
        "solver, args",
        [
            (rdc_rate, lambda c: (0.5, c)),
            (dcr_distortion_oracle, lambda c: (c, 0.2)),
            (dcr_distortion_printed, lambda c: (c, 0.2)),
            (grid_oracle_rate, lambda c: (0.5, c)),
        ],
    )
    def test_infinite_closs_keeps_its_meaning(self, solver, args):
        # +inf is no classification budget, -inf one that nothing meets.
        assert solver(UNIT, *args(math.inf)).status == "feasible"
        assert solver(UNIT, *args(-math.inf)).status == "infeasible"
