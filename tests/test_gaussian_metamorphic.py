"""Metamorphic properties of the Gaussian closed forms.

Three changes of the source have a known effect on every output of
``boundary_curve``, the printed and oracle D(C, R) solvers, ``region_sweep``
and the Theorem 5 harness:

  * negating rho changes nothing, bit for bit: every formula reads Cov(X, S)
    through its square, so a decoder needs no sign of its own;
  * scaling sigma_s by b shifts every classification loss by ln b, as it
    shifts h(S), and leaves every distortion unchanged.  The printed boundary's
    distortion multiplies the rounding of c - h(S) by var_x / rho^2, so its
    tolerance carries that factor;
  * scaling sigma_x by a (with the decoder gains) scales every distortion by
    a^2 and leaves every classification loss unchanged.

The ``discrepancy-report`` summary counts do not move under any of the three.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdclab import (
    GaussianPairSource,
    boundary_curve,
    c_min,
    dcr_distortion_oracle,
    dcr_distortion_printed,
    encoder_for_rate,
    mmse_gain,
    region_sweep,
    theorem5_gaussian_harness,
)
from rdclab.cli import main

SIGMAS = st.floats(0.1, 10.0)
RHOS = st.floats(0.05, 0.95)
RATES = st.floats(0.05, 3.0)
# Where a classification budget sits, as a fraction of [c_min, h(S)]; past 1
# every budget is slack.
FRACTIONS = (0.0, 0.1, 0.5, 0.9, 1.0, 1.2)


def _source(sigma_x, sigma_s, rho):
    return GaussianPairSource(0.0, sigma_x**2, 0.0, sigma_s**2, rho * sigma_x * sigma_s)


def _outputs(src, rate, fractions=FRACTIONS):
    """name -> list of (label, D, C) over every function under test; C is None
    where it is the D solver's input, not an output."""
    lo, hi = c_min(src), src.h_s
    budgets = [lo + u * (hi - lo) for u in fractions]
    rep = encoder_for_rate(src, rate)
    g, sx = mmse_gain(rep), math.sqrt(src.var_x)
    gains = [-2.0 * sx, -g, 0.5 * g, g, 2.0 * sx]
    harness = theorem5_gaussian_harness(src, seed=7, n=3)
    printed = [dcr_distortion_printed(src, c, rate) for c in budgets]
    oracle = [dcr_distortion_oracle(src, c, rate) for c in budgets]
    return {
        "boundary": [(None, p.distortion, p.closs) for p in boundary_curve(src, rate, 8)],
        "printed": [(v.branch, v.value, None) for v in printed],
        "oracle": [(v.branch, v.value, None) for v in oracle],
        "sweep": [(None, d, c) for d, c in region_sweep(src, rep, gains)],
        "harness": [
            (r.rate, d, r.c3)
            for r in harness
            for d in (r.instance.d1, r.instance.d3, r.instance.d_b)
        ],
    }


@settings(derandomize=True, deadline=None, max_examples=40)
@given(SIGMAS, SIGMAS, RHOS, RATES)
def test_negating_rho_changes_nothing(sigma_x, sigma_s, rho, rate):
    assert _outputs(_source(sigma_x, sigma_s, -rho), rate) == _outputs(
        _source(sigma_x, sigma_s, rho), rate
    )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(SIGMAS, SIGMAS, RHOS, RATES, st.floats(0.1, 10.0))
def test_scaling_sigma_s_shifts_every_loss(sigma_x, sigma_s, rho, rate, b):
    base = _outputs(_source(sigma_x, sigma_s, rho), rate)
    scaled = _outputs(_source(sigma_x, b * sigma_s, rho), rate)
    var_x = sigma_x**2
    shift = math.log(b)
    for name, points in base.items():
        d_tol = 1e-12 * var_x / (rho * rho if name == "boundary" else 1.0)
        assert len(scaled[name]) == len(points), name
        for (label, d, c), (label_b, d_b, c_b) in zip(points, scaled[name]):
            assert label_b == label, name
            if d is None:
                assert d_b is None, name
            else:
                assert d_b == pytest.approx(d, rel=0, abs=d_tol), name
            if c is not None:
                assert c_b == pytest.approx(c + shift, rel=0, abs=1e-12 * max(1.0, abs(c))), name


@settings(derandomize=True, deadline=None, max_examples=40)
@given(SIGMAS, SIGMAS, RHOS, RATES, st.floats(1e-3, 1e3))
def test_scaling_sigma_x_scales_every_distortion(sigma_x, sigma_s, rho, rate, a):
    # c_min and h(S) are left out as budgets: rho^2 is rounded afresh at each
    # scale, so feasibility at the ends of the C interval can flip by one ulp.
    inner = tuple(u for u in FRACTIONS if u not in (0.0, 1.0))
    base = _outputs(_source(sigma_x, sigma_s, rho), rate, inner)
    scaled = _outputs(_source(a * sigma_x, sigma_s, rho), rate, inner)
    var_x = sigma_x**2
    for name, points in base.items():
        d_tol = 1e-12 * a * a * var_x / (rho * rho if name == "boundary" else 1.0)
        assert len(scaled[name]) == len(points), name
        for (label, d, c), (label_a, d_a, c_a) in zip(points, scaled[name]):
            assert label_a == label, name
            if d is None:
                assert d_a is None, name
            else:
                assert d_a == pytest.approx(a * a * d, rel=0, abs=d_tol), name
            if c is not None:
                assert c_a == pytest.approx(c, rel=0, abs=1e-12 * max(1.0, abs(c))), name


def _discrepancy_summary(tmp_path, rho, sigma_x, sigma_s):
    out = tmp_path / "report.json"
    argv = ["--rho", repr(rho), "--sigma-x", repr(sigma_x), "--sigma-s", repr(sigma_s)]
    assert main(["discrepancy-report", *argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())["summary"]


def test_discrepancy_summary_is_invariant(tmp_path):
    base = _discrepancy_summary(tmp_path, 0.7, 1.0, 1.0)
    for rho, sigma_x, sigma_s in [
        (-0.7, 1.0, 1.0),
        (0.7, 1.0, 1e-3),
        (0.7, 1e-5, 1.0),
        (-0.7, 1e3, 1.0),
        (0.7, 1e5, 1.0),
    ]:
        assert _discrepancy_summary(tmp_path, rho, sigma_x, sigma_s) == base, (rho, sigma_x, sigma_s)
