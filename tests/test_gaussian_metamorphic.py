"""Metamorphic properties of the Gaussian closed forms.

Two changes of the source have a known effect on every output of
``boundary_curve``, the printed and oracle D(C, R) solvers, ``region_sweep``
and the Theorem 5 harness:

  * negating rho changes nothing, bit for bit: every formula reads Cov(X, S)
    through its square, so a decoder needs no sign of its own;
  * scaling sigma_s by b shifts every classification loss by ln b, as it
    shifts h(S), and leaves every distortion unchanged.  The printed boundary's
    distortion multiplies the rounding of c - h(S) by var_x / rho^2, so its
    tolerance carries that factor.
"""

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

SIGMAS = st.floats(0.1, 10.0)
RHOS = st.floats(0.05, 0.95)
RATES = st.floats(0.05, 3.0)
# Where a classification budget sits, as a fraction of [c_min, h(S)]; past 1
# every budget is slack.
FRACTIONS = (0.0, 0.1, 0.5, 0.9, 1.0, 1.2)


def _source(sigma_x, sigma_s, rho):
    return GaussianPairSource(0.0, sigma_x**2, 0.0, sigma_s**2, rho * sigma_x * sigma_s)


def _outputs(src, rate):
    """name -> list of (label, D, C) over every function under test; C is None
    where it is the D solver's input, not an output."""
    lo, hi = c_min(src), src.h_s
    budgets = [lo + u * (hi - lo) for u in FRACTIONS]
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
