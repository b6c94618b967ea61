"""Metamorphic properties of ``region_report`` on small discrete sources.

Four changes of the source have a known effect on every output of the
``discrete-region`` pass (frontier, extreme point A, c_min with B's
distortion, the outer-bound sweep and the encoder rate):

  * x -> 4x scales every distortion by exactly 16 and leaves every
    classification loss, count and rate bitwise unchanged.  Multiplying by a
    power of two commutes with rounding, so every float operation of the pass
    (the MMSE estimator, the squared distances, the transport cost, the
    frontier's D buckets and the outer tolerance) sees its inputs scaled and
    returns its output scaled, bit for bit;
  * permuting the S labels leaves every distortion bitwise unchanged and
    moves every classification loss by rounding only (1e-12 relative): the
    entropy terms are summed in another order.  The pmf masses are multiples
    of 1/16, so p_x sums exactly in any order and the distortions see the
    same p_x.  The frontier is compared as the step function
    d -> min{C : (D, C) on the frontier, D <= d}: a strict Pareto filter keeps
    or drops a point whose C ties another's to an ulp, and which one depends
    on the order of the sums.  Extreme point B is the first minimiser on the
    grid, so a tie that rounding breaks either way can move it; its
    distortion is not compared here;
  * permuting the Z labels permutes the decoders, so the frontier, A, c_min,
    the violation count and the rate move by rounding only: the sums over z
    run in another order.  B is left out, as above;
  * reflecting x -> -x (with the rows of the pmf and the encoder reversed)
    reflects the reconstruction alphabet and the decoder grid, and moves the
    same outputs by rounding only.  The encoder rows are made dyadic, so
    every MMSE atom reflects exactly and the alphabet stays the same size.
    The reflected source holds -0.0 where the base holds 0.0, and its
    alphabet still holds +0.0 only.

Every property also checks the corners on the base source: B is never left
of A in D, and when the budget admits A's distortion, c_min is no larger than
A's classification loss (up to rounding).
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdclab import Channel, DiscreteSource, InfeasibleBudgetError
from rdclab.discrete_region import region_report

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
# The bundled source and encoder at levels 8, with the CLI's default budget var_x.
FLIP_PMF = np.array([[0.5, 0.0], [0.0, 0.5]])
FLIP = (([-1.0, 1.0], 2, FLIP_PMF, [[0.9, 0.1], [0.1, 0.9]], 1.0, 8), [1, 0], [1, 0])
# A source atom 0.0, which reflects to -0.0, beside MMSE atoms -2/3 and 12/17.
ZERO_PMF = np.array([[2.0, 3.0], [1.0, 4.0], [5.0, 1.0]]) / 16.0
ZERO = (([-1.0, 0.0, 1.0], 2, ZERO_PMF, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], 1.0, 3), [1, 0], [1, 0])


@st.composite
def cases(draw):
    """(x_values, s_size, pmf, encoder rows, d_budget, levels) of a small
    source, and permutations of its S and Z labels."""
    n_x = draw(st.integers(2, 3))
    x = sorted(draw(st.sets(st.integers(-16, 16), min_size=n_x, max_size=n_x)))
    s_size = draw(st.integers(2, 3))
    cells = draw(st.lists(st.integers(0, n_x * s_size - 1), min_size=16, max_size=16))
    pmf = np.bincount(cells, minlength=n_x * s_size).reshape(n_x, s_size) / 16.0
    n_z = draw(st.integers(1, 2))
    rows = [draw(st.lists(st.integers(0, 3), min_size=n_z, max_size=n_z)) for _ in range(n_x)]
    encoder = [[w / sum(r) for w in r] if sum(r) else [1.0] + [0.0] * (n_z - 1) for r in rows]
    d_budget = draw(st.sampled_from([0.0, 0.25, 1.0, 4.0, math.inf]))
    levels = draw(st.sampled_from([3, 4]))
    s_perm, z_perm = draw(st.permutations(range(s_size))), draw(st.permutations(range(n_z)))
    return ([v / 8.0 for v in x], s_size, pmf, encoder, d_budget, levels), s_perm, z_perm


def _report(x, s_size, pmf, encoder, d_budget, levels):
    """region_report's tuple, or None where no grid decoder meets the budget."""
    try:
        return region_report(DiscreteSource(x, s_size, pmf), Channel(encoder), d_budget, levels)
    except InfeasibleBudgetError:
        return None


def _step(frontier, d):
    return min(c for dd, c in frontier if dd <= d)


def _check_corners(report, d_budget):
    """B is never left of A in D; c_min is at most C_A once A's D is in budget."""
    _, a, sol, _, _ = report
    assert sol.d_b >= a[0]
    if d_budget >= a[0]:
        assert sol.c_min <= a[1] * (1.0 + 1e-12)


def _le(x, y, scale):
    """x <= y up to rounding: 1e-12 relative, or 1e-12 * scale near zero."""
    return x <= y + 1e-12 * max(abs(y), scale)


def _near(x, y, scale):
    return _le(x, y, scale) and _le(y, x, scale)


def _covers(frontier, other, d_scale):
    """Each point of ``other`` is matched or beaten, up to rounding, by a
    point of ``frontier``: rounding may move a point's D across another's."""
    return all(
        any(_le(d, d_o, d_scale) and _le(c, c_o, 1.0) for d, c in frontier)
        for d_o, c_o in other
    )


def _assert_same_but_b(got, want, x):
    """Every output of ``want`` but B's within rounding of ``got``'s.  D is
    compared at the scale of the squared span of ``x``, C and rates in nats."""
    (frontier, a, sol, outer, rate), (frontier_w, a_w, sol_w, outer_w, rate_w) = got, want
    d_scale = (max(x) - min(x)) ** 2
    assert _covers(frontier, frontier_w, d_scale) and _covers(frontier_w, frontier, d_scale)
    assert _near(a[0], a_w[0], d_scale) and _near(a[1], a_w[1], 1.0)
    assert _near(sol.c_min, sol_w.c_min, 1.0)
    assert (outer[0], outer[2]) == (outer_w[0], outer_w[2])
    assert _near(rate, rate_w, 1.0)


@PROPERTY
@given(cases())
@example(FLIP)
def test_scaling_x_by_four_scales_every_distortion_by_sixteen(case_perm):
    (x, s_size, pmf, encoder, d_budget, levels), _, _ = case_perm
    base = _report(x, s_size, pmf, encoder, d_budget, levels)
    scaled = _report([4.0 * v for v in x], s_size, pmf, encoder, 16.0 * d_budget, levels)
    assert (base is None) == (scaled is None)
    if base is None:
        return
    _check_corners(base, d_budget)
    (frontier, a, sol, outer, rate), (frontier4, a4, sol4, outer4, rate4) = base, scaled
    assert frontier4 == [(16.0 * d, c) for d, c in frontier]
    assert a4 == (16.0 * a[0], a[1])
    assert (sol4.d_b, sol4.c_min) == (16.0 * sol.d_b, sol.c_min)
    assert outer4 == (outer[0], 16.0 * outer[1], outer[2])
    assert rate4 == rate


@PROPERTY
@given(cases())
@example(FLIP)
def test_permuting_s_labels_moves_classification_losses_by_rounding_only(case_perm):
    (x, s_size, pmf, encoder, d_budget, levels), perm, _ = case_perm
    base = _report(x, s_size, pmf, encoder, d_budget, levels)
    permuted = _report(x, s_size, pmf[:, perm], encoder, d_budget, levels)
    assert (base is None) == (permuted is None)
    if base is None:
        return
    _check_corners(base, d_budget)
    (frontier, a, sol, outer, rate), (frontier_p, a_p, sol_p, outer_p, rate_p) = base, permuted
    for d in sorted({d for d, _ in frontier + frontier_p}):
        assert math.isclose(_step(frontier_p, d), _step(frontier, d), rel_tol=1e-12)
    assert a_p[0] == a[0] and math.isclose(a_p[1], a[1], rel_tol=1e-12)
    assert math.isclose(sol_p.c_min, sol.c_min, rel_tol=1e-12)
    assert (outer_p, rate_p) == (outer, rate)


@PROPERTY
@given(cases())
@example(FLIP)
def test_permuting_z_labels_moves_every_output_but_b_by_rounding_only(case_perm):
    (x, s_size, pmf, encoder, d_budget, levels), _, perm = case_perm
    base = _report(x, s_size, pmf, encoder, d_budget, levels)
    permuted = _report(x, s_size, pmf, np.array(encoder)[:, perm], d_budget, levels)
    assert (base is None) == (permuted is None)
    if base is None:
        return
    _check_corners(base, d_budget)
    _assert_same_but_b(permuted, base, x)


@PROPERTY
@given(cases())
@example(FLIP)
@example(ZERO)
def test_reflecting_x_moves_every_output_but_b_by_rounding_only(case_perm):
    (x, s_size, pmf, encoder, d_budget, levels), _, _ = case_perm
    # Rows rounded to quarters: every p(x, z) and sum over x is then exact, so
    # each MMSE atom reflects to its exact negative.
    encoder = [[round(4.0 * r[0]) / 4.0, 1.0 - round(4.0 * r[0]) / 4.0][: len(r)] for r in encoder]
    base = _report(x, s_size, pmf, encoder, d_budget, levels)
    reflected = _report([-v for v in reversed(x)], s_size, pmf[::-1], encoder[::-1], d_budget, levels)
    assert (base is None) == (reflected is None)
    if base is None:
        return
    _check_corners(base, d_budget)
    _assert_same_but_b(reflected, base, x)
    support = reflected[2].p_xhat.support
    assert not any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in support)
