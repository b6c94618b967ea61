"""Metamorphic properties of ``region_report`` on small discrete sources.

Two changes of the source have a known effect on every output of the
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
    distortion is not compared here.
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
FLIP = (([-1.0, 1.0], 2, FLIP_PMF, [[0.9, 0.1], [0.1, 0.9]], 1.0, 8), [1, 0])


@st.composite
def cases(draw):
    """(x_values, s_size, pmf, encoder rows, d_budget, levels) of a small
    source, and a permutation of its S labels."""
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
    perm = draw(st.permutations(range(s_size)))
    return ([v / 8.0 for v in x], s_size, pmf, encoder, d_budget, levels), perm


def _report(x, s_size, pmf, encoder, d_budget, levels):
    """region_report's tuple, or None where no grid decoder meets the budget."""
    try:
        return region_report(DiscreteSource(x, s_size, pmf), Channel(encoder), d_budget, levels)
    except InfeasibleBudgetError:
        return None


def _step(frontier, d):
    return min(c for dd, c in frontier if dd <= d)


@PROPERTY
@given(cases())
@example(FLIP)
def test_scaling_x_by_four_scales_every_distortion_by_sixteen(case_perm):
    (x, s_size, pmf, encoder, d_budget, levels), _ = case_perm
    base = _report(x, s_size, pmf, encoder, d_budget, levels)
    scaled = _report([4.0 * v for v in x], s_size, pmf, encoder, 16.0 * d_budget, levels)
    assert (base is None) == (scaled is None)
    if base is None:
        return
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
    (x, s_size, pmf, encoder, d_budget, levels), perm = case_perm
    base = _report(x, s_size, pmf, encoder, d_budget, levels)
    permuted = _report(x, s_size, pmf[:, perm], encoder, d_budget, levels)
    assert (base is None) == (permuted is None)
    if base is None:
        return
    (frontier, a, sol, outer, rate), (frontier_p, a_p, sol_p, outer_p, rate_p) = base, permuted
    for d in sorted({d for d, _ in frontier + frontier_p}):
        assert math.isclose(_step(frontier_p, d), _step(frontier, d), rel_tol=1e-12)
    assert a_p[0] == a[0] and math.isclose(a_p[1], a[1], rel_tol=1e-12)
    assert math.isclose(sol_p.c_min, sol.c_min, rel_tol=1e-12)
    assert (outer_p, rate_p) == (outer, rate)
