"""Production kernels against their loop forms, kept here as reference oracles.

Each oracle evaluates one grid point or one decoder at a time with explicit
Python loops and walks the decoders with its own odometer, so it shares no
code with ``rdclab._kernels`` beyond the scalar quantile-coupling loop,
``w2_quantile_pairs``, which the row kernel ``_w2_rows`` must match bit for bit.
Three more references keep forms that faster ones replaced: the full-array
grid scan, the per-decoder product form of the entropy kernel and the
frontier filter that sorts every point.
"""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdclab import _kernels
from rdclab.cli import bundled_source_path, load_discrete_source
from rdclab.discrete_region import (
    Channel,
    DiscreteSource,
    _frontier,
    _grid,
    _simplex_grid,
    c_min_solver,
    extreme_point_a,
    mutual_info_xz,
    outer_bound_sweep,
    region_approx,
    region_report,
)
from rdclab.errors import VAR_RANGE, InfeasibleBudgetError, ParameterError

GOLDEN = Path(__file__).parent / "golden"
# |rho| just below 1, where rho^2 * t can round above 1 at the ends of a row.
NEAR_ONE = (0.9999999999999999, -0.9999999999999999, 1.0 - 1e-9)


def _grid_rate_scan_py(var_x, h_s, rho1_sq, d_budget, c_budget, n_sigma, n_theta):
    """Loop form of the grid scan."""
    sx = np.sqrt(var_x)
    found = False
    best_rate = np.inf
    for i in range(n_sigma):
        sig = 3.0 * sx * (i + 1) / n_sigma
        vh = sig * sig
        a = sx * sig
        for k in range(n_theta + 1):
            if k < n_theta:
                theta = -a + (2.0 * a) * k / (n_theta - 1)
            else:
                theta = 0.0
            mse = var_x + vh - 2.0 * theta
            if mse > d_budget:
                continue
            t = theta * theta / (var_x * vh)
            ce = h_s + 0.5 * np.log1p(-rho1_sq * t)
            if ce > c_budget:
                continue
            if t >= 1.0:
                rate = np.inf
            else:
                rate = -0.5 * np.log1p(-t)
            found = True
            best_rate = min(best_rate, rate)
    return found, best_rate


def _grid_arrays(var_x, h_s, rho1_sq, n_sigma, n_theta):
    """(mse, ce, rate) at every point of the grid, theta = 0 as the last column."""
    sx = np.sqrt(var_x)
    sig = 3.0 * sx * (np.arange(n_sigma, dtype=np.float64) + 1.0) / n_sigma
    vh = (sig * sig)[:, None]
    a = (sx * sig)[:, None]
    ks = np.arange(n_theta, dtype=np.float64)[None, :]
    theta = -a + (2.0 * a) * ks / (n_theta - 1)
    theta = np.concatenate([theta, np.zeros((n_sigma, 1))], axis=1)
    mse = var_x + vh - 2.0 * theta
    t = theta * theta / (var_x * vh)
    with np.errstate(divide="ignore", invalid="ignore"):
        ce = h_s + 0.5 * np.log1p(-rho1_sq * t)
        rate = np.where(t >= 1.0, np.inf, -0.5 * np.log1p(-np.minimum(t, 1.0)))
    return mse, ce, rate


def grid_rate_scan_full(var_x, h_s, rho1_sq, d_budget, c_budget, n_sigma, n_theta):
    """The grid scan evaluating every point: the least rate of the feasible ones."""
    mse, ce, rate = _grid_arrays(var_x, h_s, rho1_sq, n_sigma, n_theta)
    feasible = (mse <= d_budget) & (ce <= c_budget)
    if not feasible.any():
        return False, np.inf
    return True, float(rate[feasible].min())


def assert_same_scan(got, ref):
    """Equal ``found`` and the same rate, bit for bit."""
    assert got[0] == ref[0]
    assert np.float64(got[1]).tobytes() == np.float64(ref[1]).tobytes(), (got, ref)


@st.composite
def grid_cases(draw):
    """Kernel arguments over the source scales, with budgets at 0, +-inf, in
    the band the grid can meet, or exactly at one grid point's mse or ce."""
    var_x = math.exp(draw(st.floats(math.log(VAR_RANGE[0]), math.log(VAR_RANGE[1]))))
    rho = draw(st.one_of(st.just(0.0), st.floats(-0.999, 0.999), st.sampled_from(NEAR_ONE)))
    rho1_sq = rho * rho
    h_s = draw(st.floats(-70.0, 70.0))
    n_sigma, n_theta = draw(st.integers(16, 500)), draw(st.integers(16, 499))
    # "band" twice: a budget inside the band is where a row's boundaries fall.
    d_budget = draw(st.sampled_from([0.0, math.inf, "band", "band", "point"]))
    c_budget = draw(st.sampled_from([-math.inf, math.inf, "band", "band", "point"]))
    if d_budget == "band":
        d_budget = var_x * draw(st.floats(0.0, 3.0))
    if c_budget == "band":  # between c_min and h(S): the loss at some t in [0, 1]
        c_budget = h_s + 0.5 * math.log1p(-rho1_sq * draw(st.floats(0.0, 1.0)))
    if "point" in (d_budget, c_budget):
        mse, ce, _ = _grid_arrays(var_x, h_s, rho1_sq, n_sigma, n_theta)
        i, k = draw(st.integers(0, n_sigma - 1)), draw(st.integers(0, n_theta))
        d_budget = float(mse[i, k]) if d_budget == "point" else d_budget
        c_budget = float(ce[i, k]) if c_budget == "point" else c_budget
    return var_x, h_s, rho1_sq, d_budget, c_budget, n_sigma, n_theta


def _entropy_py(rows, joint_zs, idx):
    """H(S|X̂) of the decoder with row indices ``idx``, one joint cell at a time.

    The sums over s and over all cells use numpy's ``sum``, as the kernel
    does: numpy adds eight or more terms pairwise, so a running Python sum
    would differ from the kernel in the last bits.
    """
    m, n_s = rows.shape[1], joint_zs.shape[1]
    joint = np.zeros((m, n_s))
    for z, r in enumerate(idx):
        for k in range(m):
            w = rows[r, k]
            if w > 0.0:
                for s in range(n_s):
                    joint[k, s] += w * joint_zs[z, s]
    term = np.zeros((m, n_s))
    for k in range(m):
        pk = joint[k].sum()
        if pk > 0.0:
            lpk = np.log(pk)
            for s in range(n_s):
                v = joint[k, s]
                if v > 0.0:
                    term[k, s] = v * (lpk - np.log(v))
    return term.sum()


def _odometer(n_rows, n_z):
    """Every decoder's row indices, last symbol fastest."""
    idx = np.zeros(n_z, dtype=np.int64)
    for _ in range(n_rows**n_z):
        yield idx
        for z in range(n_z - 1, -1, -1):
            idx[z] += 1
            if idx[z] < n_rows:
                break
            idx[z] = 0


def _decoder_d_py(row_d, idx):
    d = 0.0
    for z, r in enumerate(idx):
        d += row_d[z, r]
    return d


def _dc_scan_py(rows, n_z, row_d, joint_zs):
    """Distortion and H(S|X̂) for every decoder combination (odometer order)."""
    out_d, out_c = [], []
    for idx in _odometer(rows.shape[0], n_z):
        out_d.append(_decoder_d_py(row_d, idx))
        out_c.append(_entropy_py(rows, joint_zs, idx))
    return np.array(out_d), np.array(out_c)


def _cmin_scan_py(rows, n_z, row_d, joint_zs, d_budget):
    """First (lexicographic) decoder minimising H(S|X̂) under the MSE budget."""
    best_c = np.inf
    best_flat = -1
    for flat, idx in enumerate(_odometer(rows.shape[0], n_z)):
        if _decoder_d_py(row_d, idx) <= d_budget:
            c = _entropy_py(rows, joint_zs, idx)
            if c < best_c:
                best_c = c
                best_flat = flat
    return best_flat, best_c


def _dc_scan_products(rows, n_z, row_d, joint_zs):
    """``dc_scan`` with each decoder's joint built from row-by-p(z, s)
    products, the form the value table replaced."""
    idx = np.array(list(itertools.product(range(rows.shape[0]), repeat=n_z)))
    d = np.zeros(idx.shape[0])
    joint = np.zeros((idx.shape[0], rows.shape[1], joint_zs.shape[1]))
    for z in range(n_z):
        d += row_d[z, idx[:, z]]
        joint += rows[idx[:, z]][:, :, None] * joint_zs[z][None, None, :]
    pk = joint.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = joint * (np.log(pk)[:, :, None] - np.log(joint))
    term[joint <= 0.0] = 0.0
    return d, term.sum(axis=(1, 2))


def _frontier_lexsort(d_all, c_all):
    """The Pareto filter with no prefilter: sort every point by (D, C)."""
    order = np.lexsort((c_all, d_all))
    d_all, c_all = d_all[order], c_all[order]
    best_before = np.minimum.accumulate(np.concatenate(([math.inf], c_all[:-1])))
    keep = c_all < best_before
    return [(float(d), float(c)) for d, c in zip(d_all[keep], c_all[keep])]


def _outer_scan_py(rows, n_z, row_d, p_z, vals, p_xtilde, residual, tol):
    """Count outer-bound violations D < residual + W2^2(p_xt, p_xhat) - tol."""
    m = rows.shape[1]
    p_xhat = np.empty(m)
    violations = 0
    min_slack = np.inf
    for idx in _odometer(rows.shape[0], n_z):
        for k in range(m):
            p_xhat[k] = 0.0
        for z in range(n_z):
            r = idx[z]
            w = p_z[z]
            for k in range(m):
                p_xhat[k] += w * rows[r, k]
        w2 = _kernels.w2_quantile_pairs(vals, p_xtilde, vals, p_xhat)
        slack = _decoder_d_py(row_d, idx) - residual - w2
        if slack < min_slack:
            min_slack = slack
        if slack < -tol:
            violations += 1
    return violations, min_slack


def _w2_quantile_integral(xv, xp, yv, yp):
    """W2^2 as the integral of (F^-1(u) - G^-1(u))^2 over merged CDF steps."""
    fx, fy = np.cumsum(xp), np.cumsum(yp)
    cuts = np.unique(np.concatenate([[0.0], fx, fy, [1.0]]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    i = np.minimum(np.searchsorted(fx, mid, side="right"), xv.size - 1)
    j = np.minimum(np.searchsorted(fy, mid, side="right"), yv.size - 1)
    return float(np.sum((xv[i] - yv[j]) ** 2 * np.diff(cuts)))


FLIP = (
    DiscreteSource(np.array([-1.0, 1.0]), 2, np.array([[0.5, 0.0], [0.0, 0.5]])),
    Channel(np.array([[0.9, 0.1], [0.1, 0.9]])),
)


def _w2_on_numpy_scalars(xv, xp, yv, yp):
    """The scalar quantile loop as it ran on numpy scalars, indexing the arrays."""
    i = j = 0
    mi, mj, cost = xp[0], yp[0], 0.0
    while True:
        m = mi if mi < mj else mj
        diff = xv[i] - yv[j]
        cost += m * diff * diff
        mi -= m
        mj -= m
        if mi <= 0.0:
            i += 1
            if i >= len(xv):
                break
            mi = xp[i]
        if mj <= 0.0:
            j += 1
            if j >= len(yv):
                break
            mj = yp[j]
    return float(cost)


def flip_arrays(levels=6):
    _, vals, rows, row_d, b = _grid(*FLIP, levels)
    return (rows, row_d, b), vals


def outer_scan_args(src, enc, levels):
    """The arguments ``outer_bound_sweep`` passes to ``outer_scan``."""
    red, vals, rows, row_d, _ = _grid(src, enc, levels)
    p_xt = np.zeros(vals.size)
    p_xt[np.searchsorted(vals, red.p_xtilde.support)] = red.p_xtilde.probs
    return rows, enc.n_out, row_d, src.p_x @ enc.matrix, vals, p_xt, red.residual


def _support(n):
    values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    return st.lists(values, min_size=n, max_size=n, unique=True).map(sorted)


def _masses(n):
    """n masses summing to about 1, zero-mass atoms included."""
    entries = st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n
    )

    def normalise(w):
        w = np.array(w)
        if w.sum() == 0.0:
            w[0] = 1.0
        return w / w.sum()

    return entries.map(normalise)


@st.composite
def w2_row_cases(draw):
    """One source marginal and rows of target masses on one shared support."""
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    xv = np.array(draw(_support(nx)))
    yv = xv if nx == ny and draw(st.booleans()) else np.array(draw(_support(ny)))
    rows = draw(st.lists(_masses(ny), min_size=1, max_size=8))
    return xv, draw(_masses(nx)), yv, np.array(rows)


@st.composite
def outer_cases(draw):
    """``outer_scan`` arguments from a seeded source whose p_X̃ has zero-mass
    atoms, as the source atoms that no MMSE atom meets do: first, last and
    inside the grid alphabet, or anywhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n_z = draw(st.integers(4, 6)), draw(st.integers(1, 2))
    vals = np.sort(rng.choice(np.arange(-20, 21), m, replace=False) / 4.0)
    edges_and_inside = st.just({0, m - 1, draw(st.integers(1, m - 2))})
    zero = draw(st.one_of(edges_and_inside, st.sets(st.integers(0, m - 1), max_size=m - 1)))
    p_xt = rng.dirichlet(np.ones(m))
    p_xt[list(zero)] = 0.0
    p_xt /= p_xt.sum()
    rows = _simplex_grid(draw(st.integers(1, 3)), m)
    row_d = rng.random((n_z, m)) @ rows.T
    residual = draw(st.floats(0.0, 2.0))
    return rows, n_z, row_d, rng.dirichlet(np.ones(n_z)), vals, p_xt, residual


class TestAgainstLoopOracles:
    def test_grid_scan_bitwise(self):
        args = (1.0, 1.4189385332046727, 0.49, 0.5, 2.0, 400, 400)
        got = _kernels.grid_rate_scan(*args)
        ref = _grid_rate_scan_py(*args)
        assert got == ref
        assert_same_scan(got, grid_rate_scan_full(*args))

    def test_grid_scan_infeasible_case(self):
        args = (1.0, 1.4189385332046727, 0.49, 0.5, 1.0, 64, 64)
        got = _kernels.grid_rate_scan(*args)
        ref = _grid_rate_scan_py(*args)
        assert not got[0] and not ref[0]
        assert_same_scan(got, grid_rate_scan_full(*args))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(grid_cases())
    @example((1e-60, 1.0, 0.0, 0.0, -math.inf, 16, 16))
    @example((1e60, -70.0, 0.9999999999999998, math.inf, math.inf, 500, 17))
    @example((1.0, 1.0, 0.9999999999999998, math.inf, -math.inf, 31, 400))
    # Only the lower half attains the minimum, by an ulp: c is the loss at
    # one of its points, whose mirror image across theta = 0 rounds apart.
    @example((0.3026294093259299, 0.4500712166612475, 0.5399303038346432, math.inf,
              0.44977116536856765, 24, 61))
    @example((1.0, -1.440842805829135, 0.7016244912819549, math.inf,
              -1.4424044074281046, 57, 31))
    @example((2.0, 1.1376497516315958, 0.2064458500389643, math.inf,
              1.1371907724785355, 23, 16))
    def test_grid_scan_matches_full_scan(self, case):
        # The halves of a row split at n_theta // 2, so check both parities.
        for n_theta in (case[-1], case[-1] + 1):
            args = (*case[:-1], n_theta)
            assert_same_scan(_kernels.grid_rate_scan(*args), grid_rate_scan_full(*args))

    def test_dc_scan(self):
        (rows, row_d, b), _ = flip_arrays()
        d1, c1 = _dc_scan_py(rows, 2, row_d, b)
        d2, c2 = _kernels.dc_scan(rows, 2, row_d, b)
        np.testing.assert_array_equal(d1.view(np.int64), d2.view(np.int64))
        np.testing.assert_array_equal(c1.view(np.int64), c2.view(np.int64))

    def test_cmin_scan(self):
        (rows, row_d, b), _ = flip_arrays()
        f1, v1 = _cmin_scan_py(rows, 2, row_d, b, 0.4)
        idx, v2 = _kernels.cmin_scan(rows, 2, row_d, b, 0.4)
        assert v1 == v2
        assert tuple(idx) == np.unravel_index(f1, (rows.shape[0],) * 2)

    def test_outer_scan(self):
        (rows, row_d, b), vals = flip_arrays()
        p_z = b.sum(axis=1)
        p_xt = np.array([0.0, 0.5, 0.5, 0.0])
        got = _kernels.outer_scan(rows, 2, row_d, p_z, vals, p_xt, 0.36)
        tol = _kernels.outer_tol(vals)
        assert tol == 4e-12  # the alphabet spans [-1, 1]
        assert got == _outer_scan_py(rows, 2, row_d, p_z, vals, p_xt, 0.36, tol)

    def test_outer_scan_three_symbol_encoder(self):
        # |Z| = 3 at levels 3: 42,875 decoders over six chunks
        src, enc = load_discrete_source(GOLDEN / "x2_s2_z3_source.json")
        args = outer_scan_args(src, enc, 3)
        assert args[0].shape[0] ** 3 > 5 * _kernels._CHUNK
        tol = _kernels.outer_tol(args[4])
        assert _kernels.outer_scan(*args) == _outer_scan_py(*args, tol)

    @pytest.mark.parametrize(
        "x_values, n_s, n_z, levels",
        [
            ([-1.0, 0.5, 2.0], 8, 2, 3),  # numpy sums eight or more terms pairwise
            ([-1.0, 2.0], 9, 2, 4),
            ([-1.0, 0.0, 1.0], 3, 1, 6),  # one encoder symbol: no prefix digits
            ([0.5], 2, 2, 3),  # a one-atom alphabet: every row is [1.0]
        ],
    )
    def test_dc_scan_edge_shapes(self, x_values, n_s, n_z, levels):
        rng = np.random.default_rng(n_s * 10 + n_z)
        src = DiscreteSource(
            np.array(x_values), n_s, rng.dirichlet(np.ones(len(x_values) * n_s)).reshape(-1, n_s)
        )
        enc = Channel(rng.dirichlet(np.ones(n_z), size=len(x_values)))
        _, _, rows, row_d, b = _grid(src, enc, levels)
        d, c = _kernels.dc_scan(rows, n_z, row_d, b)
        for ref in (_dc_scan_py(rows, n_z, row_d, b), _dc_scan_products(rows, n_z, row_d, b)):
            np.testing.assert_array_equal(d.view(np.int64), ref[0].view(np.int64))
            np.testing.assert_array_equal(c.view(np.int64), ref[1].view(np.int64))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(outer_cases())
    def test_outer_scan_with_zero_mass_atoms(self, case):
        got = _kernels.outer_scan(*case)
        want = _outer_scan_py(*case, _kernels.outer_tol(case[4]))
        assert got[0] == want[0]
        assert np.float64(got[1]).view(np.int64) == np.float64(want[1]).view(np.int64)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(w2_row_cases())
    @example(  # zero-mass atoms on both sides; the rows finish at steps 3, 4 and 5
        (
            np.array([0.0, 1.0, 2.0]),
            np.array([0.5, 0.0, 0.5]),
            np.array([0.0, 1.0, 2.0]),
            np.array([[1.0, 0.0, 0.0], [0.25, 0.25, 0.5], [0.0, 0.0, 1.0]]),
        )
    )
    def test_w2_rows_bitwise(self, case):
        xv, xp, yv, rows = case
        got = _kernels._w2_rows(xv, xp, yv, rows)
        want = np.array([_kernels.w2_quantile_pairs(xv, xp, yv, p) for p in rows])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_w2_quantile(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, m = rng.integers(1, 12, 2)
            xv = np.sort(rng.normal(size=n))
            yv = np.sort(rng.normal(size=m))
            xp = rng.dirichlet(np.ones(n))
            yp = rng.dirichlet(np.ones(m))
            assert _kernels.w2_quantile_pairs(xv, xp, yv, yp) == pytest.approx(
                _w2_quantile_integral(xv, xp, yv, yp), abs=1e-14
            )


    def test_w2_quantile_floats_match_numpy_scalars(self):
        # Python floats and numpy float64 scalars round alike, so converting the
        # inputs to lists keeps every cost bitwise.
        rng = np.random.default_rng(11)
        for k in range(400):
            n, m = (32, 32) if k % 2 else rng.integers(1, 40, 2)
            xv, yv = np.sort(rng.normal(size=n)), np.sort(rng.normal(size=m))
            xp, yp = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            if k % 3 == 0 and n > 1:  # a zero-mass atom
                xp[rng.integers(0, n)] = 0.0
                xp /= xp.sum()
            got = _kernels.w2_quantile_pairs(xv, xp, yv, yp)
            want = _w2_on_numpy_scalars(xv, xp, yv, yp)
            assert type(got) is float
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


def _normalised(weights):
    w = np.array(weights, dtype=np.float64)
    if w.sum() == 0.0:
        w[0] = 1.0
    return w / w.sum()


@st.composite
def small_sources(draw):
    """|X| <= 3 sources on integer atoms with small integer masses, so many
    decoders tie in D, plus a grid size and where the budget falls between the
    least and the largest D: just below it (-1.0; infeasible unless the least D
    is 0), at either end, or past it.
    """
    n_x, n_s, n_z = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 2))
    xs = draw(st.lists(st.integers(-3, 3), min_size=n_x, max_size=n_x, unique=True))
    cells = draw(st.lists(st.integers(0, 4), min_size=n_x * n_s, max_size=n_x * n_s))
    enc = [draw(st.lists(st.integers(0, 4), min_size=n_z, max_size=n_z)) for _ in xs]
    src = DiscreteSource(
        np.array(sorted(xs), dtype=np.float64), n_s,
        _normalised(cells).reshape(n_x, n_s),
    )
    where = draw(st.one_of(st.sampled_from([-1.0, 0.0, 1.0, math.inf]), st.floats(0.0, 1.0)))
    return src, Channel(np.array([_normalised(row) for row in enc])), draw(st.integers(1, 4)), where


class TestOnePass:
    """The frontier and c_min of one (D, C) pass, bit for bit against the
    loop oracles and the forms the one pass replaced, and every part of
    ``region_report`` against the public solver that computes it alone."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(small_sources())
    @example((*FLIP, 4, 0.1))  # symmetric: decoders tie in D and in C
    @example((*FLIP, 3, -1.0))  # no decoder meets the budget, which is >= 0
    def test_matches_oracles(self, case):
        src, enc, levels, where = case
        _, _, rows, row_d, b = _grid(src, enc, levels)
        n_z = enc.n_out
        d, c = _kernels.dc_scan(rows, n_z, row_d, b)
        span = d.max() - d.min()
        if where < 0.0:  # the largest budget below the least D, or 0 when that is 0
            budget = float(np.nextafter(d.min(), 0.0))
        else:
            budget = d.min() + where * span if where <= 1.0 else where
        for ref in (_dc_scan_py(rows, n_z, row_d, b), _dc_scan_products(rows, n_z, row_d, b)):
            np.testing.assert_array_equal(d.view(np.int64), ref[0].view(np.int64))
            np.testing.assert_array_equal(c.view(np.int64), ref[1].view(np.int64))

        frontier = _frontier_lexsort(d, c)
        assert region_approx(src, enc, levels) == frontier

        flat, c_ref = _cmin_scan_py(rows, n_z, row_d, b, budget)
        for idx, c_min in (
            _kernels.cmin_scan(rows, n_z, row_d, b, budget),
            _kernels.budget_argmin(d, c, budget, rows.shape[0], n_z),
        ):
            assert c_min == c_ref
            if flat < 0:
                assert idx is None
            else:
                assert tuple(idx) == np.unravel_index(flat, (rows.shape[0],) * n_z)

        want = c_min_solver(src, enc, budget, levels) if levels >= 3 else None
        assert (want is None) == (flat < 0 or levels < 3)
        if want is None:
            error = ParameterError if levels < 3 else InfeasibleBudgetError
            with pytest.raises(error):
                region_report(src, enc, budget, levels)
            return
        got_frontier, ext_a, got, outer, rate = region_report(src, enc, budget, levels)
        assert got_frontier == frontier
        assert ext_a == extreme_point_a(src, enc)
        assert (got.c_min, got.d_b) == (want.c_min, want.d_b)
        np.testing.assert_array_equal(got.decoder.matrix, want.decoder.matrix)
        np.testing.assert_array_equal(got.p_xhat.support, want.p_xhat.support)
        np.testing.assert_array_equal(got.p_xhat.probs, want.p_xhat.probs)
        assert outer == outer_bound_sweep(src, enc, levels)
        assert rate == mutual_info_xz(src, enc)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2**-52]), st.floats(0.0, 2.0)),
                st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @example([(0.5, 0.3), (0.5, 0.1), (0.5, 0.1), (0.5, 0.7)])  # every D equal
    def test_prefilter_keeps_the_sorted_frontier(self, points):
        d, c = (np.array(v) for v in zip(*points))
        assert _frontier(d, c) == _frontier_lexsort(d, c)


class TestDecoderOrder:
    @pytest.mark.parametrize("n_z, n_rows", [(1, 9000), (2, 100), (3, 25)])
    def test_digits_follow_itertools_product(self, n_z, n_rows):
        # Place-value tables: decoder n's sum is n itself when its digits are
        # those of n in base n_rows, last symbol fastest (itertools.product).
        tables = (np.arange(n_rows) * n_rows ** np.arange(n_z - 1, -1, -1)[:, None])[:, None]
        blocks = list(_kernels._block_sums(tables, _kernels._CHUNK))
        assert n_rows**n_z > _kernels._CHUNK and len(blocks) > 1
        assert max(block.shape[1] for block in blocks) <= _kernels._CHUNK
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1), [np.arange(n_rows**n_z)])


class TestChunkBoundaries:
    """The slice folds of ``budget_argmin`` and the frontier's prefilter at a
    7-decoder ``_CHUNK``, so that slices split C-ties and put a dominator and
    the points it dominates on either side of a boundary; ``outer_scan``'s
    bits do not depend on ``_CHUNK`` nor ``dc_scan``'s on ``_GATHER``."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 2.0)),
                st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @example([(0.5, 0.25 * (k % 3)) for k in range(20)])  # every D equal
    @example([(0.5, 0.25), (1.0, 0.0)] * 10)  # duplicate points
    @example([(1.0 + k / 16, 0.5) for k in range(16)] + [(0.5, 0.25)])  # dominator last
    def test_frontier_matches_the_sorted_frontier(self, points):
        d, c = (np.array(v) for v in zip(*points))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_CHUNK", 7)
            assert _frontier(d, c) == _frontier_lexsort(d, c)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(small_sources())
    @example((*FLIP, 3, math.inf))  # the least C ties in slices 0 and 1
    @example((*FLIP, 3, -1.0))  # no decoder meets the budget
    def test_budget_argmin_matches_the_loop(self, case):
        src, enc, levels, where = case
        _, _, rows, row_d, b = _grid(src, enc, levels)
        n_z = enc.n_out
        d, c = _kernels.dc_scan(rows, n_z, row_d, b)
        if where < 0.0:  # the largest budget below the least D, or 0 when that is 0
            budget = float(np.nextafter(d.min(), 0.0))
        else:
            budget = d.min() + where * (d.max() - d.min()) if where <= 1.0 else where
        flat, c_ref = _cmin_scan_py(rows, n_z, row_d, b, budget)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_CHUNK", 7)
            idx, c_min = _kernels.budget_argmin(d, c, budget, rows.shape[0], n_z)
        assert c_min == c_ref
        assert (idx is None) == (flat < 0)
        if flat >= 0:
            assert tuple(idx) == np.unravel_index(flat, (rows.shape[0],) * n_z)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_outer_scan_bits_do_not_depend_on_the_chunk(self, chunk):
        # 15 rows and three encoder symbols: 3,375 decoders
        src, enc = load_discrete_source(GOLDEN / "x2_s2_z3_source.json")
        args = outer_scan_args(src, enc, 2)
        violations, min_slack = _outer_scan_py(*args, _kernels.outer_tol(args[4]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_CHUNK", chunk)
            got = _kernels.outer_scan(*args)
        assert got[0] == violations
        assert np.float64(got[1]).view(np.int64) == np.float64(min_slack).view(np.int64)

    @pytest.mark.parametrize("gather", [1, 16, 100, 10**6])
    def test_dc_scan_bits_do_not_depend_on_the_gather(self, gather):
        # 15 rows: 1 and 16 gather one prefix row, 100 six with a partial last
        # gather, 10**6 a whole block
        src, enc = load_discrete_source(GOLDEN / "x2_s2_z3_source.json")
        _, _, rows, row_d, b = _grid(src, enc, 2)
        want = _dc_scan_py(rows, 3, row_d, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_GATHER", gather)
            got = _kernels.dc_scan(rows, 3, row_d, b)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


def test_region_report_memory(monkeypatch):
    # No timing: tracemalloc counts numpy's buffers.  dc_scan's (d, c), 16 B per
    # decoder, are the only grid-sized arrays, everything else is bounded by the
    # block size, and both are freed before the outer scan starts.
    src, enc = load_discrete_source(bundled_source_path())
    region_report(src, enc, 0.5, 3)  # first-call set-up is not the job's
    held = []
    outer_scan = _kernels.outer_scan

    def traced_outer_scan(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return outer_scan(*args)

    monkeypatch.setattr(_kernels, "outer_scan", traced_outer_scan)
    tracemalloc.start()
    try:
        *_, (_, _, decoders), _ = region_report(src, enc, 0.5, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoders == 207_025
    assert peak <= 16 * decoders + 600_000
    assert held[0] < 8 * decoders
