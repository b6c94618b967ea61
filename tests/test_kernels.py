"""Production kernels against their loop forms, kept here as reference oracles.

Each oracle evaluates one grid point or one decoder at a time with explicit
Python loops and walks the decoders with its own odometer, so it shares no
code with ``rdclab._kernels`` beyond the scalar quantile-coupling loop,
``_w2_quantile_py``, which the row kernel ``_w2_rows`` must match bit for bit.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdclab import _kernels
from rdclab.cli import load_discrete_source
from rdclab.discrete_region import Channel, DiscreteSource, _grid

GOLDEN = Path(__file__).parent / "golden"


def _grid_rate_scan_py(var_x, h_s, rho1_sq, d_budget, c_budget, n_sigma, n_theta):
    """Loop form of the grid scan."""
    sx = np.sqrt(var_x)
    found = False
    best_rate = np.inf
    best_mse = np.nan
    best_ce = np.nan
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
            if rate < best_rate:
                best_rate = rate
                best_mse = mse
                best_ce = ce
    return found, best_rate, best_mse, best_ce


def _dc_scan_py(rows, n_z, row_d, joint_zs, out_d, out_c):
    """Distortion and H(S|X̂) for every decoder combination (odometer order)."""
    n_rows, m = rows.shape
    n_s = joint_zs.shape[1]
    idx = np.zeros(n_z, dtype=np.int64)
    total = out_d.shape[0]
    joint = np.empty((m, n_s))
    for flat in range(total):
        d = 0.0
        for z in range(n_z):
            d += row_d[z, idx[z]]
        for k in range(m):
            for s in range(n_s):
                joint[k, s] = 0.0
        for z in range(n_z):
            r = idx[z]
            for k in range(m):
                w = rows[r, k]
                if w > 0.0:
                    for s in range(n_s):
                        joint[k, s] += w * joint_zs[z, s]
        c = 0.0
        for k in range(m):
            pk = 0.0
            for s in range(n_s):
                pk += joint[k, s]
            if pk > 0.0:
                lpk = np.log(pk)
                for s in range(n_s):
                    v = joint[k, s]
                    if v > 0.0:
                        c += v * (lpk - np.log(v))
        out_d[flat] = d
        out_c[flat] = c
        for z in range(n_z - 1, -1, -1):
            idx[z] += 1
            if idx[z] < n_rows:
                break
            idx[z] = 0
    return out_d, out_c


def _cmin_scan_py(rows, n_z, row_d, joint_zs, d_budget):
    """First (lexicographic) decoder minimising H(S|X̂) under the MSE budget."""
    n_rows, m = rows.shape
    n_s = joint_zs.shape[1]
    idx = np.zeros(n_z, dtype=np.int64)
    total = 1
    for _ in range(n_z):
        total *= n_rows
    joint = np.empty((m, n_s))
    best_c = np.inf
    best_flat = -1
    for flat in range(total):
        d = 0.0
        for z in range(n_z):
            d += row_d[z, idx[z]]
        if d <= d_budget:
            for k in range(m):
                for s in range(n_s):
                    joint[k, s] = 0.0
            for z in range(n_z):
                r = idx[z]
                for k in range(m):
                    w = rows[r, k]
                    if w > 0.0:
                        for s in range(n_s):
                            joint[k, s] += w * joint_zs[z, s]
            c = 0.0
            for k in range(m):
                pk = 0.0
                for s in range(n_s):
                    pk += joint[k, s]
                if pk > 0.0:
                    lpk = np.log(pk)
                    for s in range(n_s):
                        v = joint[k, s]
                        if v > 0.0:
                            c += v * (lpk - np.log(v))
            if c < best_c:
                best_c = c
                best_flat = flat
        for z in range(n_z - 1, -1, -1):
            idx[z] += 1
            if idx[z] < n_rows:
                break
            idx[z] = 0
    return best_flat, best_c


def _outer_scan_py(rows, n_z, row_d, p_z, vals, p_xtilde, residual, tol):
    """Count outer-bound violations D < residual + W2^2(p_xt, p_xhat) - tol."""
    n_rows, m = rows.shape
    idx = np.zeros(n_z, dtype=np.int64)
    total = 1
    for _ in range(n_z):
        total *= n_rows
    p_xhat = np.empty(m)
    violations = 0
    min_slack = np.inf
    for flat in range(total):
        d = 0.0
        for z in range(n_z):
            d += row_d[z, idx[z]]
        for k in range(m):
            p_xhat[k] = 0.0
        for z in range(n_z):
            r = idx[z]
            w = p_z[z]
            for k in range(m):
                p_xhat[k] += w * rows[r, k]
        w2 = _kernels._w2_quantile_py(vals, p_xtilde, vals, p_xhat)
        slack = d - residual - w2
        if slack < min_slack:
            min_slack = slack
        if slack < -tol:
            violations += 1
        for z in range(n_z - 1, -1, -1):
            idx[z] += 1
            if idx[z] < n_rows:
                break
            idx[z] = 0
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


def flip_arrays(levels=6):
    src = DiscreteSource(
        np.array([-1.0, 1.0]), 2, np.array([[0.5, 0.0], [0.0, 0.5]])
    )
    enc = Channel(np.array([[0.9, 0.1], [0.1, 0.9]]))
    _, vals, rows, row_d, b = _grid(src, enc, levels)
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


class TestAgainstLoopOracles:
    def test_grid_scan_bitwise(self):
        args = (1.0, 1.4189385332046727, 0.49, 0.5, 2.0, 400, 400)
        got = _kernels.grid_rate_scan(*args)
        ref = _grid_rate_scan_py(*args)
        assert got[0] == ref[0]
        assert got[1] == ref[1] and got[2] == ref[2] and got[3] == ref[3]

    def test_grid_scan_infeasible_case(self):
        args = (1.0, 1.4189385332046727, 0.49, 0.5, 1.0, 64, 64)
        got = _kernels.grid_rate_scan(*args)
        ref = _grid_rate_scan_py(*args)
        assert not got[0] and not ref[0]

    def test_dc_scan(self):
        (rows, row_d, b), _ = flip_arrays()
        total = rows.shape[0] ** 2
        d1 = np.empty(total)
        c1 = np.empty(total)
        _dc_scan_py(rows, 2, row_d, b, d1, c1)
        d2, c2 = _kernels.dc_scan(rows, 2, row_d, b)
        np.testing.assert_allclose(d1, d2, atol=1e-13)
        np.testing.assert_allclose(c1, c2, atol=1e-13)

    def test_cmin_scan(self):
        (rows, row_d, b), _ = flip_arrays()
        f1, v1 = _cmin_scan_py(rows, 2, row_d, b, 0.4)
        idx, v2 = _kernels.cmin_scan(rows, 2, row_d, b, 0.4)
        assert v1 == pytest.approx(v2, abs=1e-13)
        assert tuple(idx) == np.unravel_index(f1, (rows.shape[0],) * 2)

    def test_outer_scan(self):
        (rows, row_d, b), vals = flip_arrays()
        p_z = b.sum(axis=1)
        p_xt = np.array([0.0, 0.5, 0.5, 0.0])
        got = _kernels.outer_scan(rows, 2, row_d, p_z, vals, p_xt, 0.36)
        ref = _outer_scan_py(rows, 2, row_d, p_z, vals, p_xt, 0.36, 1e-12)
        assert got == ref

    def test_outer_scan_three_symbol_encoder(self):
        # |Z| = 3 at levels 3: 42,875 decoders over six chunks
        src, enc = load_discrete_source(GOLDEN / "x2_s2_z3_source.json")
        args = outer_scan_args(src, enc, 3)
        assert args[0].shape[0] ** 3 > 5 * _kernels._CHUNK
        assert _kernels.outer_scan(*args) == _outer_scan_py(*args, _kernels.OUTER_TOL)

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
        want = np.array([_kernels._w2_quantile_py(xv, xp, yv, p) for p in rows])
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


class TestDecoderOrder:
    @pytest.mark.parametrize("n_z, n_rows", [(1, 9000), (2, 100), (3, 25)])
    def test_digits_follow_itertools_product(self, n_z, n_rows):
        row_d = np.random.default_rng(n_z).random((n_z, n_rows))
        chunks = list(_kernels._decoders(row_d))
        idx = np.concatenate([i for i, _ in chunks])
        d = np.concatenate([d for _, d in chunks])
        want = np.array(list(itertools.product(range(n_rows), repeat=n_z)))
        assert n_rows**n_z > _kernels._CHUNK and len(chunks) > 1
        np.testing.assert_array_equal(idx, want)
        ref = np.zeros(want.shape[0])
        for z in range(n_z):
            ref += row_d[z, want[:, z]]
        np.testing.assert_array_equal(d, ref)
