"""Hot numeric kernels, one numpy implementation each.

Kernels:
  * grid_rate_scan      - least rate over a reconstruction parameter grid
                          (the KKT-free oracle): the grid's exact minimum by
                          per-row boundary search, with the full scan in
                          ``tests/`` as its oracle.
  * dc_scan             - (distortion, classification-loss) of every decoder
                          on a simplex grid.
  * budget_argmin       - first decoder minimising classification loss within
                          a distortion budget, from ``dc_scan``'s arrays.
  * cmin_scan           - ``budget_argmin`` over a fresh ``dc_scan`` pass.
  * outer_scan          - achievability outer-bound check over the grid.
  * w2_quantile_pairs   - monotone-coupling squared transport cost between
                          two discrete distributions on the line.
  * cond_entropy_terms  - the H(S|.) terms joint * (log marginal - log joint),
                          summed by ``_dc_scan``'s table and by
                          ``discrete_region.cond_entropy_discrete``.

The decoder scans walk the grid through ``_blocks``, the one place that
knows the decoder order; a block broadcasts the last symbol's row over a run
of prefixes.  ``dc_scan`` gathers H(S|X̂) terms from a table over the values
an atom's row entries take, far fewer than the decoders.  ``dc_scan``'s
(d, c) are the only grid-sized arrays: their consumers fold them in
``_CHUNK`` slices.  Loop forms of the grid and decoder scans live in
``tests/test_kernels.py`` as reference oracles.

``grid_rate_scan`` bisects each grid row for its budgets' boundaries instead
of evaluating every point.  Along a row the covariance theta_k is non-decreasing in k, the MSE is
non-increasing in theta, and t = theta^2 / (var_x * var_xhat), the
classification loss (through numpy's log1p, monotone on the grid's arguments)
and the rate are monotone in |theta|; every step is one IEEE operation, and
rounding keeps each of these orders.  So each budget holds on a prefix or a
suffix of each half-row, a bisection finds the boundaries, and the least rate
is bitwise the full scan's.

The monotone-coupling cost is one scalar loop, ``w2_quantile_pairs``, which
prices one pair.  ``outer_scan`` prices a block of decoders with ``_w2_rows``,
which runs that loop on every row at once for a fixed nx + ny - 1 steps, so
each row's cost is bitwise the loop's.  A one-row ``_w2_rows`` call would not
serve for one pair: on random 32-atom pairs it took ~1 ms against ~0.02 ms for
the loop on Python floats (2-vCPU x86_64, numpy 2.4), because the row kernel
pays numpy's per-call overhead each step.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 8192
OUTER_TOL = 1e-12  # relative to the squared span of the atoms


def outer_tol(atoms):
    """Slack below -outer_tol(atoms) counts as an outer-bound violation."""
    return OUTER_TOL * np.ptp(atoms) ** 2


# ---------------------------------------------------------------------------
# quantile (monotone) coupling cost
# ---------------------------------------------------------------------------


def w2_quantile_pairs(xv, xp, yv, yp):
    """Squared transport cost of the monotone coupling of two sorted atoms.

    The loop runs on Python floats: indexing a numpy array yields a numpy
    scalar, whose arithmetic costs several times a float's and rounds alike.
    """
    xv, xp, yv, yp = (np.asarray(a, dtype=np.float64).tolist() for a in (xv, xp, yv, yp))
    nx = len(xv)
    ny = len(yv)
    i = 0
    j = 0
    mi = xp[0]
    mj = yp[0]
    cost = 0.0
    while True:
        m = mi if mi < mj else mj
        diff = xv[i] - yv[j]
        cost += m * diff * diff
        mi -= m
        mj -= m
        if mi <= 0.0:
            i += 1
            if i >= nx:
                break
            mi = xp[i]
        if mj <= 0.0:
            j += 1
            if j >= ny:
                break
            mj = yp[j]
    return float(cost)


def _w2_rows(xv, xp, yv, yp_rows):
    """``w2_quantile_pairs(xv, xp, yv, p)`` for every row ``p`` of ``yp_rows``.

    Runs the scalar loop on all rows at once, one breakpoint per step.  Each
    row keeps its own ``i``, ``j``, ``mi``, ``mj`` and ``cost`` and does its
    float operations in the loop's order.  Every step moves ``i`` or ``j`` on,
    so the loop breaks within ``nx + ny - 1`` steps, and every row runs
    exactly that many.  Zero-mass sentinel atoms end both sides, so a step
    past the loop's break adds ``(0 * diff) * diff = +0.0`` and every result
    is bitwise the scalar loop's (for finite, non-negative masses).
    """
    nx, ny = xv.shape[0], yv.shape[0]
    xv, xp = np.append(xv, np.full(ny, xv[-1])), np.append(xp, np.zeros(ny))
    yv = np.append(yv, np.full(nx, yv[-1]))
    n = yp_rows.shape[0]
    yp = np.zeros((ny + nx, n))  # atom j of row r at yp[j * n + r]
    yp[:ny] = yp_rows.T
    yp, row = yp.ravel(), np.arange(n)
    i, j = np.zeros((2, n), dtype=np.intp)
    mi = np.full(n, xp[0])
    mj = yp[:n].copy()
    diff = xv[0] - yv[0]
    cost = np.zeros(n)
    for step in range(nx + ny - 1):
        m = np.minimum(mi, mj)
        cost += m * diff * diff
        if step == nx + ny - 2:
            break
        mi -= m
        mj -= m
        step_i = mi <= 0.0
        step_j = mj <= 0.0
        i += step_i
        j += step_j
        np.copyto(mi, xp.take(i), where=step_i)
        np.copyto(mj, yp.take(j * n + row), where=step_j)
        diff = xv.take(i) - yv.take(j)
    return cost


# ---------------------------------------------------------------------------
# Gaussian reconstruction-grid rate oracle
# ---------------------------------------------------------------------------


def grid_rate_scan(var_x, h_s, rho1_sq, d_budget, c_budget, n_sigma, n_theta):
    """Lowest rate over the (sigma, theta) grid meeting both budgets.

    Returns (found, rate); the grid holds n_sigma scales up to 3 sd(X) and,
    per scale, n_theta covariances theta_k = -a + 2a*k/(n_theta - 1) plus
    theta = 0.  The result is the grid's exact minimum by per-row boundary
    search, bitwise the full scan's (kept in ``tests/`` as its oracle).

    On one row each step is a monotone IEEE operation, and numpy's log1p is
    monotone on the grid's arguments.  theta_k is non-decreasing in k, so
    mse <= d holds on a suffix.  t = theta^2 / (var_x * vh) is monotone in
    |theta|: non-increasing for k < n_theta // 2, non-decreasing from there
    on.  So ce is non-decreasing in k on the lower half and non-increasing on
    the upper half, except where rho^2 * t > 1 makes it NaN, at the far end
    of each half; "not ce > c" thus holds on a prefix of the lower half and a
    suffix of the upper half.  The rate is non-decreasing in t.  The row's
    least feasible rate is then at one of three points: the lower half's last
    index with "not ce > c", the upper half's first index with it and
    mse <= d, or theta = 0.  One bisection over every row and both halves at
    once finds the two indices; a point is kept if it meets both budgets.
    (The lower half wins only by rounding: a point's mirror image across
    theta = 0 has a lower mse and the same t up to an ulp.)
    """
    sx = np.sqrt(var_x)
    sig = 3.0 * sx * (np.arange(n_sigma, dtype=np.float64) + 1.0) / n_sigma
    # Each row twice: the lower half's search, then the upper half's.
    vh, a = np.tile(sig * sig, 2), np.tile(sx * sig, 2)
    z = n_theta // 2
    upper = np.arange(2 * n_sigma) >= n_sigma

    def point(k):
        """(mse, t, ce) at per-row index k, on the full scan's expressions."""
        theta = -a + (2.0 * a) * k.astype(np.float64) / (n_theta - 1)
        return _grid_point(var_x, vh, h_s, rho1_sq, theta)

    lo = np.where(upper, z, 0)
    hi = np.where(upper, n_theta, z)
    for _ in range((n_theta - z).bit_length()):
        mid = (lo + hi) // 2
        mse, _, ce = point(mid)
        above = ce > c_budget
        ok = np.where(upper, ~above & (mse <= d_budget), above)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, np.minimum(mid + 1, hi))
    k = np.where(upper, lo, lo - 1)
    mse, t, ce = point(k)
    zero = _grid_point(var_x, vh[:n_sigma], h_s, rho1_sq, np.zeros(n_sigma))
    mse, t, ce = (np.concatenate(pair) for pair in zip((mse, t, ce), zero))
    in_grid = np.concatenate([(0 <= k) & (k < n_theta), np.ones(n_sigma, dtype=bool)])
    feasible = in_grid & (mse <= d_budget) & (ce <= c_budget)
    if not feasible.any():
        return False, np.inf
    t = t[feasible]
    with np.errstate(divide="ignore"):
        rate = np.where(t >= 1.0, np.inf, -0.5 * np.log1p(-np.minimum(t, 1.0)))
    return True, float(rate.min())


def _grid_point(var_x, vh, h_s, rho1_sq, theta):
    """(mse, t, ce) of the grid points with variance vh and covariance theta."""
    mse = var_x + vh - 2.0 * theta
    t = theta * theta / (var_x * vh)
    with np.errstate(divide="ignore", invalid="ignore"):
        ce = h_s + 0.5 * np.log1p(-rho1_sq * t)
    return mse, t, ce


# ---------------------------------------------------------------------------
# decoder simplex-grid scans
# ---------------------------------------------------------------------------


def _blocks(n_rows, n_z):
    """Yield (pre, last) blocks of the decoders on the grid, in odometer order.

    Decoder n's digits are those of n in base n_rows, last symbol fastest.  A
    block holds, prefix outer, the decoders whose leading n_z - 1 digits are a
    row of ``pre`` and whose last digit is in ``last``: at most ``_CHUNK``.
    """
    n_pre = max(_CHUNK // n_rows, 1)
    n_last = min(n_rows, _CHUNK)
    total = n_rows ** (n_z - 1)
    for start in range(0, total, n_pre):
        rest = np.arange(start, min(start + n_pre, total), dtype=np.int64)
        pre = np.empty((rest.size, n_z - 1), dtype=np.int64)
        for z in range(n_z - 2, -1, -1):
            rest, pre[:, z] = np.divmod(rest, n_rows)
        for lo in range(0, n_rows, n_last):
            yield pre, np.arange(lo, min(lo + n_last, n_rows))


def _block_sums(tables):
    """Yield per block ``sum_z tables[z][:, digit_z]`` of each decoder, added in
    z order, as a (features, decoders) array."""
    n_z, k, n_rows = tables.shape
    for pre, last in _blocks(n_rows, n_z):
        acc = np.zeros((k, pre.shape[0]), dtype=tables.dtype)
        for z in range(n_z - 1):
            acc += tables[z][:, pre[:, z]]
        yield (acc[:, :, None] + tables[-1][:, None, last]).reshape(k, -1)


def _entropy_records(rows, n_z, joint_zs):
    """The H(S|X̂) terms of one atom as a function of its row entries.

    joint[n, k, s] = sum_z rows[idx_z, k] * p(z, s) in z order depends on atom
    k only through the tuple (rows[idx_z, k])_z.  Returns ``code[z, k, r]``,
    the part of the tuple's index due to symbol z decoding with row r, and
    per tuple the |S| terms of the per-decoder form as one void record.
    """
    values = np.array(sorted(set(rows.ravel().tolist())))
    inv = np.searchsorted(values, rows)
    u = values.size
    code = inv.reshape(rows.shape).T[None] * u ** np.arange(n_z - 1, -1, -1)[:, None, None]
    digits = np.indices((u,) * n_z).reshape(n_z, -1)
    joint = values[digits[0], None] * joint_zs[0]
    for z in range(1, n_z):
        joint += values[digits[z], None] * joint_zs[z]
    term = cond_entropy_terms(joint, joint.sum(axis=-1)[:, None])
    return code, term.view(np.dtype((np.void, term.itemsize * term.shape[1]))).ravel()


def cond_entropy_terms(joint, marginal):
    """The H(S|.) terms ``joint * (log marginal - log joint)``, 0 where joint is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        term = joint * (np.log(marginal) - np.log(joint))
    term[joint <= 0.0] = 0.0
    return term


def _dc_scan(rows, n_z, row_d, joint_zs):
    code, records = _entropy_records(rows, n_z, joint_zs)
    out_d, out_c = np.empty((2, rows.shape[0] ** n_z))
    pos = 0
    for (d,), c in zip(_block_sums(row_d[:, None]), _block_sums(code)):
        term = records.take(c.T).view(np.float64).reshape(d.size, rows.shape[1], -1)
        out_d[pos : pos + d.size] = d
        out_c[pos : pos + d.size] = term.sum(axis=(1, 2))
        pos += d.size
    return out_d, out_c


def dc_scan(rows, n_z, row_d, joint_zs):
    """Distortion and H(S|X̂) of every decoder, in odometer order."""
    return _dc_scan(rows, n_z, row_d, joint_zs)


def budget_argmin(d, c, d_budget, n_rows, n_z):
    """First decoder (odometer order) minimising c with d <= d_budget: (row
    indices of the decoder, its c), or (None, inf) if none meets the budget.
    Folds ``_CHUNK`` slices; a slice's least c is kept only when strictly below
    the best so far, so the first minimiser wins."""
    best, best_c = None, np.inf
    for lo in range(0, d.size, _CHUNK):
        masked = np.where(d[lo : lo + _CHUNK] > d_budget, np.inf, c[lo : lo + _CHUNK])
        k = int(np.argmin(masked))
        if masked[k] < best_c:
            best, best_c = lo + k, float(masked[k])
    return best if best is None else np.array(np.unravel_index(best, (n_rows,) * n_z)), best_c


def cmin_scan(rows, n_z, row_d, joint_zs, d_budget):
    """``budget_argmin`` over the (d, c) of every decoder on the grid."""
    d, c = _dc_scan(rows, n_z, row_d, joint_zs)
    return budget_argmin(d, c, d_budget, rows.shape[0], n_z)


def outer_scan(rows, n_z, row_d, p_z, vals, p_xtilde, residual):
    """Count outer-bound violations D < residual + W2^2(p_xt, p_xhat) - tol.

    Returns (violations, min_slack) over the grid, with tol = outer_tol(vals).
    """
    tol = outer_tol(vals)
    # A zero-mass atom of p_xt adds only +0.0 to the coupling cost.
    xv, xp = vals[p_xtilde > 0.0], p_xtilde[p_xtilde > 0.0]
    # [z, (distortion, p(z) * row), row]
    tables = np.concatenate((row_d[:, None], np.swapaxes(p_z[:, None, None] * rows, 1, 2)), axis=1)
    violations = 0
    min_slack = np.inf
    for sums in _block_sums(tables):
        d, p_xhat = sums[0], sums[1:].T
        slack = d - residual - _w2_rows(xv, xp, vals, p_xhat)
        min_slack = min(min_slack, float(slack.min()))
        violations += int(np.count_nonzero(slack < -tol))
    return violations, min_slack
