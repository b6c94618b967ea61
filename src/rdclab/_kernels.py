"""Hot numeric kernels, one numpy implementation each.

Kernels:
  * grid_rate_scan      - brute-force rate minimisation over a reconstruction
                          parameter grid (the KKT-free oracle).
  * dc_scan             - (distortion, classification-loss) of every decoder
                          on a simplex grid.
  * budget_argmin       - first decoder minimising classification loss within
                          a distortion budget, from ``dc_scan``'s arrays.
  * cmin_scan           - ``budget_argmin`` over a fresh ``dc_scan`` pass.
  * outer_scan          - achievability outer-bound check over the grid.
  * w2_quantile_pairs   - monotone-coupling squared transport cost between
                          two discrete distributions on the line.

The decoder scans walk the grid through ``_decoders``, the one place that
knows the decoder order.  Loop forms of the grid and decoder scans live in
``tests/test_kernels.py`` as reference oracles.

The monotone-coupling cost has two forms, one per caller.  ``outer_scan``
prices a whole chunk of decoders with ``_w2_rows``, which runs the scalar
loop ``_w2_quantile_py`` on every row at once, one breakpoint per step, so
each row's cost is bitwise the scalar loop's.  ``w2_quantile_pairs`` prices
one pair and keeps the scalar loop: on random 32-atom pairs a one-row
``_w2_rows`` call took 2.3 ms against 0.07 ms for the loop (2-vCPU x86_64,
numpy 2.4), because the row kernel pays numpy's per-call overhead on each of
its up to nx + ny - 1 steps.
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


def _w2_quantile_py(xv, xp, yv, yp):
    """Squared transport cost of the monotone coupling of two sorted atoms."""
    nx = xv.shape[0]
    ny = yv.shape[0]
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
    return cost


def _w2_rows(xv, xp, yv, yp_rows):
    """``_w2_quantile_py(xv, xp, yv, p)`` for every row ``p`` of ``yp_rows``.

    Runs the scalar loop on all rows at once, one breakpoint per step.  Each
    row keeps its own ``i``, ``j``, ``mi``, ``mj`` and ``cost`` and does its
    float operations in the loop's order, so every result is bitwise equal
    to the scalar loop's.  A row leaves the live set at the step where the
    scalar loop breaks; every step moves ``i`` or ``j`` on, so all rows are
    done within ``nx + ny - 1`` steps.  Only a NaN mass keeps a row live past
    them; it returns its cost so far rather than loop for ever.
    """
    nx = xv.shape[0]
    ny = yv.shape[0]
    out = np.empty(yp_rows.shape[0])
    live = np.arange(yp_rows.shape[0])
    i = np.zeros(live.size, dtype=np.intp)
    j = np.zeros(live.size, dtype=np.intp)
    mi = np.full(live.size, xp[0])
    mj = yp_rows[:, 0].copy()
    cost = np.zeros(live.size)
    for _ in range(nx + ny - 1):
        m = np.where(mi < mj, mi, mj)
        diff = xv[i] - yv[j]
        cost += m * diff * diff
        mi -= m
        mj -= m
        step_i = mi <= 0.0
        i += step_i
        done = i >= nx
        step_j = (mj <= 0.0) & ~done
        j += step_j
        done |= j >= ny
        if done.any():
            out[live[done]] = cost[done]
            keep = ~done
            live, i, j, mi, mj, cost, step_i, step_j = (
                a[keep] for a in (live, i, j, mi, mj, cost, step_i, step_j)
            )
            if live.size == 0:
                break
        mi = np.where(step_i, xp[i], mi)
        mj = np.where(step_j, yp_rows[live, j], mj)
    out[live] = cost
    return out


def w2_quantile_pairs(xv, xp, yv, yp):
    xv = np.ascontiguousarray(xv, dtype=np.float64)
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    yv = np.ascontiguousarray(yv, dtype=np.float64)
    yp = np.ascontiguousarray(yp, dtype=np.float64)
    return float(_w2_quantile_py(xv, xp, yv, yp))


# ---------------------------------------------------------------------------
# Gaussian reconstruction-grid rate oracle
# ---------------------------------------------------------------------------


def grid_rate_scan(var_x, h_s, rho1_sq, d_budget, c_budget, n_sigma, n_theta):
    """Lowest rate over the (sigma, theta) grid meeting both budgets.

    Returns (found, rate, mse, ce); the grid holds n_sigma scales up to
    3 sd(X) and, per scale, n_theta covariances across [-a, a] plus theta = 0.
    """
    sx = np.sqrt(var_x)
    sig = 3.0 * sx * (np.arange(n_sigma, dtype=np.float64) + 1.0) / n_sigma
    vh = (sig * sig)[:, None]
    a = (sx * sig)[:, None]
    ks = np.arange(n_theta, dtype=np.float64)[None, :]
    theta = -a + (2.0 * a) * ks / (n_theta - 1)
    theta = np.concatenate([theta, np.zeros((n_sigma, 1))], axis=1)
    mse = var_x + vh - 2.0 * theta
    t = theta * theta / (var_x * vh)
    with np.errstate(divide="ignore"):
        ce = h_s + 0.5 * np.log1p(-rho1_sq * t)
        rate = np.where(t >= 1.0, np.inf, -0.5 * np.log1p(-np.minimum(t, 1.0)))
    feasible = (mse <= d_budget) & (ce <= c_budget)
    if not feasible.any():
        return False, np.inf, np.nan, np.nan
    masked = np.where(feasible, rate, np.inf)
    flat = int(np.argmin(masked))
    i, j = np.unravel_index(flat, masked.shape)
    return True, float(masked[i, j]), float(mse[i, j]), float(ce[i, j])


# ---------------------------------------------------------------------------
# decoder simplex-grid scans
# ---------------------------------------------------------------------------


def _decoders(row_d):
    """Yield (idx, d) for every decoder on the grid, in chunks.

    ``row_d[z, r]`` is the distortion contributed when symbol z decodes with
    grid row r.  Decoder n has ``idx[n, z]`` = the mixed-radix digits of n in
    base n_rows, last symbol fastest (odometer order), and distortion
    ``d[n] = sum_z row_d[z, idx[n, z]]`` accumulated in z order.
    """
    n_z, n_rows = row_d.shape
    total = n_rows**n_z
    for start in range(0, total, _CHUNK):
        rest = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        idx = np.empty((rest.size, n_z), dtype=np.int64)
        for z in range(n_z - 1, -1, -1):
            rest, idx[:, z] = np.divmod(rest, n_rows)
        d = np.zeros(idx.shape[0])
        for z in range(n_z):
            d += row_d[z, idx[:, z]]
        yield idx, d


def _cond_entropy(tables, idx):
    """H(S|X̂) of each decoder in a chunk; 0*log(0) is 0."""
    joint = tables[0, idx[:, 0]]
    for z in range(1, idx.shape[1]):
        joint += tables[z, idx[:, z]]
    pk = joint.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = joint * (np.log(pk)[:, :, None] - np.log(joint))
    term[joint <= 0.0] = 0.0
    return term.sum(axis=(1, 2))


def _dc_scan(rows, n_z, row_d, joint_zs):
    tables = rows[None, :, :, None] * joint_zs[:, None, None, :]  # [z, row]: p(x̂, s)
    total = rows.shape[0] ** n_z
    out_d = np.empty(total)
    out_c = np.empty(total)
    pos = 0
    for idx, d in _decoders(row_d):
        end = pos + d.size
        out_d[pos:end] = d
        out_c[pos:end] = _cond_entropy(tables, idx)
        pos = end
    return out_d, out_c


def dc_scan(rows, n_z, row_d, joint_zs):
    """Distortion and H(S|X̂) of every decoder, in odometer order."""
    return _dc_scan(rows, n_z, row_d, joint_zs)


def budget_argmin(d, c, d_budget, n_rows, n_z):
    """First decoder (odometer order) minimising c with d <= d_budget: (row
    indices of the decoder, its c), or (None, inf) if none meets the budget."""
    masked = np.where(d > d_budget, np.inf, c)
    k = int(np.argmin(masked))
    if not masked[k] < np.inf:
        return None, np.inf
    return np.array(np.unravel_index(k, (n_rows,) * n_z)), float(masked[k])


def cmin_scan(rows, n_z, row_d, joint_zs, d_budget):
    """``budget_argmin`` over the (d, c) of every decoder on the grid."""
    d, c = _dc_scan(rows, n_z, row_d, joint_zs)
    return budget_argmin(d, c, d_budget, rows.shape[0], n_z)


def outer_scan(rows, n_z, row_d, p_z, vals, p_xtilde, residual):
    """Count outer-bound violations D < residual + W2^2(p_xt, p_xhat) - tol.

    Returns (violations, min_slack) over the grid, with tol = outer_tol(vals).
    """
    tol = outer_tol(vals)
    violations = 0
    min_slack = np.inf
    for idx, d in _decoders(row_d):
        p_xhat = np.zeros((d.size, rows.shape[1]))
        for z in range(n_z):
            p_xhat += p_z[z] * rows[idx[:, z]]
        w2 = _w2_rows(vals, p_xtilde, vals, p_xhat)
        slack = d - residual - w2
        min_slack = min(min_slack, float(slack.min()))
        violations += int(np.count_nonzero(slack < -tol))
    return violations, min_slack
