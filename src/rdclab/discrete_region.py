"""Finite-alphabet machinery: MMSE reduction, transport, and region bounds.

All quantities are grounded in the fully specified joint
p(s, x, z, x̂) = p(x, s) * p(z|x) * p(x̂|z), so every conditional entropy and
distortion is well defined and computable by exact enumeration.  The
achievability outer bound checked here is

    D >= E[(X - X̃)^2] + W2^2(p_X̃, p_X̂),      X̃ = E[X | Z],

whose two ingredients each come with an independent second route: the MSE
splits exactly (Pythagorean identity) as E[(X-X̂)^2] = E[(X-X̃)^2] +
E[(X̃-X̂)^2], and the quantile-coupling transport cost is cross-checked by a
linear program over the transportation polytope.

Entropies are in nats.  Every decoder maps Z onto one alphabet, the MMSE
support joined with the source alphabet.  The grid solvers
(``region_approx``, ``c_min_solver`` with ``extreme_point_b``, and
``outer_bound_sweep``) take their decoder grid from ``_grid``, which enforces
``levels >= 1`` and the 2,000,000-decoder cap for all of them.  Two guards
stay per solver: ``region_approx`` limits alphabets to 6 symbols and levels
to 12, and ``c_min_solver`` needs ``levels >= 3``.  ``region_report``, which
the CLI runs, gives what the three and ``extreme_point_a`` give from one
grid and one (D, C) pass over it.

Two rules make ``discrete-region`` write the same bytes on every x86 host:
every product is ``_dot``, never a BLAS kernel, which the CPU picks and which
sums in its own order; and the reconstruction alphabet's zero is +0.0, never
the -0.0 that a SIMD sort may keep.

scipy is imported inside ``w2_squared_lp`` (the HiGHS bindings of
``scipy.optimize``) and ``discretize_gaussian`` (``scipy.special``), which no
CLI subcommand calls, on their first call: each import takes about a third of
a second.  ``scipy.stats`` is never imported: it adds another 0.4-0.7 s and
about 21 MB.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import Frozen, InfeasibleBudgetError, ParameterError, SizeGuardError, check_nonneg
from .errors import checked_index

_STOCHASTIC_TOL = 1e-12
_MAX_LP_SUPPORT = 64
_MAX_ALPHABET = 6
_MAX_LEVELS = 12
_MAX_DECODER_COMBOS = 2_000_000
_PARETO_BUCKETS = 1024  # D buckets of the frontier's sort-free prefilter


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for vectors or matrices, by numpy's own multiply and sum."""
    if b.ndim == 1:
        return (a * b).sum(axis=-1)
    return (a[..., None] * b).sum(axis=-2)


def _frozen_array(name: str, value, ndim: int) -> np.ndarray:
    """A read-only float64 copy of ``value``, a non-empty rectangular rank-``ndim``
    array of finite numbers; ``ParameterError`` otherwise.  The copy keeps a
    checked object from changing when its caller later writes to ``value``."""
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged; an int past float range; not a number
        msg = f"{name} must be a rectangular array of numbers in float range"
        raise ParameterError(msg) from None
    if arr.ndim != ndim or arr.size == 0:
        raise ParameterError(f"{name} must be a non-empty rank-{ndim} array")
    if not np.all(np.isfinite(arr)):  # NaN passes every < and > check
        raise ParameterError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _check_probabilities(name: str, p: np.ndarray, tol: float, axis=None) -> None:
    """Refuse a negative entry, or a total (per row with ``axis=1``) off 1 by more than tol."""
    if np.any(p < 0.0) or np.any(np.abs(p.sum(axis=axis) - 1.0) > tol):
        raise ParameterError(f"{name} must be nonnegative and sum to 1")


class DiscreteDistribution(Frozen):
    """Atoms on the real line: strictly increasing support, probs summing to 1.

    Owns read-only copies of ``support`` and ``probs``, whose entries must be
    finite.
    """

    def __init__(self, support: np.ndarray, probs: np.ndarray):
        support = _frozen_array("support", support, 1)
        probs = _frozen_array("probs", probs, 1)
        if probs.shape != support.shape:
            raise ParameterError("support and probs must have equal length")
        if np.any(np.diff(support) <= 0.0):
            raise ParameterError("support must be strictly increasing")
        _check_probabilities("probs", probs, 1e-9)
        self.__dict__.update(support=support, probs=probs)

    def mean(self) -> float:
        return float(_dot(self.support, self.probs))

    def variance(self) -> float:
        m = self.mean()
        return float(_dot((self.support - m) ** 2, self.probs))


class DiscreteSource(Frozen):
    """Joint pmf of a real-valued X and a finite label S.

    ``pmf[i, j] = P(X = x_values[i], S = j)``.  Labels are indices: every
    label quantity is an entropy, so S needs no numeric values.  The source
    owns read-only copies of ``x_values`` and ``pmf``, whose entries must be
    finite, and so must the squared span ``(x_max - x_min)^2``, which bounds
    every squared distance the distortions and transport costs add up.
    """

    def __init__(self, x_values: np.ndarray, s_size: int, pmf: np.ndarray):
        xv = _frozen_array("x_values", x_values, 1)
        pmf = _frozen_array("pmf", pmf, 2)
        if np.any(np.diff(xv) <= 0.0):
            raise ParameterError("x_values must be strictly increasing")
        if isinstance(s_size, bool) or not isinstance(s_size, (int, np.integer)) or s_size < 2:
            raise ParameterError(f"s_size must be an integer >= 2, got {s_size!r}")
        if pmf.shape != (xv.size, s_size):
            raise ParameterError(
                f"pmf must have shape {(xv.size, s_size)}, got {pmf.shape}"
            )
        _check_probabilities("pmf", pmf, _STOCHASTIC_TOL)
        span = float(xv[-1]) - float(xv[0])
        if not math.isfinite(span * span):
            raise ParameterError(f"x_values span {span} overflows when squared")
        self.__dict__.update(x_values=xv, s_size=s_size, pmf=pmf)

    @property
    def p_x(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    def mean_x(self) -> float:
        return float(_dot(self.x_values, self.p_x))

    def var_x(self) -> float:
        m = self.mean_x()
        return float(_dot((self.x_values - m) ** 2, self.p_x))


class Channel(Frozen):
    """Row-stochastic matrix: rows index inputs, each row a probability vector.

    Owns a read-only copy of ``matrix``, whose entries must be finite.
    """

    def __init__(self, matrix: np.ndarray):
        mat = _frozen_array("channel matrix", matrix, 2)
        _check_probabilities("channel rows", mat, _STOCHASTIC_TOL, axis=1)
        self.__dict__.update(matrix=mat)

    @property
    def n_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_out(self) -> int:
        return self.matrix.shape[1]


class MMSEReduction(Frozen):
    """Conditional-mean decode of an encoder: estimator, its law, and residual."""

    def __init__(
        self, estimator: dict[int, float], p_xtilde: DiscreteDistribution, residual: float
    ):
        self.__dict__.update(estimator=estimator, p_xtilde=p_xtilde, residual=residual)


class CMinSolution(Frozen):
    """Outcome of a minimum-classification-loss search that some decoder
    within the MSE budget meets; the solvers return None when none does.

    ``d_b`` is the distortion of extreme point B, the outer bound at the
    minimising decoder: E[(X - X̃)^2] + W2^2(p_X̃, p_X̂ at c_min).
    """

    def __init__(self, c_min: float, d_b: float, decoder: Channel, p_xhat: DiscreteDistribution):
        self.__dict__.update(c_min=c_min, d_b=d_b, decoder=decoder, p_xhat=p_xhat)


class OuterBoundReport(Frozen):
    def __init__(
        self, d: float, c: float, rhs: float, holds: bool, residual: float, w2_term: float
    ):
        self.__dict__.update(d=d, c=c, rhs=rhs, holds=holds, residual=residual, w2_term=w2_term)


def _check_encoder(src: DiscreteSource, encoder: Channel) -> None:
    if encoder.n_in != src.x_values.size:
        raise ParameterError(
            f"encoder has {encoder.n_in} input rows, source alphabet has "
            f"{src.x_values.size}"
        )


def joint_zs(src: DiscreteSource, encoder: Channel) -> np.ndarray:
    """Joint p(z, s) induced by the source and encoder, shape (n_z, s_size)."""
    _check_encoder(src, encoder)
    return _dot(encoder.matrix.T, src.pmf)


def mutual_info_xz(src: DiscreteSource, encoder: Channel) -> float:
    """I(X; Z) of the encoder in nats, by exact enumeration."""
    _check_encoder(src, encoder)
    p_x = src.p_x
    p_z = _dot(p_x, encoder.matrix)
    joint = p_x[:, None] * encoder.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        term = joint * (np.log(joint) - np.log(p_x[:, None]) - np.log(p_z[None, :]))
    term[joint <= 0.0] = 0.0
    return float(term.sum())


def mmse_reduction(src: DiscreteSource, encoder: Channel) -> MMSEReduction:
    """E[X | Z = z] per reachable z, the law of X̃, and E[(X - X̃)^2].

    Unreachable z symbols (zero marginal probability) are dropped; estimator
    values that coincide exactly are merged into one atom of p_X̃.
    """
    _check_encoder(src, encoder)
    p_x = src.p_x
    p_z = _dot(p_x, encoder.matrix)
    estimator: dict[int, float] = {}
    mass: dict[float, float] = {}
    residual = 0.0
    for z in range(encoder.n_out):
        if p_z[z] <= 0.0:
            continue
        w = p_x * encoder.matrix[:, z]
        m = float(_dot(w, src.x_values)) / p_z[z]
        estimator[z] = m
        mass[m] = mass.get(m, 0.0) + float(p_z[z])
        residual += float(_dot(w, (src.x_values - m) ** 2))
    values = sorted(mass)
    probs = np.array([mass[v] for v in values])
    return MMSEReduction(
        estimator=estimator,
        p_xtilde=DiscreteDistribution(values, probs / probs.sum()),
        residual=residual,
    )


def cond_entropy_discrete(joint: np.ndarray) -> float:
    """H(S | W) in nats from a joint table ``joint[s, w] = P(S=s, W=w)``.

    Conditions on the second axis; 0*log(0) is 0.
    """
    j = _frozen_array("joint", joint, 2)
    _check_probabilities("joint", j, 1e-9)
    return float(_kernels.cond_entropy_terms(j, j.sum(axis=0)[None, :]).sum())


def w2_squared_quantile(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Squared transport cost of the monotone (quantile) coupling."""
    return _kernels.w2_quantile_pairs(p.support, p.probs, q.support, q.probs)


def _transport_lp(p: DiscreteDistribution, q: DiscreteDistribution):
    """The HiGHS model and options of ``w2_squared_lp``'s coupling LP."""
    from scipy.optimize._highspy import _core as highs

    n, m = p.support.size, q.support.size
    i, j = np.divmod(np.arange(n * m), m)  # column i*m + j is the mass moved from i to j
    in_col_sum = j < m - 1  # last column constraint is redundant
    rows = np.stack((i, n + j), axis=1)[np.stack((np.ones_like(in_col_sum), in_col_sum), axis=1)]
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n * m
    lp.num_row_ = lp.a_matrix_.num_row_ = n + m - 1
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.col_cost_ = ((p.support[:, None] - q.support[None, :]) ** 2).ravel()
    lp.row_lower_ = lp.row_upper_ = np.concatenate((p.probs, q.probs[:-1]))
    # HiGHS's vectors take Python lists 2-5x faster than numpy arrays, which
    # they read one numpy scalar at a time (~140 us a call at 32 x 32).
    lp.col_lower_, lp.col_upper_ = [0.0] * (n * m), [highs.kHighsInf] * (n * m)
    lp.a_matrix_.start_ = [0, *np.cumsum(1 + in_col_sum).tolist()]
    lp.a_matrix_.index_ = rows.tolist()
    lp.a_matrix_.value_ = [1.0] * rows.size
    opts, simplex = highs.HighsOptions(), highs.simplex_constants
    opts.presolve = "off"
    opts.simplex_strategy = simplex.SimplexStrategy.kSimplexStrategyDual
    edge_weights = simplex.SimplexEdgeWeightStrategy
    opts.simplex_dual_edge_weight_strategy = edge_weights.kSimplexEdgeWeightStrategyDantzig
    # At HiGHS's default tolerances (1e-7) a 32-atom pair's value came out 4.4e-9 low.
    opts.primal_feasibility_tolerance = opts.dual_feasibility_tolerance = 1e-10
    opts.output_flag = opts.log_to_console = False
    return lp, opts


def w2_squared_lp(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Exact transportation LP over the coupling polytope (HiGHS dual simplex).

    Independent oracle for ``w2_squared_quantile``; supports up to 64 atoms
    per marginal.  ``_transport_lp``'s model goes to a fresh HiGHS solver
    through the bindings scipy bundles (``scipy.optimize._highspy``, imported
    on the first call: no CLI subcommand needs it), with the options that
    ``linprog(method="highs")`` would pass, and the value keeps its bits.

    Column ``i*m + j`` of the sparse matrix holds a 1 in row ``i`` (the row
    sums) and, for ``j < m-1``, in row ``n + j`` (the column sums).  A dense
    matrix cost ~100-190 fresh pages a call at 32 x 32 atoms.  Presolve is
    off: with positive masses it finds nothing to remove, and at 32 x 32 it
    cost 1.0-1.3 ms.  Dantzig pricing took the median iteration count of
    rdcbench's library-oracles pairs from 187 to 140.  Bypassing
    ``linprog``'s wrapper, which checks each option through a new options
    manager and reads the basis back column by column, cut a call from
    ~1.9 to 0.41 ms at 4 x 4, ~4.5 to 1.74 ms at 32 x 32 and ~14-16 to
    8.6-10.3 ms at 64 x 64.  That CPU time splits into building the model,
    handing it to a new solver and HiGHS's ``run`` as 0.14 + 0.09 + 0.11 ms,
    0.30 + 0.16 + 1.2-1.3 ms and 0.65-0.75 + 0.29 + 7.3-8.5 ms (medians of
    40 random pairs per size, two draws, 2-vCPU x86_64).
    """
    from scipy.optimize._highspy import _core as highs

    if p.support.size > _MAX_LP_SUPPORT or q.support.size > _MAX_LP_SUPPORT:
        raise SizeGuardError(f"LP oracle limited to {_MAX_LP_SUPPORT} atoms")
    lp, opts = _transport_lp(p, q)
    solver = highs._Highs()
    solver.passOptions(opts)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:  # pragma: no cover - always feasible
        raise RuntimeError(f"transportation LP failed: {solver.modelStatusToString(status)}")
    return float(solver.getInfo().objective_function_value)


def default_xhat_values(src: DiscreteSource, red: MMSEReduction) -> np.ndarray:
    """Reconstruction alphabet: MMSE atoms of ``red`` joined with the source's, zero as +0.0."""
    atoms = (*red.p_xtilde.support.tolist(), *src.x_values.tolist())
    return np.array(sorted({v + 0.0 for v in atoms}))


def deterministic_decoder(
    targets: dict[int, float], n_z: int, xhat_values: np.ndarray
) -> Channel:
    """One-hot decoder sending z to targets[z]; unreachable rows go to atom 0."""
    vals = np.asarray(xhat_values, dtype=np.float64)
    mat = np.zeros((n_z, vals.size))
    for z in range(n_z):
        if z in targets:
            hits = np.nonzero(vals == targets[z])[0]
            if hits.size != 1:
                raise ParameterError(
                    f"target {targets[z]} for z={z} not a unique alphabet atom"
                )
            mat[z, hits[0]] = 1.0
        else:
            mat[z, 0] = 1.0
    return Channel(mat)


def outer_bound_check(
    src: DiscreteSource, encoder: Channel, decoder: Channel
) -> OuterBoundReport:
    """Exact check of D >= residual + W2^2(p_X̃, p_X̂) for one decoder.

    The joint over (S, X, Z, X̂) is enumerated exactly; D is the achieved
    MSE, C the achieved H(S | X̂).
    """
    red = mmse_reduction(src, encoder)
    vals = default_xhat_values(src, red)
    if decoder.n_in != encoder.n_out or decoder.n_out != vals.size:
        raise ParameterError("decoder shape does not match encoder/alphabet")
    through = _dot(encoder.matrix, decoder.matrix)  # p(x̂ | x), shape (n_x, n_k)
    sq = (src.x_values[:, None] - vals[None, :]) ** 2
    d = float((src.p_x[:, None] * through * sq).sum())
    joint_sk = _dot(src.pmf.T, through)  # (n_s, n_k)
    c = cond_entropy_discrete(joint_sk)
    p_xhat = _dot(_dot(src.p_x, encoder.matrix), decoder.matrix)
    w2 = _kernels.w2_quantile_pairs(
        red.p_xtilde.support, red.p_xtilde.probs, vals, p_xhat
    )
    rhs = red.residual + w2
    holds = bool(d >= rhs - _kernels.outer_tol(vals))
    return OuterBoundReport(
        d=d, c=c, rhs=rhs, holds=holds, residual=red.residual, w2_term=w2
    )


def extreme_point_a(src: DiscreteSource, encoder: Channel) -> tuple[float, float]:
    """Minimum-distortion corner: (E[(X - X̃)^2], H(S | X̃))."""
    return _extreme_a(mmse_reduction(src, encoder), joint_zs(src, encoder))


def _extreme_a(red: MMSEReduction, b: np.ndarray) -> tuple[float, float]:
    groups: dict[float, np.ndarray] = {}  # x̃ -> p(x̃, s), summed from b = p(z, s)
    for z, value in red.estimator.items():
        groups[value] = groups.get(value, 0.0) + b[z]
    joint = np.stack([groups[v] for v in sorted(groups)], axis=1)  # (n_s, n_groups)
    return red.residual, cond_entropy_discrete(joint)


@lru_cache(maxsize=None)
def _simplex_grid(levels: int, m: int) -> np.ndarray:
    """All probability rows whose entries are multiples of 1/levels.

    Rows are returned in lexicographic order of their composition tuples.
    """

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    rows = np.array(list(compositions(levels, m)), dtype=np.float64)
    rows /= levels
    rows.flags.writeable = False
    return rows


def _grid(src: DiscreteSource, encoder: Channel, levels: int):
    """The decoder grid of the three grid solvers, built in one place.

    Returns ``(red, vals, rows, row_d, joint_zs)``: the MMSE reduction, the
    reconstruction alphabet (MMSE support joined with the source alphabet),
    the simplex-grid rows over it, ``row_d[z, r]`` the distortion symbol z
    contributes when it decodes with row r, and the joint p(z, s).
    """
    levels = checked_index("levels", levels, 1)
    red = mmse_reduction(src, encoder)
    vals = default_xhat_values(src, red)
    combos = math.comb(levels + vals.size - 1, vals.size - 1) ** encoder.n_out
    if combos > _MAX_DECODER_COMBOS:
        raise SizeGuardError(
            f"{combos} decoder combinations exceed the enumeration cap "
            f"({_MAX_DECODER_COMBOS})"
        )
    rows = _simplex_grid(levels, int(vals.size))
    sq = (src.x_values[:, None] - vals[None, :]) ** 2
    a = _dot(encoder.matrix.T, src.p_x[:, None] * sq)  # (n_z, n_k)
    row_d = _dot(a, rows.T)  # (n_z, n_rows)
    return red, vals, rows, row_d, joint_zs(src, encoder)


def _check_c_min_args(d_budget: float, levels: int) -> None:
    check_nonneg("d_budget", d_budget)
    checked_index("levels", levels, 3)


def _c_min_solution(src, encoder, grid, idx, best_c) -> CMinSolution:
    red, vals, rows = grid[:3]
    decoder = Channel(rows[idx])
    p_xhat = DiscreteDistribution(vals, _dot(_dot(src.p_x, encoder.matrix), decoder.matrix))
    return CMinSolution(
        c_min=best_c,
        d_b=red.residual + w2_squared_quantile(red.p_xtilde, p_xhat),
        decoder=decoder,
        p_xhat=p_xhat,
    )


def c_min_solver(
    src: DiscreteSource, encoder: Channel, d_budget: float, levels: int
) -> CMinSolution | None:
    """Grid search for the decoder minimising H(S | X̂) within an MSE budget.

    Decoder rows range over the simplex grid with entries in multiples of
    1/levels; ties break toward the lexicographically first decoder.  A
    ``d_budget`` of +inf is no budget; NaN and negative budgets are refused
    (-0.0 is 0).  None when no grid decoder meets the budget.
    """
    _check_c_min_args(d_budget, levels)
    grid = _grid(src, encoder, levels)
    rows, row_d, b = grid[2:]
    idx, best_c = _kernels.cmin_scan(rows, encoder.n_out, row_d, b, float(d_budget))
    return None if idx is None else _c_min_solution(src, encoder, grid, idx, best_c)


def extreme_point_b(
    src: DiscreteSource, encoder: Channel, d_budget: float, levels: int
) -> tuple[float, float]:
    """Minimum-classification-loss corner:
    (residual + W2^2(p_X̃, p_X̂_at_c_min), C_min)."""
    sol = c_min_solver(src, encoder, d_budget, levels)
    if sol is None:
        raise InfeasibleBudgetError(f"no grid decoder meets the distortion budget {d_budget}")
    return sol.d_b, sol.c_min


def _check_region_size(src: DiscreteSource, encoder: Channel, levels: int) -> None:
    _check_encoder(src, encoder)
    checked_index("levels", levels, 1)
    if (
        src.x_values.size > _MAX_ALPHABET
        or src.s_size > _MAX_ALPHABET
        or encoder.n_out > _MAX_ALPHABET
        or levels > _MAX_LEVELS
    ):
        raise SizeGuardError(
            f"alphabets are limited to {_MAX_ALPHABET} symbols and levels to "
            f"{_MAX_LEVELS} for exact enumeration"
        )


def _frontier(d_all: np.ndarray, c_all: np.ndarray) -> list[tuple[float, float]]:
    """Pareto-minimal (D, C) points, by D: C below every C sorted before it."""
    lo, hi = d_all.min(), d_all.max()
    if hi > lo:
        # Sort-free prefilter, by slices.  The bucket never decreases as D grows,
        # so a point whose C is not below the running minimum of the lower
        # buckets (never below the final one) is dominated.
        least = np.full(_PARETO_BUCKETS + 1, math.inf)
        kept = []
        for i in range(0, d_all.size, _kernels._CHUNK):
            d, c = d_all[i : i + _kernels._CHUNK], c_all[i : i + _kernels._CHUNK]
            bucket = ((d - lo) / (hi - lo) * _PARETO_BUCKETS).astype(np.intp)
            np.minimum.at(least, bucket, c)
            below = np.minimum.accumulate(np.concatenate(([math.inf], least[:-1])))
            keep = c < below[bucket]
            kept.append((d[keep], c[keep]))
        d_all, c_all = (np.concatenate(part) for part in zip(*kept))
    order = np.lexsort((c_all, d_all))  # by D, ties by C
    d_all, c_all = d_all[order], c_all[order]
    best_before = np.minimum.accumulate(np.concatenate(([math.inf], c_all[:-1])))
    keep = c_all < best_before
    return [(float(d), float(c)) for d, c in zip(d_all[keep], c_all[keep])]


def region_approx(
    src: DiscreteSource, encoder: Channel, levels: int
) -> list[tuple[float, float]]:
    """Pareto-minimal (D, C) frontier over the enumerated decoder grid."""
    _check_region_size(src, encoder, levels)
    _, _, rows, row_d, b = _grid(src, encoder, levels)
    return _frontier(*_kernels.dc_scan(rows, encoder.n_out, row_d, b))


def region_report(src: DiscreteSource, encoder: Channel, d_budget: float, levels: int):
    """What ``region_approx``, ``extreme_point_a``, ``c_min_solver``,
    ``outer_bound_sweep`` and ``mutual_info_xz`` return, as one tuple in that
    order, from one grid.  Refuses as ``region_approx`` and then
    ``c_min_solver`` would, and before the outer scan when no grid decoder
    meets the budget (``InfeasibleBudgetError``).  The only grid-sized arrays,
    ``dc_scan``'s (d, c) at 16 B per decoder, are freed before the outer scan."""
    _check_region_size(src, encoder, levels)
    grid = _grid(src, encoder, levels)
    _check_c_min_args(d_budget, levels)
    red, _, rows, row_d, b = grid
    d, c = _kernels.dc_scan(rows, encoder.n_out, row_d, b)
    idx, best_c = _kernels.budget_argmin(d, c, float(d_budget), len(rows), encoder.n_out)
    if idx is None:
        raise InfeasibleBudgetError(
            f"no decoder on the grid meets the distortion budget {d_budget}"
        )
    frontier = _frontier(d, c)
    del d, c
    return (
        frontier,
        _extreme_a(red, b),
        _c_min_solution(src, encoder, grid, idx, best_c),
        _outer_sweep(src, encoder, grid),
        mutual_info_xz(src, encoder),
    )


def outer_bound_sweep(
    src: DiscreteSource, encoder: Channel, levels: int
) -> tuple[int, float, int]:
    """Outer-bound check across every enumerated decoder.

    Returns (violations, min_slack, decoders_checked) where slack is
    D - residual - W2^2(p_X̃, p_X̂).
    """
    return _outer_sweep(src, encoder, _grid(src, encoder, levels))


def _outer_sweep(src: DiscreteSource, encoder: Channel, grid) -> tuple[int, float, int]:
    red, vals, rows, row_d, _ = grid
    # p_X̃ on the grid alphabet, which holds every MMSE atom.
    p_xt = np.zeros(vals.size)
    p_xt[np.searchsorted(vals, red.p_xtilde.support)] = red.p_xtilde.probs
    p_z = _dot(src.p_x, encoder.matrix)
    violations, min_slack = _kernels.outer_scan(
        rows, encoder.n_out, row_d, p_z, vals, p_xt, red.residual
    )
    return violations, min_slack, rows.shape[0] ** encoder.n_out


def discretize_gaussian(mu: float, var: float, n: int = 10_000) -> DiscreteDistribution:
    """Equal-mass quantile-midpoint discretisation of N(mu, var).

    The atoms are ``mu + sqrt(var) * ndtri((k + 0.5) / n)``, where ``ndtri``
    is the standard normal quantile that ``scipy.stats.norm.ppf`` evaluates
    (as ``ndtri(q) * 1 + 0``, the same bits).  ``scipy.special`` is imported
    on the first call, not with the module, because no CLI subcommand needs
    it.  ``statistics.NormalDist().inv_cdf`` would avoid scipy, but it
    differs from ``ndtri`` in the last bits of most atoms, so it would change
    the atoms this function has always returned.
    """
    from scipy.special import ndtri

    if var < 0.0:
        raise ParameterError("variance must be >= 0")
    n = checked_index("n", n, 1)
    if var == 0.0:
        return DiscreteDistribution(np.array([mu]), np.array([1.0]))
    q = (np.arange(n) + 0.5) / n
    support = mu + math.sqrt(var) * ndtri(q)
    probs = np.full(n, 1.0 / n)
    return DiscreteDistribution(support, probs)
