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

scipy is imported inside the two functions that use it, ``w2_squared_lp``
(``linprog``) and ``discretize_gaussian`` (``norm``), on their first call.
Importing ``scipy.optimize`` and ``scipy.stats`` takes about a second, several
times the rest of ``import rdclab``, and no CLI subcommand calls either
function, so a module-level import would make every process pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import InfeasibleBudgetError, ParameterError, SizeGuardError, check_not_nan

_STOCHASTIC_TOL = 1e-12
_MAX_LP_SUPPORT = 64
_MAX_ALPHABET = 6
_MAX_LEVELS = 12
_MAX_DECODER_COMBOS = 2_000_000
_PARETO_BUCKETS = 1024  # D buckets of the frontier's sort-free prefilter


def check_finite_array(name: str, arr: np.ndarray) -> None:
    """Refuse NaN and infinite entries, which every ``<``/``>`` check lets through."""
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Atoms on the real line: strictly increasing support, probs summing to 1.

    Every entry of ``support`` and ``probs`` must be finite.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if support.ndim != 1 or probs.shape != support.shape:
            raise ParameterError("support and probs must be 1-D and equal length")
        if support.size == 0:
            raise ParameterError("distribution must have at least one atom")
        check_finite_array("support", support)
        check_finite_array("probs", probs)
        if np.any(np.diff(support) <= 0.0):
            raise ParameterError("support must be strictly increasing")
        if np.any(probs < 0.0) or abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ParameterError("probs must be nonnegative and sum to 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        support.flags.writeable = False
        probs.flags.writeable = False

    def mean(self) -> float:
        return float(self.support @ self.probs)

    def variance(self) -> float:
        m = self.mean()
        return float(((self.support - m) ** 2) @ self.probs)


@dataclass(frozen=True)
class DiscreteSource:
    """Joint pmf of a real-valued X and a finite label S.

    ``pmf[i, j] = P(X = x_values[i], S = j)``.  Labels are indices: every
    label quantity is an entropy, so S needs no numeric values.  Every entry
    of ``x_values`` and ``pmf`` must be finite, and so must the squared span
    ``(x_max - x_min)^2``, which bounds every squared distance the
    distortions and transport costs add up.
    """

    x_values: np.ndarray
    s_size: int
    pmf: np.ndarray

    def __post_init__(self) -> None:
        xv = np.asarray(self.x_values, dtype=np.float64)
        pmf = np.asarray(self.pmf, dtype=np.float64)
        check_finite_array("x_values", xv)
        check_finite_array("pmf", pmf)
        if xv.ndim != 1 or np.any(np.diff(xv) <= 0.0):
            raise ParameterError("x_values must be 1-D and strictly increasing")
        s_size = self.s_size
        if isinstance(s_size, bool) or not isinstance(s_size, (int, np.integer)) or s_size < 2:
            raise ParameterError(f"s_size must be an integer >= 2, got {s_size!r}")
        if pmf.shape != (xv.size, s_size):
            raise ParameterError(
                f"pmf must have shape {(xv.size, s_size)}, got {pmf.shape}"
            )
        if np.any(pmf < 0.0) or abs(float(pmf.sum()) - 1.0) > _STOCHASTIC_TOL:
            raise ParameterError("pmf must be nonnegative and sum to 1")
        span = float(xv[-1]) - float(xv[0])  # xv is not empty: pmf sums to 1
        if not math.isfinite(span * span):
            raise ParameterError(f"x_values span {span} overflows when squared")
        object.__setattr__(self, "x_values", xv)
        object.__setattr__(self, "pmf", pmf)
        for arr in (xv, pmf):
            arr.flags.writeable = False

    @property
    def p_x(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    def mean_x(self) -> float:
        return float(self.x_values @ self.p_x)

    def var_x(self) -> float:
        m = self.mean_x()
        return float(((self.x_values - m) ** 2) @ self.p_x)


@dataclass(frozen=True)
class Channel:
    """Row-stochastic matrix: rows index inputs, each row a probability vector.

    Every entry must be finite.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] == 0 or mat.shape[1] == 0:
            raise ParameterError("channel matrix must be 2-D and non-empty")
        check_finite_array("channel entries", mat)
        if np.any(mat < 0.0):
            raise ParameterError("channel entries must be nonnegative")
        if np.any(np.abs(mat.sum(axis=1) - 1.0) > _STOCHASTIC_TOL):
            raise ParameterError("channel rows must each sum to 1")
        object.__setattr__(self, "matrix", mat)
        mat.flags.writeable = False

    @property
    def n_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_out(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class MMSEReduction:
    """Conditional-mean decode of an encoder: estimator, its law, and residual."""

    estimator: dict[int, float]
    p_xtilde: DiscreteDistribution
    residual: float


@dataclass(frozen=True)
class CMinSolution:
    """Outcome of a minimum-classification-loss search that some decoder
    within the MSE budget meets; the solvers return None when none does.

    ``d_b`` is the distortion of extreme point B, the outer bound at the
    minimising decoder: E[(X - X̃)^2] + W2^2(p_X̃, p_X̂ at c_min).
    """

    c_min: float
    d_b: float
    decoder: Channel
    p_xhat: DiscreteDistribution


@dataclass(frozen=True)
class OuterBoundReport:
    d: float
    c: float
    rhs: float
    holds: bool
    residual: float
    w2_term: float


def _check_encoder(src: DiscreteSource, encoder: Channel) -> None:
    if encoder.n_in != src.x_values.size:
        raise ParameterError(
            f"encoder has {encoder.n_in} input rows, source alphabet has "
            f"{src.x_values.size}"
        )


def joint_zs(src: DiscreteSource, encoder: Channel) -> np.ndarray:
    """Joint p(z, s) induced by the source and encoder, shape (n_z, s_size)."""
    _check_encoder(src, encoder)
    return encoder.matrix.T @ src.pmf


def mutual_info_xz(src: DiscreteSource, encoder: Channel) -> float:
    """I(X; Z) of the encoder in nats, by exact enumeration."""
    _check_encoder(src, encoder)
    p_x = src.p_x
    p_z = p_x @ encoder.matrix
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
    p_z = p_x @ encoder.matrix
    estimator: dict[int, float] = {}
    mass: dict[float, float] = {}
    residual = 0.0
    for z in range(encoder.n_out):
        if p_z[z] <= 0.0:
            continue
        w = p_x * encoder.matrix[:, z]
        m = float(w @ src.x_values) / p_z[z]
        estimator[z] = m
        mass[m] = mass.get(m, 0.0) + float(p_z[z])
        residual += float(w @ (src.x_values - m) ** 2)
    values = np.array(sorted(mass), dtype=np.float64)
    probs = np.array([mass[v] for v in values], dtype=np.float64)
    probs = probs / probs.sum()
    return MMSEReduction(
        estimator=estimator,
        p_xtilde=DiscreteDistribution(values, probs),
        residual=residual,
    )


def cond_entropy_discrete(joint: np.ndarray) -> float:
    """H(S | W) in nats from a joint table ``joint[s, w] = P(S=s, W=w)``.

    Conditions on the second axis; 0*log(0) is 0.
    """
    j = np.asarray(joint, dtype=np.float64)
    if j.ndim != 2:
        raise ParameterError("joint must be 2-D")
    if np.any(j < 0.0) or abs(float(j.sum()) - 1.0) > 1e-9:
        raise ParameterError("joint must be nonnegative and sum to 1")
    p_w = j.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = j * (np.log(p_w)[None, :] - np.log(j))
    term[j <= 0.0] = 0.0
    return float(term.sum())


def w2_squared_quantile(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Squared transport cost of the monotone (quantile) coupling."""
    return _kernels.w2_quantile_pairs(p.support, p.probs, q.support, q.probs)


def w2_squared_lp(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Exact transportation LP over the coupling polytope (HiGHS simplex).

    Independent oracle for ``w2_squared_quantile``; supports up to 64 atoms
    per marginal.  ``scipy.optimize`` is imported on the first call, not with
    the module, because no CLI subcommand needs it.
    """
    from scipy.optimize import linprog

    n, m = p.support.size, q.support.size
    if n > _MAX_LP_SUPPORT or m > _MAX_LP_SUPPORT:
        raise SizeGuardError(f"LP oracle limited to {_MAX_LP_SUPPORT} atoms")
    cost = (p.support[:, None] - q.support[None, :]) ** 2
    a_eq = np.zeros((n + m - 1, n * m))
    b_eq = np.zeros(n + m - 1)
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
        b_eq[i] = p.probs[i]
    for jcol in range(m - 1):  # last column constraint is redundant
        a_eq[n + jcol, jcol::m] = 1.0
        b_eq[n + jcol] = q.probs[jcol]
    # At HiGHS's default tolerances (1e-7) a 32-atom pair's value came out 4.4e-9 low.
    tol = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs", options=tol
    )
    if not res.success:  # pragma: no cover - transportation LPs are always feasible
        raise RuntimeError(f"transportation LP failed: {res.message}")
    return float(res.fun)


def default_xhat_values(src: DiscreteSource, red: MMSEReduction) -> np.ndarray:
    """Reconstruction alphabet: MMSE atoms of ``red`` joined with the source's."""
    return np.union1d(red.p_xtilde.support, src.x_values)


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
    through = encoder.matrix @ decoder.matrix  # p(x̂ | x), shape (n_x, n_k)
    sq = (src.x_values[:, None] - vals[None, :]) ** 2
    d = float((src.p_x[:, None] * through * sq).sum())
    joint_sk = src.pmf.T @ through  # (n_s, n_k)
    c = cond_entropy_discrete(joint_sk)
    p_xhat = src.p_x @ encoder.matrix @ decoder.matrix
    w2 = _kernels.w2_quantile_pairs(
        red.p_xtilde.support, red.p_xtilde.probs, vals, p_xhat
    )
    rhs = red.residual + w2
    holds = bool(d >= rhs - _kernels.outer_tol(np.concatenate((src.x_values, vals))))
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
    if levels < 1:
        raise ParameterError("levels must be >= 1")
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
    a = encoder.matrix.T @ (src.p_x[:, None] * sq)  # (n_z, n_k)
    row_d = np.ascontiguousarray(a @ rows.T)  # (n_z, n_rows)
    return red, vals, rows, row_d, joint_zs(src, encoder)


def _check_c_min_args(d_budget: float, levels: int) -> None:
    check_not_nan("d_budget", d_budget)
    if levels < 3:
        raise ParameterError("levels must be >= 3")


def _c_min_solution(src, encoder, grid, idx, best_c) -> CMinSolution:
    red, vals, rows = grid[:3]
    decoder = Channel(rows[idx])
    p_xhat = DiscreteDistribution(vals, src.p_x @ encoder.matrix @ decoder.matrix)
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
    ``d_budget`` of +inf is no budget; NaN is refused.  None when no grid
    decoder meets the budget.
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
        # Sort-free prefilter.  The bucket never decreases as D grows, so a
        # point whose C is not below every C of the lower buckets is dominated.
        bucket = ((d_all - lo) / (hi - lo) * _PARETO_BUCKETS).astype(np.intp)
        least = np.full(_PARETO_BUCKETS + 1, math.inf)
        np.minimum.at(least, bucket, c_all)
        below = np.minimum.accumulate(np.concatenate(([math.inf], least[:-1])))
        keep = c_all < below[bucket]
        d_all, c_all = d_all[keep], c_all[keep]
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
    meets the budget (``InfeasibleBudgetError``)."""
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
    return (
        _frontier(d, c),
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
    p_z = src.p_x @ encoder.matrix
    violations, min_slack = _kernels.outer_scan(
        rows, encoder.n_out, row_d, p_z, vals, p_xt, red.residual
    )
    return violations, min_slack, rows.shape[0] ** encoder.n_out


def discretize_gaussian(mu: float, var: float, n: int = 10_000) -> DiscreteDistribution:
    """Equal-mass quantile-midpoint discretisation of N(mu, var).

    The atoms are ``mu + sqrt(var) * norm.ppf((k + 0.5) / n)``.
    ``scipy.stats`` is imported on the first call, not with the module,
    because no CLI subcommand needs it.  ``statistics.NormalDist().inv_cdf``
    would avoid scipy, but it differs from ``norm.ppf`` in the last bits of
    most atoms, so it would change the atoms this function has always
    returned.
    """
    from scipy.stats import norm

    if var < 0.0:
        raise ParameterError("variance must be >= 0")
    if n < 1:
        raise ParameterError("n must be >= 1")
    if var == 0.0:
        return DiscreteDistribution(np.array([mu]), np.array([1.0]))
    q = (np.arange(n) + 0.5) / n
    support = mu + math.sqrt(var) * norm.ppf(q)
    probs = np.full(n, 1.0 / n)
    return DiscreteDistribution(support, probs)
