"""Finite-alphabet machinery: exact identities, transport oracles, frontiers.

The canonical instance: X uniform on {-1, +1}, S = X, and a symmetric
flip-0.1 encoder, for which every quantity is known in closed form
(residual 0.36, conditional entropy H_b(0.1) = 0.325083 nats).
"""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rdclab

from rdclab import (
    Channel,
    DiscreteDistribution,
    DiscreteSource,
    InfeasibleBudgetError,
    ParameterError,
    SizeGuardError,
    c_min_solver,
    cond_entropy_discrete,
    extreme_point_a,
    extreme_point_b,
    mmse_reduction,
    mutual_info_xz,
    outer_bound_check,
    region_approx,
    w2_squared_lp,
    w2_squared_quantile,
)
from rdclab.discrete_region import (
    _transport_lp,
    default_xhat_values,
    deterministic_decoder,
    _grid,
    discretize_gaussian,
    joint_zs,
    outer_bound_sweep,
)
from rdclab.cli import bundled_source_path, load_discrete_source

HB01 = 0.32508297339144824  # binary entropy of 0.1 in nats
LN2 = math.log(2.0)


def flip_source():
    return DiscreteSource(
        np.array([-1.0, 1.0]), 2, np.array([[0.5, 0.0], [0.0, 0.5]])
    )


def flip_encoder(p=0.1):
    return Channel(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def random_channel(rng, n_in, n_out):
    return Channel(rng.dirichlet(np.ones(n_out), size=n_in))


def random_source(rng, n_x, n_s):
    pmf = rng.dirichlet(np.ones(n_x * n_s)).reshape(n_x, n_s)
    xv = np.sort(rng.normal(size=n_x))
    while np.any(np.diff(xv) <= 1e-6):
        xv = np.sort(rng.normal(size=n_x))
    return DiscreteSource(xv, n_s, pmf)


def random_atoms(rng, n, zeros=False):
    """n atoms in [0, 1), strictly increasing; with ``zeros``, about a third of
    them (never all) carry no mass."""
    support = np.sort(rng.random(n))
    while np.any(np.diff(support) <= 1e-6):
        support = np.sort(rng.random(n))
    probs = rng.dirichlet(np.ones(n))
    if zeros and n > 1:
        probs[rng.permutation(n)[: n // 3]] = 0.0
        probs /= probs.sum()
    return DiscreteDistribution(support, probs)


class TestNonFiniteEntries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: DiscreteDistribution([0.0, v], [0.5, 0.5]),
            # a NaN mass used to pass, and w2_squared_quantile then never returned
            lambda v: DiscreteDistribution([0.0, 1.0], [0.5, v]),
            lambda v: DiscreteSource([-1.0, v], 2, [[0.5, 0.0], [0.0, 0.5]]),
            lambda v: DiscreteSource([-1.0, 1.0], 2, [[0.5, 0.0], [v, 0.5]]),
            lambda v: Channel([[0.9, 0.1], [v, 0.9]]),
        ],
        ids=["support", "probs", "x_values", "pmf", "channel"],
    )
    def test_constructor_rejects(self, make, bad):
        with pytest.raises(ParameterError, match="finite"):
            make(bad)


@pytest.mark.parametrize(
    "make",
    [
        lambda: DiscreteDistribution([0.0, 0.5, 0.5], [0.2, 0.3, 0.5]),
        lambda: DiscreteSource([-1.0, -1.0, 1.0], 2, [[0.2, 0.1], [0.1, 0.1], [0.0, 0.5]]),
    ],
    ids=["distribution", "source"],
)
def test_equal_adjacent_atoms_are_refused(make):
    with pytest.raises(ParameterError, match="strictly increasing"):
        make()


# Each value type built from the caller's arrays, and the attributes it copies.
OWNERS = {
    "distribution": (
        lambda a: DiscreteDistribution(a["x"], a["p"]), {"x": "support", "p": "probs"}
    ),
    "source": (lambda a: DiscreteSource(a["x"], 2, a["pmf"]), {"x": "x_values", "pmf": "pmf"}),
    "channel": (lambda a: Channel(a["enc"]), {"enc": "matrix"}),
}


def _caller_arrays():
    return {
        "x": np.array([-1.0, 1.0]),
        "p": np.array([0.5, 0.5]),
        "pmf": np.array([[0.5, 0.0], [0.0, 0.5]]),
        "enc": np.array([[0.9, 0.1], [0.1, 0.9]]),
    }


class TestOwnedCopies:
    """Each value type keeps a private read-only copy of the caller's arrays."""

    @pytest.mark.parametrize("kind", sorted(OWNERS))
    def test_caller_array_stays_writable_and_detached(self, kind):
        make, attrs = OWNERS[kind]
        arrays = _caller_arrays()
        obj = make(arrays)
        for key, attr in attrs.items():
            arrays[key][0] = 0.8  # once "assignment destination is read-only"
            assert getattr(obj, attr)[0].tolist() != arrays[key][0].tolist()
            assert not getattr(obj, attr).flags.writeable

    @pytest.mark.parametrize("kind", sorted(OWNERS))
    def test_write_to_the_base_of_a_view_does_not_reach_the_object(self, kind):
        make, attrs = OWNERS[kind]
        bases = {k: np.concatenate((v, v), axis=-1) for k, v in _caller_arrays().items()}
        views = {k: v[..., : v.shape[-1] // 2] for k, v in bases.items()}
        obj = make(views)
        for key, attr in attrs.items():
            bases[key][0] = math.nan
            assert np.all(np.isfinite(getattr(obj, attr)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DiscreteSource([-1.0, 1.0], 2, [[0.5], [0.0, 0.5]]),
            lambda: Channel([[1.0, 0.0], [1.0]]),
            lambda: DiscreteDistribution([0.0, 1.0], [[0.5], [0.5, 0.0]]),
            lambda: cond_entropy_discrete([[0.5, 0.0], [0.5]]),
        ],
        ids=["source_pmf", "channel", "distribution_probs", "cond_entropy"],
    )
    def test_ragged_rows_raise_parameter_error(self, make):
        with pytest.raises(ParameterError, match="rectangular"):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DiscreteDistribution([0.0, 10**400], [0.5, 0.5]),
            lambda: DiscreteSource([-1.0, 10**400], 2, [[0.5, 0.0], [0.0, 0.5]]),
            lambda: Channel([[1.0, 0.0], [10**400, 0.0]]),
        ],
        ids=["distribution", "source", "channel"],
    )
    def test_int_past_float_range_raises_parameter_error(self, make):
        with pytest.raises(ParameterError):  # once an OverflowError
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DiscreteDistribution([], []),
            lambda: DiscreteSource([[-1.0, 1.0]], 2, [[0.5, 0.0], [0.0, 0.5]]),
            lambda: Channel([0.5, 0.5]),
            lambda: Channel([[]]),
            lambda: cond_entropy_discrete([0.5, 0.5]),
        ],
        ids=["empty_distribution", "source_rank", "channel_rank", "empty_channel", "joint_rank"],
    )
    def test_wrong_rank_or_empty_raises_parameter_error(self, make):
        with pytest.raises(ParameterError, match="non-empty rank-"):
            make()


class TestMMSEReduction:
    def test_identity_encoder(self):
        src = flip_source()
        red = mmse_reduction(src, Channel(np.eye(2)))
        assert red.residual == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(red.p_xtilde.support, [-1.0, 1.0])
        np.testing.assert_allclose(red.p_xtilde.probs, [0.5, 0.5])

    def test_flip_encoder(self):
        red = mmse_reduction(flip_source(), flip_encoder())
        assert red.estimator[0] == pytest.approx(-0.8, abs=1e-12)
        assert red.estimator[1] == pytest.approx(0.8, abs=1e-12)
        assert red.residual == pytest.approx(0.36, abs=1e-12)

    def test_constant_encoder(self):
        src = flip_source()
        red = mmse_reduction(src, Channel(np.array([[1.0], [1.0]])))
        assert red.estimator[0] == pytest.approx(0.0, abs=1e-15)
        assert red.residual == pytest.approx(src.var_x(), abs=1e-12)
        assert red.p_xtilde.support.size == 1

    def test_unreachable_symbols_dropped(self):
        enc = Channel(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        red = mmse_reduction(flip_source(), enc)
        assert set(red.estimator) == {0}

    def test_variance_decomposition(self):
        # residual = Var(X) - Var(X̃) exactly, on random instances
        rng = np.random.default_rng(41)
        for _ in range(50):
            src = random_source(rng, 4, 3)
            enc = random_channel(rng, 4, 3)
            red = mmse_reduction(src, enc)
            assert red.residual == pytest.approx(
                src.var_x() - red.p_xtilde.variance(), abs=1e-12
            )


class TestCondEntropyDiscrete:
    def test_deterministic_is_zero(self):
        joint = np.diag([0.3, 0.7])
        assert cond_entropy_discrete(joint) == pytest.approx(0.0, abs=1e-15)

    def test_independent_uniform_binary(self):
        joint = np.full((2, 3), 1.0 / 6.0)
        assert cond_entropy_discrete(joint) == pytest.approx(LN2, abs=1e-12)

    def test_flip_gives_binary_entropy(self):
        b = joint_zs(flip_source(), flip_encoder())  # p(z, s)
        assert cond_entropy_discrete(b.T) == pytest.approx(HB01, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            j = rng.dirichlet(np.ones(12)).reshape(3, 4)
            h = cond_entropy_discrete(j)
            assert -1e-12 <= h <= math.log(3.0) + 1e-12


class TestTransport:
    def test_identical(self):
        p = DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.4, 0.6]))
        assert w2_squared_quantile(p, p) == 0.0
        assert w2_squared_lp(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_shift(self):
        p = DiscreteDistribution(np.array([0.0]), np.array([1.0]))
        q = DiscreteDistribution(np.array([1.0]), np.array([1.0]))
        assert w2_squared_quantile(p, q) == pytest.approx(1.0)
        assert w2_squared_lp(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_stretch(self):
        p = DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        q = DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        assert w2_squared_quantile(p, q) == pytest.approx(0.5, abs=1e-15)
        assert w2_squared_lp(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_quantile_equals_lp_on_random_pairs(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            p = DiscreteDistribution(
                np.sort(rng.normal(size=n) * 2), rng.dirichlet(np.ones(n))
            )
            q = DiscreteDistribution(
                np.sort(rng.normal(size=m) * 2), rng.dirichlet(np.ones(m))
            )
            assert w2_squared_quantile(p, q) == pytest.approx(
                w2_squared_lp(p, q), abs=1e-9
            )

    def test_lp_meets_quantile_on_a_32_atom_pair(self):
        # At HiGHS's default feasibility tolerances the LP value of this pair
        # was 1.977332973506147, 4.4e-9 below the quantile coupling's.
        pair = json.loads((Path(__file__).parent / "data" / "w2_pair_32_atoms.json").read_text())
        p = DiscreteDistribution(pair["x_support"], pair["x_probs"])
        q = DiscreteDistribution(pair["y_support"], pair["y_probs"])
        assert w2_squared_quantile(p, q) == 1.9773329779152071
        assert w2_squared_lp(p, q) == pytest.approx(1.9773329779152071, abs=1e-9)

    def test_lp_size_guard(self):
        big = DiscreteDistribution(np.arange(65.0), np.full(65, 1.0 / 65.0))
        with pytest.raises(SizeGuardError):
            w2_squared_lp(big, big)

    @pytest.mark.parametrize("n, m", [(64, 64), (64, 1), (1, 64)])
    def test_lp_runs_at_the_size_cap(self, n, m):
        rng = np.random.default_rng(n + 2 * m)
        p, q = random_atoms(rng, n), random_atoms(rng, m)
        span = max(p.support[-1], q.support[-1]) - min(p.support[0], q.support[0])
        assert w2_squared_lp(p, q) == pytest.approx(w2_squared_quantile(p, q), abs=1e-12 * span**2)

    @pytest.mark.parametrize("n, m", [(65, 1), (1, 65), (65, 64), (64, 65)])
    def test_lp_size_guard_on_one_side(self, n, m):
        p = DiscreteDistribution(np.arange(float(n)), np.full(n, 1.0 / n))
        q = DiscreteDistribution(np.arange(float(m)), np.full(m, 1.0 / m))
        with pytest.raises(SizeGuardError):
            w2_squared_lp(p, q)

    def test_lp_meets_quantile_on_zero_mass_atoms_and_one_atom_sides(self):
        rng = np.random.default_rng(53)
        shapes = [(1, m) for m in range(1, 9)] + [(n, 1) for n in range(2, 9)]
        shapes += [tuple(int(k) for k in rng.integers(2, 9, 2)) for _ in range(30)]
        for n, m in shapes:
            p, q = random_atoms(rng, n, zeros=True), random_atoms(rng, m, zeros=True)
            assert w2_squared_lp(p, q) == pytest.approx(w2_squared_quantile(p, q), abs=1e-12)

    def test_dantzig_pricing_meets_quantile_at_every_size(self):
        # Dantzig pricing takes other simplex paths than HiGHS's default; the
        # optimum it reaches must be the same on zero-mass atoms at every size.
        rng = np.random.default_rng(67)
        shapes = [(k, k) for k in range(1, 65)] + [(1, 64), (64, 1), (64, 64)]
        for n, m in shapes:
            p, q = random_atoms(rng, n, zeros=True), random_atoms(rng, m, zeros=True)
            span = max(p.support[-1], q.support[-1]) - min(p.support[0], q.support[0])
            assert w2_squared_lp(p, q) == pytest.approx(
                w2_squared_quantile(p, q), abs=1e-12 * span**2
            ), (n, m)

    def test_lp_memory(self):
        # No timing: tracemalloc counts numpy's and scipy's Python-side buffers.
        # The call peaks at ~1.4 MB; the dense constraint form it replaced
        # peaked at ~13 MB (its 127 x 4096 matrix alone is 4.2 MB).
        rng = np.random.default_rng(59)
        p, q = random_atoms(rng, 64), random_atoms(rng, 64)
        w2_squared_lp(p, q)  # first-call set-up
        tracemalloc.start()
        try:
            w2_squared_lp(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    def test_discretize_gaussian_of_zero_variance_is_one_atom(self):
        d = discretize_gaussian(0.7, 0.0)
        assert d.support.tolist() == [0.7] and d.probs.tolist() == [1.0]

    def test_discretize_gaussian_moments(self):
        d = discretize_gaussian(0.3, 2.0, 20_000)
        assert d.mean() == pytest.approx(0.3, abs=1e-9)
        assert d.variance() == pytest.approx(2.0, abs=1e-3)

    def test_discretize_gaussian_matches_norm_ppf(self):
        # The oracle: scipy.stats' quantile, which the library no longer imports.
        from scipy.stats import norm

        for n in (*range(1, 300), 999, 1000, 1001, 4096, 10_000, 10_001, 65_537):
            want = 0.5 + math.sqrt(2.0) * norm.ppf((np.arange(n) + 0.5) / n)
            got = discretize_gaussian(0.5, 2.0, n).support
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def dense_coupling_rows(n, m):
    """The coupling constraints as ``w2_squared_lp`` once filled them: a dense
    (n + m - 1) x nm matrix, row sums first, the last column sum dropped."""
    a = np.zeros((n + m - 1, n * m))
    for i in range(n):
        a[i, i * m : (i + 1) * m] = 1.0
    for jcol in range(m - 1):
        a[n + jcol, jcol::m] = 1.0
    return a


class TestLPMatrix:
    """``_transport_lp`` is what ``w2_squared_lp`` hands HiGHS: a CSC matrix,
    whose oracle is the dense loop it replaced, and ``linprog``'s options;
    ``linprog`` given the same LP is the oracle of the value, bit for bit."""

    OPTIONS = {  # as given to linprog(method="highs") before the direct call
        "presolve": False,
        "simplex_dual_edge_weight_strategy": "dantzig",
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }

    @pytest.mark.parametrize(
        "n, m", [*itertools.product(range(1, 7), repeat=2), (64, 64)]
    )
    def test_csc_equals_the_dense_loop(self, n, m):
        from scipy.optimize._highspy import _core as highs

        rng = np.random.default_rng(61)
        p, q = random_atoms(rng, n), random_atoms(rng, m)
        lp, opts = _transport_lp(p, q)
        a = lp.a_matrix_
        assert a.format_ == highs.MatrixFormat.kColwise
        assert (lp.num_row_, lp.num_col_, a.num_row_, a.num_col_) == (n + m - 1, n * m) * 2
        assert a.start_[0] == 0 and a.start_[-1] == len(a.index_) == len(a.value_)
        csc = np.zeros((n + m - 1, n * m))
        for col in range(n * m):
            rows = a.index_[a.start_[col] : a.start_[col + 1]]
            assert rows == sorted(set(rows))  # canonical: sorted, no duplicates
            csc[rows, col] = a.value_[a.start_[col] : a.start_[col + 1]]
        dense = dense_coupling_rows(n, m)
        assert len(a.value_) == np.count_nonzero(dense)
        np.testing.assert_array_equal(csc, dense)
        cost = (p.support[:, None] - q.support[None, :]) ** 2
        np.testing.assert_array_equal(lp.col_cost_, cost.ravel())
        np.testing.assert_array_equal(lp.col_lower_, np.zeros(n * m))
        np.testing.assert_array_equal(lp.col_upper_, np.full(n * m, highs.kHighsInf))
        np.testing.assert_array_equal(lp.row_lower_, [*p.probs, *q.probs[:-1]])
        np.testing.assert_array_equal(lp.row_upper_, lp.row_lower_)
        # Every option but these keeps HiGHS's default; linprog sets the dual
        # simplex, which is the default, and turns the output off.
        simplex, defaults = highs.simplex_constants, highs.HighsOptions()
        names = [k for k in dir(defaults) if not k.startswith("_")]
        changed = {k: getattr(opts, k) for k in names if getattr(opts, k) != getattr(defaults, k)}
        assert changed == {
            "presolve": "off",
            "simplex_dual_edge_weight_strategy":
                simplex.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDantzig,
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
            "output_flag": False,
            "log_to_console": False,
        }
        assert opts.simplex_strategy == simplex.SimplexStrategy.kSimplexStrategyDual
        assert len(names) > 50  # the options were read, not an empty listing

    @pytest.mark.parametrize(
        "n, m", [*itertools.product(range(1, 9), repeat=2), (1, 64), (64, 1), (64, 64)]
    )
    def test_value_equals_linprog_bit_for_bit(self, n, m):
        from scipy.optimize import linprog

        rng = np.random.default_rng(100 * n + m)
        for zeros in (False, True):
            p, q = random_atoms(rng, n, zeros), random_atoms(rng, m, zeros)
            cost = (p.support[:, None] - q.support[None, :]) ** 2
            res = linprog(
                cost.ravel(), A_eq=dense_coupling_rows(n, m), b_eq=[*p.probs, *q.probs[:-1]],
                bounds=(0.0, None), method="highs", options=self.OPTIONS,
            )
            assert res.success
            assert w2_squared_lp(p, q).hex() == float(res.fun).hex(), (n, m, zeros)


class TestOuterBound:
    def test_mmse_decoder_equality(self):
        src, enc = flip_source(), flip_encoder()
        red = mmse_reduction(src, enc)
        vals = default_xhat_values(src, red)
        dec = deterministic_decoder(red.estimator, enc.n_out, vals)
        rep = outer_bound_check(src, enc, dec)
        assert rep.holds
        assert rep.d == pytest.approx(red.residual, abs=1e-12)
        assert rep.rhs == pytest.approx(rep.d, abs=1e-12)
        assert rep.w2_term == pytest.approx(0.0, abs=1e-15)

    def test_tolerance_follows_scale(self):
        # At D ~ 1e300 the bound's rounding reaches ~3e284; an absolute
        # tolerance of 1e-12 flagged 12 of these 400 decoders.
        src = DiscreteSource(
            np.array([-1e150, 1e150]), 2, np.array([[0.5, 0.0], [0.0, 0.5]])
        )
        enc = flip_encoder()
        rows = _grid(src, enc, 3)[2]
        for pair in itertools.product(range(len(rows)), repeat=2):
            assert outer_bound_check(src, enc, Channel(rows[list(pair)])).holds
        assert outer_bound_sweep(src, enc, 3)[0] == 0

    def test_collapse_to_zero_decoder(self):
        # The flip instance plus x = 0 with no mass, which puts 0 in the
        # reconstruction alphabet without changing any law.
        src = DiscreteSource(
            np.array([-1.0, 0.0, 1.0]), 2, np.array([[0.5, 0.0], [0.0, 0.0], [0.0, 0.5]])
        )
        enc = Channel(np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]]))
        vals = default_xhat_values(src, mmse_reduction(src, enc))
        np.testing.assert_allclose(vals, [-1.0, -0.8, 0.0, 0.8, 1.0])
        dec = deterministic_decoder({0: 0.0, 1: 0.0}, enc.n_out, vals)
        rep = outer_bound_check(src, enc, dec)
        assert rep.d == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)  # 0.36 + 0.64
        assert rep.holds
        assert rep.c == pytest.approx(LN2, abs=1e-12)

    def test_holds_on_random_triples(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            src = random_source(rng, 3, 3)
            enc = random_channel(rng, 3, 3)
            vals = default_xhat_values(src, mmse_reduction(src, enc))
            dec = random_channel(rng, 3, vals.size)
            rep = outer_bound_check(src, enc, dec)
            assert rep.holds

    def test_pythagorean_decomposition_exact(self):
        # E[(X-X̂)^2] = E[(X-X̃)^2] + E[(X̃-X̂)^2] for decoders on Z,
        # including randomised ones.
        rng = np.random.default_rng(59)
        for _ in range(60):
            src = random_source(rng, 4, 2)
            enc = random_channel(rng, 4, 3)
            red = mmse_reduction(src, enc)
            vals = default_xhat_values(src, red)
            dec = random_channel(rng, 3, vals.size)
            rep = outer_bound_check(src, enc, dec)
            # E[(X̃-X̂)^2] by direct enumeration over (z, x̂)
            p_z = src.p_x @ enc.matrix
            cross = 0.0
            for z in range(enc.n_out):
                for k in range(vals.size):
                    cross += p_z[z] * dec.matrix[z, k] * (
                        red.estimator[z] - vals[k]
                    ) ** 2
            assert rep.d == pytest.approx(red.residual + cross, abs=1e-12)

    def test_sweep_has_no_violations(self):
        violations, min_slack, checked = outer_bound_sweep(
            flip_source(), flip_encoder(), 6
        )
        assert violations == 0
        assert checked == 84 * 84
        assert min_slack >= -1e-12


class TestExtremePoints:
    def test_identity_all_the_way(self):
        src = flip_source()
        enc = Channel(np.eye(2))
        assert extreme_point_a(src, enc) == (
            pytest.approx(0.0, abs=1e-15),
            pytest.approx(0.0, abs=1e-12),
        )

    def test_flip_instance(self):
        d, c = extreme_point_a(flip_source(), flip_encoder())
        assert d == pytest.approx(0.36, abs=1e-12)
        assert c == pytest.approx(HB01, abs=1e-12)

    def test_constant_encoder(self):
        src = flip_source()
        enc = Channel(np.array([[1.0], [1.0]]))
        d, c = extreme_point_a(src, enc)
        assert d == pytest.approx(src.var_x(), abs=1e-12)
        assert c == pytest.approx(LN2, abs=1e-12)

    def test_extreme_b_identity(self):
        src = flip_source()
        enc = Channel(np.eye(2))
        d, c = extreme_point_b(src, enc, 0.0, 4)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_extreme_b_flip_composition(self):
        src, enc = flip_source(), flip_encoder()
        sol = c_min_solver(src, enc, 0.4, 10)
        red = mmse_reduction(src, enc)
        d, c = extreme_point_b(src, enc, 0.4, 10)
        assert c == pytest.approx(HB01, abs=1e-12)
        assert d == pytest.approx(
            red.residual + w2_squared_quantile(red.p_xtilde, sol.p_xhat), abs=1e-12
        )

    def test_extreme_b_constant_encoder(self):
        src = flip_source()
        enc = Channel(np.array([[1.0], [1.0]]))
        red = mmse_reduction(src, enc)
        sol = c_min_solver(src, enc, src.var_x() + 0.1, 6)
        d, c = extreme_point_b(src, enc, src.var_x() + 0.1, 6)
        assert sol is not None
        assert d == pytest.approx(
            red.residual + w2_squared_quantile(red.p_xtilde, sol.p_xhat), abs=1e-12
        )
        assert c == pytest.approx(sol.c_min, abs=1e-15)


class TestCMinSolver:
    def test_budget_at_source_variance_is_feasible(self):
        src, enc = flip_source(), flip_encoder()
        sol = c_min_solver(src, enc, src.var_x(), 6)
        assert sol is not None
        _, h_s_given_xtilde = extreme_point_a(src, enc)
        assert sol.c_min <= h_s_given_xtilde + 1e-12

    def test_identity_chain_reaches_zero(self):
        src = flip_source()
        sol = c_min_solver(src, Channel(np.eye(2)), 0.0, 5)
        assert sol is not None and sol.c_min == pytest.approx(0.0, abs=1e-12)

    def test_flip_budget_04(self):
        src, enc = flip_source(), flip_encoder()
        sol = c_min_solver(src, enc, 0.4, 10)
        assert sol.c_min == pytest.approx(HB01, abs=1e-12)
        # data processing: no decoder can beat H(S|Z)
        h_s_given_z = cond_entropy_discrete(joint_zs(src, enc).T)
        assert sol.c_min >= h_s_given_z - 1e-12

    def test_infeasible_budget(self):
        src, enc = flip_source(), flip_encoder()
        assert c_min_solver(src, enc, 0.01, 6) is None
        with pytest.raises(InfeasibleBudgetError):
            extreme_point_b(src, enc, 0.01, 6)

    def test_levels_guard(self):
        with pytest.raises(ParameterError):
            c_min_solver(flip_source(), flip_encoder(), 0.4, 2)


LEVELS_PROBE = """
import json
import numpy as np
from rdclab import Channel, DiscreteSource, c_min_solver, region_approx
from rdclab.discrete_region import outer_bound_sweep

src = DiscreteSource(np.array([-1.0, 1.0]), 2, np.array([[0.5, 0.0], [0.0, 0.5]]))
enc = Channel(np.array([[0.9, 0.1], [0.1, 0.9]]))
solvers = {
    "outer_bound_sweep": lambda levels: outer_bound_sweep(src, enc, levels),
    "region_approx": lambda levels: region_approx(src, enc, levels),
    "c_min_solver": lambda levels: c_min_solver(src, enc, 0.4, levels),
}
raised = {}
for name, solve in solvers.items():
    try:
        solve(LEVELS)
        raised[name] = None
    except Exception as exc:
        raised[name] = type(exc).__name__
print(json.dumps(raised))
"""


class TestLevelsContract:
    @pytest.mark.parametrize("levels", [0, -1])
    def test_levels_below_one_raise_parameter_error(self, levels):
        # A fresh process with a timeout: a solver that loops forever on a
        # bad level fails the test instead of stalling the suite.
        env = dict(os.environ)
        src_dir = str(Path(rdclab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", LEVELS_PROBE.replace("LEVELS", str(levels))],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        raised = json.loads(proc.stdout.splitlines()[-1])
        assert raised == dict.fromkeys(raised, "ParameterError")
        assert len(raised) == 3

    @pytest.mark.parametrize("budget", ["var_x", 0.365])
    def test_extreme_point_b_is_the_solution_field(self, budget):
        src, enc = load_discrete_source(bundled_source_path())
        d_budget = src.var_x() if budget == "var_x" else budget
        sol = c_min_solver(src, enc, d_budget, 8)
        red = mmse_reduction(src, enc)
        assert sol.d_b == red.residual + w2_squared_quantile(red.p_xtilde, sol.p_xhat)
        assert extreme_point_b(src, enc, d_budget, 8) == (sol.d_b, sol.c_min)


class TestRegionApprox:
    def test_identity_contains_origin(self):
        src = flip_source()
        frontier = region_approx(src, Channel(np.eye(2)), 6)
        d0, c0 = frontier[0]
        assert d0 == pytest.approx(0.0, abs=1e-12)
        assert min(c for _, c in frontier) == pytest.approx(0.0, abs=1e-12)

    def test_flip_frontier_corners(self):
        src, enc = flip_source(), flip_encoder()
        frontier = region_approx(src, enc, 10)
        ext_a = extreme_point_a(src, enc)
        assert abs(frontier[0][0] - ext_a[0]) <= 1e-2
        assert abs(frontier[0][1] - ext_a[1]) <= 1e-2
        _, c_b = extreme_point_b(src, enc, src.var_x(), 10)
        assert abs(min(c for _, c in frontier) - c_b) <= 1e-2

    def test_frontier_is_pareto_minimal(self):
        frontier = region_approx(flip_source(), flip_encoder(), 8)
        for i, (d1, c1) in enumerate(frontier):
            for j, (d2, c2) in enumerate(frontier):
                if i == j:
                    continue
                assert not (d2 <= d1 and c2 <= c1 and (d2 < d1 or c2 < c1))

    def test_sorted_by_distortion(self):
        frontier = region_approx(flip_source(), flip_encoder(), 8)
        ds = [d for d, _ in frontier]
        assert ds == sorted(ds)

    def test_size_guards(self):
        src, enc = flip_source(), flip_encoder()
        with pytest.raises(SizeGuardError):
            region_approx(src, enc, 13)
        big = DiscreteSource(
            np.arange(7.0), 2, np.full((7, 2), 1.0 / 14.0)
        )
        with pytest.raises(SizeGuardError):
            region_approx(big, Channel(np.eye(7)), 4)


class TestDataProcessing:
    def test_chain_inequalities(self):
        # C achieved by any decoder >= H(S|Z) >= H(S|X)
        rng = np.random.default_rng(61)
        for _ in range(50):
            src = random_source(rng, 3, 3)
            enc = random_channel(rng, 3, 3)
            vals = default_xhat_values(src, mmse_reduction(src, enc))
            dec = random_channel(rng, 3, vals.size)
            rep = outer_bound_check(src, enc, dec)
            h_sz = cond_entropy_discrete(joint_zs(src, enc).T)
            h_sx = cond_entropy_discrete(src.pmf.T)
            assert rep.c >= h_sz - 1e-12
            assert h_sz >= h_sx - 1e-12


class TestMutualInfoXZ:
    def test_identity_encoder(self):
        assert mutual_info_xz(flip_source(), Channel(np.eye(2))) == pytest.approx(
            LN2, abs=1e-12
        )

    def test_flip_encoder(self):
        expected = LN2 - HB01
        assert mutual_info_xz(flip_source(), flip_encoder()) == pytest.approx(
            expected, abs=1e-12
        )

    def test_constant_encoder(self):
        enc = Channel(np.array([[1.0], [1.0]]))
        assert mutual_info_xz(flip_source(), enc) == pytest.approx(0.0, abs=1e-15)
