"""The input contract: NaN never reaches a result, and the CLI exits 0, 2 or 3.

The scalar checks live in ``rdclab.errors``; these tests pin the inputs that
once slipped past hand-written checks, and drive the Gaussian CLI,
``discrete-region`` and the rate oracles with generated inputs.
"""

import copy
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdclab import (
    Channel,
    FeasibilityVerdict,
    GaussianPairSource,
    GaussianReconstruction,
    GaussianRepresentation,
    LinearDecoder,
    ParameterError,
    Theorem5Instance,
    achieved_point,
    boundary_curve,
    c_min,
    c_min_solver,
    encoder_for_rate,
    extreme_point_b,
    gaussian_w2_squared,
    grid_oracle_rate,
    rdc_rate,
    region_sweep,
    sample_joint,
    sandwich_check,
    theorem5_gaussian_harness,
)
from rdclab.cli import bundled_source_path, load_discrete_source, main, read_curve_csv
from rdclab.discrete_region import DiscreteSource, cond_entropy_discrete, region_report
from rdclab.errors import VAR_RANGE, check_finite, check_nonneg, check_not_nan
from rdclab.gaussian_model import (
    cond_entropy_s_given_xhat,
    mutual_info_x_xhat,
    squared_correlation,
)

FLIP = load_discrete_source(bundled_source_path())
HALF = GaussianPairSource(0, 1, 0, 1, 0.5)
SOURCE_FILES = (bundled_source_path(), Path(__file__).parent / "golden" / "x2_s2_z3_source.json")


class TestChecks:
    @pytest.mark.parametrize(
        "check, refused, accepted",
        [
            (check_finite, (math.nan, math.inf, -math.inf), (0.0, -1.0, 1e308)),
            (check_nonneg, (math.nan, -1e-300, -math.inf), (0.0, -0.0, math.inf)),
            (check_not_nan, (math.nan,), (math.inf, -math.inf, -1.0)),
        ],
    )
    def test_refuses_exactly_its_domain(self, check, refused, accepted):
        for value in refused:
            with pytest.raises(ParameterError, match="x"):
                check("x", value)
        for value in accepted:
            check("x", value)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: c_min_solver(*FLIP, math.nan, 4), id="c_min_solver"),
        pytest.param(lambda: extreme_point_b(*FLIP, math.nan, 4), id="extreme_point_b"),
        pytest.param(lambda: GaussianReconstruction(math.nan, 1.0, 0.5), id="mu_xhat"),
        pytest.param(lambda: gaussian_w2_squared(math.nan, 1, 0, 1), id="w2"),
        pytest.param(
            lambda: sandwich_check(Theorem5Instance(1.0, 1.0, 1.0, 1.0, math.nan)),
            id="sandwich",
        ),
        pytest.param(lambda: Theorem5Instance(1.0, math.nan, 0.5, 0.5), id="theorem5"),
        pytest.param(  # once returned nan: NaN passed both its < 0 and its sum test
            lambda: cond_entropy_discrete([[math.nan, 0.5], [0.5, 0.0]]), id="cond_entropy"
        ),
        pytest.param(lambda: FeasibilityVerdict("feasible", math.nan), id="verdict"),  # once built
    ],
)
def test_nan_is_refused(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("status", ["bogus", "Feasible", None])
def test_unknown_verdict_status_is_refused(status):
    # These once built a verdict: the status vocabulary was a type hint only.
    with pytest.raises(ParameterError, match="status must be one of"):
        FeasibilityVerdict(status)


@pytest.mark.parametrize("budget", [-1.0, -1e-300, -math.inf])
@pytest.mark.parametrize(
    "solver",
    [
        pytest.param(c_min_solver, id="c_min_solver"),
        pytest.param(extreme_point_b, id="extreme_point_b"),
        pytest.param(region_report, id="region_report"),
    ],
)
def test_negative_discrete_budget_is_refused(solver, budget):
    # Distortion budgets are >= 0: these once ran and found no decoder.
    with pytest.raises(ParameterError, match="d_budget must be >= 0"):
        solver(*FLIP, budget, 4)


@pytest.mark.parametrize("budget", ["-1", "-inf"])
def test_negative_discrete_budget_exits_3(budget, tmp_path, capsys):
    # These once exited 2, as an infeasible budget does.
    out = tmp_path / "out"
    argv = ["discrete-region", "--source", str(bundled_source_path()), "--levels", "3",
            f"--d-budget={budget}", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: d_budget must be >= 0, got {float(budget)}\n"
    assert list(tmp_path.iterdir()) == []


def test_negative_zero_discrete_budget_is_zero():
    # With X sent as is, some decoder meets D = 0.
    identity = Channel([[1.0, 0.0], [0.0, 1.0]])
    got, want = (c_min_solver(FLIP[0], identity, zero, 4) for zero in (-0.0, 0.0))
    assert got.d_b == 0.0
    assert (got.c_min, got.d_b) == (want.c_min, want.d_b)
    assert got.decoder.matrix.tobytes() == want.decoder.matrix.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: GaussianPairSource(0, 1.0, 0, 1.0, 1e200), id="cov_xs_squared"),
        pytest.param(
            lambda: mutual_info_x_xhat(
                GaussianPairSource(0, 1e-200, 0, 1.0, 0.0),
                GaussianReconstruction(0, 1e-200, 5e-201),
            ),
            id="mutual_info_denominator",
        ),
        pytest.param(
            lambda: DiscreteSource([-1e200, 1e200], 2, [[0.5, 0.0], [0.0, 0.5]]),
            id="discrete_span_squared",
        ),
        pytest.param(
            lambda: achieved_point(HALF, GaussianRepresentation(1e200), LinearDecoder(1.0)),
            id="cov_xz_squared",
        ),
        pytest.param(
            lambda: region_sweep(HALF, encoder_for_rate(HALF, 0.5), [1e160]),
            id="gamma_squared",
        ),
        pytest.param(
            lambda: squared_correlation(HALF, GaussianReconstruction(0, 1e300, 1e300)),
            id="cov_xxhat_squared",
        ),
        pytest.param(
            lambda: sample_joint(HALF, GaussianReconstruction(0, 1e300, 1e200), 10, 0),
            id="sample_joint_cov_squared",
        ),
    ],
)
def test_out_of_range_scale_is_refused(call):
    with pytest.raises(ParameterError, match="out of range|overflows"):
        call()


def _at_scale(var):
    return GaussianPairSource(0.0, var, 0.0, var, 0.6 * var)


@pytest.mark.parametrize("var", [1e160, 1e80, 1e-80])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda src: boundary_curve(src, 0.5, 5), id="boundary_curve"),
        pytest.param(
            lambda src: region_sweep(src, encoder_for_rate(src, 0.5), [0.0, math.sqrt(src.var_x)]),
            id="region_sweep",
        ),
        pytest.param(lambda src: theorem5_gaussian_harness(src, 0.5), id="harness"),
    ],
)
def test_gaussian_scale_outside_var_range_is_refused(call, var):
    # Past the range these raised OverflowError (1e160), refused a point
    # mid-sweep (1e80) or returned a wrong region (1e-80, region_sweep).
    with pytest.raises(ParameterError, match=r"var_x = .* is out of range \["):
        call(_at_scale(var))


@pytest.mark.parametrize("var", [1e-60, 1e60])
def test_gaussian_scale_range_ends_are_exact(var):
    unit = region_sweep(_at_scale(1.0), encoder_for_rate(_at_scale(1.0), 0.5), [0.0, 1.0])
    src = _at_scale(var)
    got = region_sweep(src, encoder_for_rate(src, 0.5), [0.0, math.sqrt(var)])
    for (d, c), (d1, c1) in zip(got, unit):
        assert d / var == pytest.approx(d1, rel=1e-12)
        assert c - 0.5 * math.log(var) == pytest.approx(c1, rel=1e-12, abs=1e-12)


def test_mutual_info_denominator_underflow_in_range():
    # var_x in range, var_xhat so small that var_x * var_xhat underflows; the
    # squared correlation t is 0.25 all the same, and so is read.
    src = GaussianPairSource(0.0, 1e-60, 0.0, 1.0, 0.0)
    got = mutual_info_x_xhat(src, GaussianReconstruction(0.0, 1e-300, 5e-181))
    assert got == pytest.approx(-0.5 * math.log1p(-0.25), rel=1e-15)
    assert got == pytest.approx(0.14384103622589045, rel=1e-15)


VARS = st.one_of(st.sampled_from(VAR_RANGE), st.floats(-60.0, 60.0).map(lambda e: 10.0**e))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    VARS, VARS, st.floats(-150.0, 150.0), st.floats(-0.95, 0.95), st.floats(-0.99, 0.99)
)
def test_information_quantities_are_scale_free(var_x, var_s, log_var_xhat, rho, r):
    # I(X; X̂) and h(S|X̂) - h(S) read the scales only through the squared
    # correlations, so every scale in range gives the unit-scale value.
    var_x, var_s = (min(max(v, VAR_RANGE[0]), VAR_RANGE[1]) for v in (var_x, var_s))
    var_xhat = 10.0**log_var_xhat
    src = GaussianPairSource(0.0, var_x, 0.0, var_s, rho * math.sqrt(var_x) * math.sqrt(var_s))
    rec = GaussianReconstruction(0.0, var_xhat, r * math.sqrt(var_x) * math.sqrt(var_xhat))
    unit_src = GaussianPairSource(0.0, 1.0, 0.0, 1.0, rho)
    unit_rec = GaussianReconstruction(0.0, 1.0, r)
    i, i1 = mutual_info_x_xhat(src, rec), mutual_info_x_xhat(unit_src, unit_rec)
    h = cond_entropy_s_given_xhat(src, rec) - 0.5 * math.log(var_s)
    h1 = cond_entropy_s_given_xhat(unit_src, unit_rec)
    assert i == pytest.approx(i1, rel=0, abs=1e-12 * max(1.0, abs(i1)))
    assert h == pytest.approx(h1, rel=0, abs=1e-12 * max(1.0, abs(h1)))


def test_tiny_scale_curves_exit_0(tmp_path):
    # sigma^2 = 1e-60 is in range; every loss is the unit-scale one shifted
    # by h(S)'s 0.5 * ln(1e-60), and every distortion is scaled by 1e-60.
    def curves(sigma):
        out = tmp_path / f"curves_{sigma}.csv"
        argv = ["--sigma-x", sigma, "--sigma-s", sigma, "--rates", "1e-90", "--points", "3"]
        assert main(["gauss-curves", *argv, "--out", str(out)]) == 0
        assert re.search(r"\bnan\b", out.read_text()) is None
        return read_curve_csv(out)

    tiny, unit = curves("1e-30"), curves("1")
    assert [r.model for r in tiny] == [r.model for r in unit]
    shift = 0.5 * math.log(1e-60)
    for a, b in zip(tiny, unit):
        assert a.c_nats == pytest.approx(b.c_nats + shift, rel=0, abs=1e-12)
        assert a.d == pytest.approx(1e-60 * b.d, rel=1e-12, abs=0)


@pytest.mark.parametrize("sigma", ["1e160", "1e308", "1e-31"])
def test_sigma_outside_range_exits_3(sigma, tmp_path, capsys):
    argv = ["gauss-curves", "--sigma-x", sigma, "--points", "3", "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert "--sigma-x squared" in capsys.readouterr().err


def test_infinite_d_budget_is_no_budget():
    sol = c_min_solver(*FLIP, math.inf, 4)
    assert sol is not None and sol.c_min == pytest.approx(0.32508297339144824, abs=1e-12)


class TestRhoCheckedFirst:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gauss-curves", "--rho", "1.2", "--points", "1", "--sigma-x", "-1"],
            ["discrepancy-report", "--rho", "-1", "--grid-c", "0"],
            ["bounds", "--rho", "inf", "--rate", "0.3", "--instances", "5"],
        ],
    )
    def test_rho_exits_2_before_other_flags(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert "|rho| =" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sigma_before_other_flags(self, tmp_path, capsys):
        argv = ["gauss-curves", "--sigma-s", "0", "--points", "1"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 3
        assert "--sigma-x and --sigma-s" in capsys.readouterr().err


# Float flag values: finite, negative, infinite, NaN and huge.
NUMBER = st.one_of(
    st.floats(-3.0, 3.0).map(repr),
    st.sampled_from(["0", "-2", "inf", "-inf", "nan", "1e308", "-1e308", "1e150", "1e-160"]),
)
SMALL_INT = st.integers(-1, 5)
SEED = st.one_of(st.integers(0, 3), st.integers(max_value=-1), st.integers(min_value=2**64 + 1))


@st.composite
def gaussian_argv(draw):
    command = draw(st.sampled_from(["gauss-curves", "discrepancy-report", "bounds"]))
    argv = [command]
    for flag in ("--rho", "--sigma-x", "--sigma-s"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(NUMBER)}")
    if command == "gauss-curves":
        if draw(st.booleans()):
            argv.append("--rates=" + ",".join(draw(st.lists(NUMBER, min_size=1, max_size=3))))
        argv.append(f"--points={draw(SMALL_INT)}")
    elif command == "discrepancy-report":
        argv += [f"--grid-c={draw(SMALL_INT)}", f"--grid-r={draw(SMALL_INT)}"]
    else:
        if draw(st.booleans()):
            argv.append(f"--rate={draw(NUMBER)}")
        argv += [f"--instances={draw(SMALL_INT)}", f"--seed={draw(SEED)}"]
    # A relative --out, sometimes under a directory that does not exist.
    return [*argv, "--out", draw(st.sampled_from(["out", "out", "missing/out"]))]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(gaussian_argv())
@example(["bounds", "--seed=-1", "--out", "out"])
@example(["gauss-curves", "--points=3", "--out", "missing/out"])
def test_cli_exit_codes_and_no_nan(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / argv[-1]
        code = main([*argv[:-1], str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            assert re.search(r"\bnan\b", out.read_text()) is None
        else:
            assert not out.exists()


@st.composite
def budgets(draw):
    sx, ss = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    rho = draw(st.floats(-0.95, 0.95))
    src = GaussianPairSource(draw(st.floats(-2, 2)), sx**2, 0.0, ss**2, rho * sx * ss)
    d = draw(st.floats(0.0, 1.5)) * src.var_x
    c = c_min(src) + draw(st.floats(-0.5, 1.5)) * (src.h_s - c_min(src) + 0.1)
    return src, d, c


def _rate(verdict):
    return verdict.value if verdict.status == "feasible" else math.inf


@settings(derandomize=True, deadline=None, max_examples=60)
@given(budgets())
def test_grid_oracle_never_beats_rdc_rate(case):
    # A grid point meets (d, c) only up to rounding, so it is compared with
    # the exact rate at budgets relaxed by 1e-12; near c_min the rate is
    # too steep in c for a tolerance on the rate itself.
    src, d, c = case
    grid = grid_oracle_rate(src, d, c, 64, 64)
    relaxed = rdc_rate(src, d * (1.0 + 1e-12), c + 1e-12 * max(1.0, abs(c)))
    assert _rate(grid) >= _rate(relaxed)


# Source-file entries: finite, NaN, infinite, huge and tiny.
ENTRY = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200, 1e-200]),
)
BASE_SOURCES = tuple(json.loads(path.read_text()) for path in SOURCE_FILES)


# JSON values of the wrong type or shape for an entry, a row, a key or the file.
WRONG = st.sampled_from(["ab", None, True, 2.5, "2", 5, [], [0.5], [[1.0, 0.0], [0.0]], {"k": 1}])


@st.composite
def discrete_sources(draw):
    """A committed source with up to three entries replaced or x rescaled, and
    sometimes one entry, row, key or the whole file of a wrong type or shape."""
    payload = copy.deepcopy(draw(st.sampled_from(BASE_SOURCES)))
    for _ in range(draw(st.sampled_from([0, 1, 0, 2, 3]))):  # intact sources run to exit 0
        key = draw(st.sampled_from(["x_values", "pmf", "encoder"]))
        target = payload[key]
        if key != "x_values":
            target = target[draw(st.integers(0, len(target) - 1))]
        target[draw(st.integers(0, len(target) - 1))] = draw(ENTRY)
    if draw(st.booleans()):  # every x atom at once, so the source stays sorted
        scale = draw(st.sampled_from([1e200, 1e150, 1e-200]))
        payload["x_values"] = [x * scale for x in payload["x_values"]]
    fault = draw(st.sampled_from([None, None, None, "item", "key", "file"]))
    if fault == "item":
        target = payload[draw(st.sampled_from(["x_values", "pmf", "encoder"]))]
        if draw(st.booleans()) and isinstance(target[0], list):
            target = target[0]
        target[draw(st.integers(0, len(target) - 1))] = draw(WRONG)
    elif fault == "key":
        payload[draw(st.sampled_from(sorted(payload)))] = draw(WRONG)
    elif fault == "file":
        payload = draw(WRONG)
    return payload


HUGE_SPAN = {**BASE_SOURCES[0], "x_values": [-1e200, 1e200]}  # squared distances overflow


@settings(derandomize=True, deadline=None, max_examples=80)
@given(discrete_sources(), st.sampled_from([3, 1, 3, 2]))  # levels < 3 exit 3
@example(HUGE_SPAN, 3)
def test_discrete_region_exit_codes_and_no_nan(payload, levels):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "source.json"
        source.write_text(json.dumps(payload))
        argv = ["discrete-region", "--source", str(source), f"--levels={levels}"]
        code = main([*argv, "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3)
        written = sorted(Path(tmp).glob("out*"))
        if code == 0:
            for path in written:
                assert re.search(r"\bnan\b", path.read_text()) is None
        else:
            assert written == []


_FLIP = BASE_SOURCES[0]  # the bundled source


@pytest.mark.parametrize(
    "payload, field",
    [
        pytest.param({**_FLIP, "x_values": "ab"}, None, id="x_values_string"),
        pytest.param({**_FLIP, "pmf": "x"}, None, id="pmf_string"),
        pytest.param({**_FLIP, "encoder": [[1, 0], [0]]}, "encoder", id="ragged_encoder"),
        pytest.param({**_FLIP, "s_size": None}, None, id="s_size_null"),
        pytest.param(5, None, id="top_level_number"),
        pytest.param(None, None, id="top_level_null"),
        pytest.param({**_FLIP, "s_size": "2"}, None, id="s_size_string"),
        pytest.param({**_FLIP, "s_size": 2.5}, None, id="s_size_fraction"),
        pytest.param({**_FLIP, "pmf": [[0.5], [0.0, 0.5]]}, "pmf", id="ragged_pmf"),
        pytest.param({**_FLIP, "x_values": [-1.0, 10**400]}, "x_values", id="x_past_float_range"),
        pytest.param({**_FLIP, "encoder": [[True, 0.0], [0.0, 1.0]]}, "encoder", id="bool_encoder"),
        pytest.param(
            {**_FLIP, "encoder": [[1, 0], [0, 10**400]]}, "encoder", id="encoder_past_float_range"
        ),
        pytest.param({**_FLIP, "encoder": [[0.5, 0.6], [0, 1]]}, "encoder", id="encoder_row_sum"),
    ],
)
def test_source_schema_faults_exit_3(payload, field, tmp_path, capsys):
    # The first eight once exited 1 with a traceback or, for the s_size pair,
    # ran on a silently coerced s_size.  Each case with a field names it.
    source = tmp_path / "source.json"
    source.write_text(json.dumps(payload))
    argv = ["discrete-region", "--source", str(source), "--levels", "3"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert field is None or field in err.splitlines()[0]
    assert sorted(tmp_path.glob("out*")) == []
