"""CLI surface: file formats, determinism, exit codes, bundled source."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdclab.cli import (
    CURVE_HEADER,
    CurveRecord,
    _linspace,
    bundled_source_path,
    load_discrete_source,
    main,
    read_curve_csv,
    write_curve_csv,
    write_json,
)

HB01 = 0.32508297339144824


def run(argv):
    return main(argv)


class TestCurveCsvFormat:
    def test_header_exact(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["gauss-curves", "--points", "5", "--rates", "0.1", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == CURVE_HEADER

    def test_round_trip_exact(self, tmp_path):
        records = [
            CurveRecord("printed_R0.1", "printed", 0.1, 1.23456789012345678, 0.5, "case2"),
            CurveRecord("oracle_R0.1", "oracle", 0.1, 1.3, math.inf, "infeasible"),
        ]
        path = tmp_path / "r.csv"
        write_curve_csv(path, records)
        assert read_curve_csv(path) == records

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gauss-curves", "--points", "40", "--out"]
        assert run(args + [str(a)]) == 0
        assert run(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_vocabulary_enforced(self):
        with pytest.raises(Exception):
            CurveRecord("x", "mystery", 0.0, 0.0, 0.0, "case1")


class TestGaussCurves:
    def test_default_run_curve_count(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run(["gauss-curves", "--points", "50", "--out", str(out)]) == 0
        records = read_curve_csv(out)
        by_model = {}
        for r in records:
            by_model.setdefault(r.model, set()).add(r.curve_id)
        assert len(by_model["printed"]) == 5
        assert len(by_model["oracle"]) == 5
        assert len(by_model["universal"]) == 1

    def test_zero_rate_degenerates(self, tmp_path):
        out = tmp_path / "z.csv"
        assert run(["gauss-curves", "--rates", "0", "--points", "30", "--out", str(out)]) == 0
        records = read_curve_csv(out)
        printed = [r for r in records if r.model == "printed"]
        oracle = [r for r in records if r.model == "oracle"]
        assert printed == []
        assert len(oracle) == 1
        assert oracle[0].d == pytest.approx(1.0, abs=1e-12)
        assert oracle[0].c_nats == pytest.approx(1.4189385332046727, abs=1e-12)

    def test_universal_sweep_minimum(self, tmp_path):
        out = tmp_path / "u.csv"
        assert run(
            ["gauss-curves", "--rho", "0.7", "--rates", "0.34", "--points", "80",
             "--out", str(out)]
        ) == 0
        records = [r for r in read_curve_csv(out) if r.model == "universal"]
        assert min(r.d for r in records) == pytest.approx(0.5066169923655896, abs=1e-4)

    def test_rho_out_of_range_exits_2(self, tmp_path):
        assert run(["gauss-curves", "--rho", "1.2", "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_rates_exit_3(self, tmp_path):
        assert run(["gauss-curves", "--rates", "-0.1", "--out", str(tmp_path / "x.csv")]) == 3

    def test_unknown_flag_exits_3(self, tmp_path):
        assert run(["gauss-curves", "--frobnicate", "1"]) == 3


class TestDiscrepancyReport:
    def test_branch_agreement_pattern(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(
            ["discrepancy-report", "--grid-c", "12", "--grid-r", "8", "--out", str(out)]
        ) == 0
        rep = json.loads(out.read_text())
        summary = rep["summary"]
        assert summary["case1"]["agree"] == summary["case1"]["cells"]
        assert summary["infeasible"]["agree"] == summary["infeasible"]["cells"]
        assert summary["case2"]["agree"] == 0 and summary["case2"]["cells"] > 0
        case2 = [c for c in rep["cells"] if c["printed_branch"] == "case2"]
        assert all(c["oracle"] == "infeasible" for c in case2)
        assert all(isinstance(c["printed"], float) for c in case2)
        assert rep["total_cells"] == 12 * 8

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["discrepancy-report", "--grid-c", "6", "--grid-r", "6", "--out"]
        run(args + [str(a)])
        run(args + [str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDiscreteRegion:
    def test_bundled_source_run(self, tmp_path):
        out = tmp_path / "flip"
        assert run(
            ["discrete-region", "--source", str(bundled_source_path()),
             "--levels", "8", "--out", str(out)]
        ) == 0
        verdict = json.loads((tmp_path / "flip.json").read_text())
        assert verdict["extreme_a"]["d"] == pytest.approx(0.36, abs=1e-12)
        assert verdict["extreme_a"]["c"] == pytest.approx(HB01, abs=1e-12)
        assert verdict["outer_bound"]["violations"] == 0
        records = read_curve_csv(tmp_path / "flip.csv")
        assert {r.branch for r in records} == {"frontier", "extreme_a", "extreme_b"}

    def test_identity_source_has_origin(self, tmp_path):
        srcfile = tmp_path / "ident.json"
        srcfile.write_text(json.dumps({
            "x_values": [-1.0, 1.0],
            "s_size": 2,
            "pmf": [[0.5, 0.0], [0.0, 0.5]],
            "encoder": [[1.0, 0.0], [0.0, 1.0]],
        }))
        out = tmp_path / "ident"
        assert run(["discrete-region", "--source", str(srcfile), "--levels", "6",
                    "--out", str(out)]) == 0
        records = read_curve_csv(tmp_path / "ident.csv")
        frontier = [r for r in records if r.branch == "frontier"]
        assert min(r.d for r in frontier) == pytest.approx(0.0, abs=1e-12)
        assert min(r.c_nats for r in frontier) == pytest.approx(0.0, abs=1e-12)

    def test_schema_violation_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"x_values": [0.0, 1.0], "s_size": 2,
                                   "pmf": [[0.6, 0.0], [0.0, 0.5]],
                                   "encoder": [[1.0, 0.0], [0.0, 1.0]]}))
        assert run(["discrete-region", "--source", str(bad), "--out",
                    str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize(
        "key,value",
        [
            # NaN in pmf used to exit 1 with a KeyError from mmse_reduction
            ("pmf", [[0.5, 0.0], [math.nan, 0.5]]),
            ("x_values", [-1.0, math.nan]),
            ("encoder", [[0.9, 0.1], [math.nan, 0.9]]),
        ],
    )
    def test_non_finite_source_exits_3_and_writes_nothing(self, key, value, tmp_path):
        payload = json.loads(bundled_source_path().read_text())
        payload[key] = value
        srcfile = tmp_path / "src.json"
        srcfile.write_text(json.dumps(payload))  # json writes a NaN token
        assert run(["discrete-region", "--source", str(srcfile), "--levels", "3",
                    "--out", str(tmp_path / "o")]) == 3
        assert list(tmp_path.iterdir()) == [srcfile]

    def test_missing_source_exits_3(self, tmp_path):
        assert run(["discrete-region", "--source", str(tmp_path / "none.json"),
                    "--out", str(tmp_path / "o")]) == 3

    def test_size_guard_exits_2(self, tmp_path):
        assert run(["discrete-region", "--source", str(bundled_source_path()),
                    "--levels", "13", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "levels,code,line",
        [
            # the frontier's guards and the grid refuse before c_min's own check
            ("0", 3, "error: levels must be >= 1"),
            ("2", 3, "error: levels must be >= 3"),
            ("13", 2, "infeasible: alphabets are limited to 6 symbols and levels "
                      "to 12 for exact enumeration"),
        ],
    )
    def test_levels_refusal_order(self, levels, code, line, tmp_path, capsys):
        assert run(["discrete-region", "--source", str(bundled_source_path()),
                    "--levels", levels, "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.splitlines() == [line]
        assert list(tmp_path.iterdir()) == []

    def test_budget_below_every_decoder_exits_2(self, tmp_path, capsys):
        # No decoder beats the residual 0.36, so nothing is written.
        assert run(["discrete-region", "--source", str(bundled_source_path()),
                    "--d-budget", "0.01", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "infeasible: no decoder on the grid meets the distortion budget 0.01"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_outer_bound_tolerance_follows_scale(self, tmp_path):
        # The bound is a theorem: at D ~ 1e300 its rounding is not a violation.
        payload = json.loads(bundled_source_path().read_text())
        payload["x_values"] = [-1e150, 1e150]
        srcfile = tmp_path / "wide.json"
        srcfile.write_text(json.dumps(payload))
        out = tmp_path / "wide"
        assert run(["discrete-region", "--source", str(srcfile), "--levels", "3",
                    "--out", str(out)]) == 0
        verdict = json.loads((tmp_path / "wide.json").read_text())
        assert verdict["outer_bound"]["decoders_checked"] == 400
        assert verdict["outer_bound"]["violations"] == 0

    def test_loader_round_trip(self):
        src, enc = load_discrete_source(bundled_source_path())
        np.testing.assert_allclose(src.x_values, [-1.0, 1.0])
        assert enc.matrix[0, 0] == 0.9


class TestBounds:
    def test_single_rate_instance(self, tmp_path):
        out = tmp_path / "b.json"
        assert run(["bounds", "--rho", "0.7", "--rate", "0.336672", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        inst = payload["instances"][0]
        assert inst["d1"] == pytest.approx(0.51, abs=1e-4)
        assert inst["sigma_xhat3"] == pytest.approx(0.7, abs=1e-4)

    def test_many_instances_all_pass(self, tmp_path):
        out = tmp_path / "b.json"
        assert run(["bounds", "--instances", "200", "--seed", "7", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["all_sandwich"] and payload["all_gap"] and payload["all_ratio"]
        assert payload["n"] == 200

    def test_zero_rate_flagged(self, tmp_path):
        out = tmp_path / "b.json"
        assert run(["bounds", "--rate", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["instances"][0]["degenerate"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sigma-x", "0.0588", "--rate", "31.03"],
            ["--sigma-x", "10.1632", "--rate", "48.28"],
            ["--rate", "25.502689910045692", "--sigma-x", "0.08656131475495728",
             "--sigma-s", "96.0681310956346", "--rho", "0.2567604741847276"],
            ["--sigma-x", "100", "--instances", "200"],
        ],
    )
    def test_high_rate_and_large_scale_hold(self, argv, tmp_path):
        # D_b rounds to ulps of var_x: at high rate it once fell below 0 (exit
        # 3), and at sigma_x = 100 it failed an absolute sandwich tolerance.
        out = tmp_path / "b.json"
        assert run(["bounds", *argv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert all(inst["d_b"] >= 0.0 for inst in payload["instances"])
        assert payload["all_sandwich"] and payload["all_gap"] and payload["all_ratio"]

    def test_underflowing_mmse_gain(self, tmp_path):
        # gamma* = 1.4e-155, whose square is subnormal: a LinearDecoder
        # refuses it, but D_b needs only the reconstruction's statistics.
        out = tmp_path / "b.json"
        assert run(["bounds", "--sigma-x", "1e-30", "--rate", "1e-250", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["instances"][0]["d_b"] == 1e-30 * 1e-30
        assert payload["all_sandwich"] and payload["all_gap"] and payload["all_ratio"]

    def test_rate_and_instances_conflict(self, tmp_path):
        assert run(["bounds", "--rate", "0.3", "--instances", "5",
                    "--out", str(tmp_path / "b.json")]) == 3


class TestMisc:
    def test_no_command_exits_3(self):
        assert run([]) == 3

    def test_unknown_command_exits_3(self):
        assert run(["transmogrify"]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["gauss-curves", "--rho", "nan"],
            ["gauss-curves", "--rates", "0.1,nan"],
            ["discrepancy-report", "--rho", "nan"],
            ["discrete-region", "--source", "flip01", "--d-budget", "nan"],
            ["bounds", "--rho", "nan"],
        ],
    )
    def test_nan_flag_exits_3_and_writes_nothing(self, argv, tmp_path):
        argv = [str(bundled_source_path()) if a == "flip01" else a for a in argv]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["gauss-curves", "--points", "3"],
            ["discrepancy-report", "--grid-c", "4", "--grid-r", "4"],
            ["discrete-region", "--source", "flip01", "--levels", "3"],
            ["bounds", "--instances", "2"],
        ],
    )
    def test_unwritable_out_exits_3(self, argv, tmp_path, capsys):
        # A missing output directory once exited 1 with a FileNotFoundError traceback.
        argv = [str(bundled_source_path()) if a == "flip01" else a for a in argv]
        assert run([*argv, "--out", str(tmp_path / "missing" / "x")]) == 3
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert list(tmp_path.iterdir()) == []


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _bits(values):
    """Each float's IEEE bytes: tells -0.0 from 0.0 and NaN payloads apart."""
    return [struct.pack("<d", v) for v in values]


class TestNumpyFreeGrids:
    """The CLI's pure-Python grids equal the numpy calls they replace."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(FINITE, FINITE, st.integers(2, 500))
    @example(1.0, 1.0, 7)  # a == b
    @example(-0.0, -0.0, 3)
    @example(-3.5, 2.25, 2)  # opposite signs, endpoints only
    @example(-1e308, 1e308, 5)  # the span overflows
    @example(5e-324, 1e-323, 4)  # the step underflows, (k / 3) * delta does not
    def test_linspace_matches_numpy_bitwise(self, a, b, n):
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.linspace(a, b, n).tolist()
        assert _bits(_linspace(a, b, n)) == _bits(want)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.one_of(FINITE, st.sampled_from([0.0, 1.5, -2.0])), min_size=1), FINITE)
    @example([0.5, 0.5], 0.5)  # every value coincides
    def test_sorted_sets_match_unique_and_union1d(self, values, extra):
        assert sorted(set(values)) == np.unique(values).tolist()
        assert sorted({*values, extra}) == np.union1d(values, [extra]).tolist()


def _json_safe(obj):
    """The writer's former first pass, kept as its oracle: non-finite floats to
    their string literals, numpy scalars and arrays through ``tolist()``."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _json_safe(obj.tolist())
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
JSON_LEAVES = st.one_of(
    ANY_FLOAT,
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-320, 1e300]),
    st.booleans(),
    st.none(),
    st.integers(),
    st.text(),  # quotes, backslashes, control characters and non-ASCII
    ANY_FLOAT.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(ANY_FLOAT, max_size=4).map(np.array),
    st.lists(st.lists(ANY_FLOAT, min_size=2, max_size=2), max_size=3).map(np.array),
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonWriter:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(doc=JSON_DOCS)
    @example(doc={})
    @example(doc=[])
    @example(doc={"a": [], "b": {}, "c": [{}], "d": {"e": ()}})
    @example(doc={"z": -0.0, "y": [math.nan, math.inf, -math.inf], "é\n\"": None})
    def test_write_json_equals_json_dumps(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "doc.json"  # rewritten by each example
        write_json(path, doc)
        want = json.dumps(_json_safe(doc), indent=2, sort_keys=True) + "\n"
        assert path.read_text() == want

    def test_unserializable_value_raises(self, tmp_path):
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(tmp_path / "x.json", {"a": object()})
