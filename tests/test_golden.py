"""Byte gate: CLI outputs must match the committed golden files.

The files under ``tests/golden/`` were written by the CLI itself with the
argv listed in ``RUNS`` (``discrete-region``) and ``GAUSSIAN_RUNS`` (the
Gaussian subcommands).  A change that alters any output byte fails here; a
change that means to alter them regenerates the files with the same argv and
says which file changed and why.
"""

from pathlib import Path

import pytest

from rdclab.cli import bundled_source_path, main

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    # bundled source, 27,225 decoders, budget defaults to Var(X)
    "flip01_levels8": ["--source", "flip01", "--levels", "8"],
    # the benchmark's region-enum argv: 207,025 decoders over 455 rows per symbol
    "flip01_levels12": ["--source", "flip01", "--levels", "12"],
    # |X| = 2, |S| = 2, |Z| = 3 at levels 3: 42,875 decoders over six chunks
    "x2_s2_z3_levels3": [
        "--source", str(GOLDEN / "x2_s2_z3_source.json"), "--levels", "3",
    ],
    # a budget that binds: extreme point B moves off the unconstrained c_min
    "flip01_budget0365": [
        "--source", "flip01", "--levels", "8", "--d-budget", "0.365",
    ],
    # both MMSE atoms merge at 0, so the frontier trades D for C: 10 points
    "merged_mmse_levels8": [
        "--source", str(GOLDEN / "merged_mmse_source.json"), "--levels", "8",
    ],
}


# Gaussian subcommands at reduced sizes: default flags would write 189 KB for
# gauss-curves alone.  Each argv writes the one file named by its key.
GAUSSIAN_RUNS = {
    "gauss_curves_points20.csv": ["gauss-curves", "--points", "20"],
    # the smallest grids; at rate 0 the oracle grid's two C values coincide
    "gauss_curves_points2.csv": ["gauss-curves", "--points", "2", "--rates", "0,0.1,0.34"],
    "discrepancy_grid10.json": ["discrepancy-report", "--grid-c", "10", "--grid-r", "10"],
    "discrepancy_grid2x3.json": ["discrepancy-report", "--grid-c", "2", "--grid-r", "3"],
    "bounds_instances20.json": ["bounds", "--instances", "20"],
}


def _first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for n, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {n}: got {g!r}, golden {w!r}"
    return f"line count: got {len(got_lines)}, golden {len(want_lines)}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_discrete_region_matches_golden(name, tmp_path):
    argv = [
        str(bundled_source_path()) if a == "flip01" else a for a in RUNS[name]
    ]
    assert main(["discrete-region", *argv, "--out", str(tmp_path / name)]) == 0
    for ext in ("csv", "json"):
        got = (tmp_path / f"{name}.{ext}").read_text()
        want = (GOLDEN / f"{name}.{ext}").read_text()
        assert got == want, f"{name}.{ext}: {_first_difference(got, want)}"


@pytest.mark.parametrize("name", sorted(GAUSSIAN_RUNS))
def test_gaussian_subcommand_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*GAUSSIAN_RUNS[name], "--out", str(out)]) == 0
    got, want = out.read_text(), (GOLDEN / name).read_text()
    assert got == want, f"{name}: {_first_difference(got, want)}"
