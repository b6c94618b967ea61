"""Byte gate: CLI outputs must match the committed golden files.

The files under ``tests/golden/`` were written by the CLI itself with the
argv listed in ``RUNS`` (``discrete-region``) and ``GAUSSIAN_RUNS`` (the
Gaussian subcommands).  A change that alters any output byte fails here; a
change that means to alter them regenerates the files with the same argv and
says which file changed and why.

``discrete-region`` must write the same bytes on every x86 host, whatever
SIMD kernels numpy dispatches to and whatever OpenBLAS kernel the CPU picks.
``test_discrete_region_bytes_on_every_host`` reproduces other hosts on this
one, in fresh interpreters: numpy with its dispatch targets disabled
(``NPY_DISABLE_CPU_FEATURES``) and OpenBLAS with an older core forced
(``OPENBLAS_CORETYPE``).
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdclab
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
    # an MMSE atom 0.0 and a source atom -0.0: the alphabet keeps +0.0
    "signed_zero_levels3": [
        "--source", str(GOLDEN / "signed_zero_source.json"), "--levels", "3",
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


def _argv(name: str) -> list[str]:
    return [str(bundled_source_path()) if a == "flip01" else a for a in RUNS[name]]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_discrete_region_matches_golden(name, tmp_path):
    assert main(["discrete-region", *_argv(name), "--out", str(tmp_path / name)]) == 0
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


# The OpenBLAS cores a variant may force, each with the CPU features it needs:
# forcing a core the CPU lacks dies with SIGILL.
BLAS_CORES = (
    ("Prescott", ("SSE3",)),
    ("Sandybridge", ("AVX",)),
    ("Haswell", ("AVX2", "FMA3")),
    ("SkylakeX", ("AVX512F", "AVX512CD", "AVX512BW", "AVX512DQ", "AVX512VL")),
)
HOST_VARIABLES = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS",
                  "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Runs every RUNS argv through main, then prints the dispatch targets numpy disabled.
RUN_ALL = """
import contextlib, io, json, sys
from numpy._core import _multiarray_umath as umath
from rdclab.cli import main
out, runs = sys.argv[1], json.loads(sys.argv[2])
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["discrete-region", *argv, "--out", f"{out}/{name}"]) == 0, name
print(json.dumps([k for k in umath.__cpu_dispatch__ if not umath.__cpu_features__[k]]))
"""


def _host_variants() -> list[dict[str, str]]:
    """One environment per process: numpy's dispatch targets (which it lists
    lowest first) disabled cumulatively, highest first, paired with each
    OpenBLAS core this CPU runs; the first pair also asks OpenBLAS for two
    threads.  numpy refuses to import when asked to disable a name it does
    not list."""
    from numpy._core import _multiarray_umath as umath

    highest = list(reversed(umath.__cpu_dispatch__))
    if not highest:
        pytest.skip("numpy lists no dispatch targets on this host")
    features = umath.__cpu_features__
    cores = [core for core, needs in BLAS_CORES if all(features.get(f) for f in needs)]
    disabled = [" ".join(highest[:k]) for k in range(len(highest) + 1)]
    variants = []
    for off, core in itertools.zip_longest(disabled, cores):
        env = {"NPY_DISABLE_CPU_FEATURES": off, "OPENBLAS_CORETYPE": core}
        variants.append({k: v for k, v in env.items() if v})
    variants[0]["OPENBLAS_NUM_THREADS"] = "2"
    return variants


def test_discrete_region_bytes_on_every_host(tmp_path):
    runs = json.dumps({name: _argv(name) for name in sorted(RUNS)})
    base = {k: v for k, v in os.environ.items() if k not in HOST_VARIABLES}
    base["PYTHONPATH"] = str(Path(rdclab.__file__).resolve().parents[1])
    procs = []
    for n, variant in enumerate(_host_variants()):
        out = tmp_path / str(n)
        out.mkdir()
        proc = subprocess.Popen(
            [sys.executable, "-c", RUN_ALL, str(out), runs], env={**base, **variant},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        procs.append((variant, out, proc))
    wrong = []
    for variant, out, proc in procs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{variant}: {stderr}"
        off = variant.get("NPY_DISABLE_CPU_FEATURES", "")
        assert sorted(json.loads(stdout)) == sorted(off.split()), variant
        for name, ext in itertools.product(sorted(RUNS), ("csv", "json")):
            got = (out / f"{name}.{ext}").read_text()
            want = (GOLDEN / f"{name}.{ext}").read_text()
            if got != want:
                wrong.append(f"{variant} {name}.{ext}: {_first_difference(got, want)}")
    assert not wrong, "\n".join(wrong)
