"""The program surface the benchmark's tracer relies on.

``rdcbench/layers.py`` wraps the functions it names in ``LAYERS`` and
micro-benchmarks the public kernels.  It leaves out, without failing, a
metric whose function is gone or whose call no longer fits; these tests
fail instead, before a benchmark run reports fewer metrics.
"""

import sys
from pathlib import Path

import rdclab.cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "rdcbench"))

import layers  # noqa: E402

MICRO = ("dc_scan", "cmin_scan", "outer_scan", "grid_rate_scan", "w2_quantile_pairs")


def test_every_traced_function_exists():
    assert layers.Tracer().absent == []


def test_every_kernel_micro_benchmark_runs():
    metrics, detail = layers.kernel_micro()
    assert sorted(metrics) == sorted(f"micro.{name}_s" for name in MICRO)
    assert all("absent" not in entry for entry in detail.values())


def test_traced_discrete_region_job_loses_no_counter(tmp_path):
    tracer = layers.Tracer()
    argv = ["discrete-region", "--source", str(rdclab.cli.bundled_source_path()),
            "--levels", "3", "--out", str(tmp_path / "region")]
    with tracer.active():
        assert rdclab.cli.main(argv) == 0
    assert [k for k in tracer.counters if k.endswith(".hook_errors")] == []
    # One grid: one (D, C) pass feeds both the frontier and c_min, plus the
    # outer-bound scan: two scans over 20 rows per symbol, two symbols.
    assert tracer.counters["decoders_enumerated"] == 2 * 20**2
    assert tracer.stats["_kernels.dc_scan"][0] == 1
    assert tracer.stats["_kernels.outer_scan"][0] == 1
    assert tracer.stats["_kernels.cmin_scan"][0] == 0
    assert tracer.stats["discrete_region.mmse_reduction"][0] == 1
