"""Tests of the benchmark itself: seeded inputs, failure counting, parsers."""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _inputs(name: str, seed: int, count: int = 12) -> str:
    items = itertools.islice(workloads.WORKLOADS[name].stream(seed, ROOT), count)
    return json.dumps(
        [dataclasses.asdict(i) if dataclasses.is_dataclass(i) else i for i in items],
        sort_keys=True,
    )


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert _inputs(name, 7) == _inputs(name, 7)


def test_other_seed_other_inputs():
    for name in workloads.WORKLOADS:
        assert _inputs(name, 7) != _inputs(name, 8)


def test_region_jobs_stay_in_decoder_band():
    for job in itertools.islice(workloads.region_enum_jobs(3, ROOT), 40):
        decoders = job.expect["decoders"]
        assert workloads.DECODERS_MIN <= decoders <= workloads.DECODERS_MAX
        assert decoders == 455**2  # 4-atom alphabet at levels 12
        for text in job.files.values():
            source = json.loads(text)
            assert sum(map(sum, source["pmf"])) == 1.0
            assert all(sum(row) == 1.0 for row in source["encoder"])


def test_wrong_exit_code_counts_as_failed():
    good = {"problems": []}
    job = workloads.CliJob("gauss-curves", ["no-such-command"], [])
    bad = jobs.run_cli_process(job, ROOT, jobs.child_env(ROOT))
    assert bad["exit"] == 3
    assert bad["problems"] == ["exit code 3, expected 0"]
    assert jobs.counts([good, bad]) == {"attempted": 2, "failed": 1}


def test_failed_job_is_not_throughput():
    records = [
        {"wall_s": 1.0, "cpu_s": 1.0, "problems": []},
        {"wall_s": 1.0, "cpu_s": 1.0, "problems": ["nan token in out.csv"]},
    ]
    metrics, tail = run.end_to_end_metrics([1.0], records, 2.0, 100.0)
    assert metrics["jobs_per_s"]["value"] == 0.5
    assert tail == {"value": 1.0, "unit": "s", "percentile": 100.0, "n": 2}


def test_task_checks_catch_wrong_outputs():
    w2 = {"kind": "w2_pair", "params": {}}
    assert checks.check_task(w2, {"lp": 1.0, "quantile": 1.0}) == []
    assert checks.check_task(w2, {"lp": 1.0, "quantile": 1.1})
    reply = {"ok": False, "error": "ParameterError: boom"}
    assert jobs.task_record(w2, reply, 0.01)["problems"] == ["ParameterError: boom"]


def test_nan_output_fails(tmp_path):
    out = tmp_path / "curves.csv"
    out.write_text(checks.CURVE_HEADER + "\nprinted_R0.1,printed,0.1,nan,1.0,case2\n")
    job = workloads.CliJob("gauss-curves", [], [str(out)])
    problems, digests = checks.check_cli_job(job, 0, tmp_path)
    assert any("nan" in p for p in problems)
    assert list(digests) == [str(out)]


def test_tail_has_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_import_times_sum_outermost_entries():
    import layers

    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        40 |         50 |   scipy.stats",
        "import time:        20 |        220 | rdclab",
    ])
    assert layers.import_times(stderr) == {"rdclab": 220e-6, "scipy": 50e-6, "numpy": 150e-6}
