"""The library-oracles benchmark's own checks pass on its task streams.

``rdcbench/run.py`` rejects a run when ``checks.check_task`` flags any task,
and only some seeds' streams reach a given fault.  This runs the first two
tasks of every kind for seeds 1-4, and every Gaussian closed-form task
(``rate_penalty`` and ``monte_carlo``) and every ``grid_oracle_rate`` task
among the first 60 of seeds 1-8, through the same JSON round trip as the
worker, so such a fault fails here first.  The grid tasks also check the
grid kernel bitwise against the full scan.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "rdcbench"))

from test_kernels import assert_same_scan, grid_rate_scan_full  # noqa: E402

from rdclab import _kernels  # noqa: E402

import checks  # noqa: E402
import oracle_tasks  # noqa: E402
import workloads  # noqa: E402

TASKS_PER_SEED = 2 * len(workloads.ORACLE_KINDS)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_first_tasks_pass_the_benchmark_checks(seed, tmp_path):
    stream = workloads.library_oracle_tasks(seed, tmp_path)
    for task in itertools.islice(stream, TASKS_PER_SEED):
        out = json.loads(json.dumps(oracle_tasks.run(task)))
        assert checks.check_task(task, out) == [], task


CLOSED_FORM_KINDS = ("rate_penalty", "monte_carlo")


@pytest.mark.parametrize("seed", range(1, 9))
def test_closed_form_tasks_pass_the_benchmark_checks(seed, tmp_path):
    stream = workloads.library_oracle_tasks(seed, tmp_path)
    for task in itertools.islice(stream, 60):
        if task["kind"] in CLOSED_FORM_KINDS:
            out = json.loads(json.dumps(oracle_tasks.run(task)))
            assert checks.check_task(task, out) == [], task


@pytest.mark.parametrize("seed", range(1, 9))
def test_grid_tasks_pass_the_checks_and_match_the_full_scan(seed, tmp_path, monkeypatch):
    kernel = _kernels.grid_rate_scan
    scans = []

    def compared(*args):
        got = kernel(*args)
        assert_same_scan(got, grid_rate_scan_full(*args))
        scans.append(args)
        return got

    monkeypatch.setattr(_kernels, "grid_rate_scan", compared)
    stream = workloads.library_oracle_tasks(seed, tmp_path)
    tasks = [t for t in itertools.islice(stream, 60) if t["kind"] == "grid_oracle_rate"]
    for task in tasks:
        out = json.loads(json.dumps(oracle_tasks.run(task)))
        assert checks.check_task(task, out) == [], task
    assert len(scans) == len(tasks) > 0
