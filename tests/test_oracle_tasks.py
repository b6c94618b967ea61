"""The library-oracles benchmark's own checks pass on its task streams.

``rdcbench/run.py`` rejects a run when ``checks.check_task`` flags any task,
and only some seeds' streams reach a given fault.  This runs the first two
tasks of every kind for seeds 1-4, through the same JSON round trip as the
worker, so such a fault fails here first.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "rdcbench"))

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
