"""``benchmarks/digests.py``: two checkouts' rdcbench results, job by job."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import digests  # noqa: E402

REGION = {
    "argv": ["python", "-m", "rdclab.cli", "discrete-region", "--levels", "12"],
    "exit": 0,
    "sha256": {"region.csv": "aa", "region.json": "bb"},
}
W2 = {"kind": "w2_pair", "sha256": {"out": "cc"}}


def _results(root: Path, workload: str, jobs: list[dict]) -> None:
    out = root / ".rdcbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    for trace in (0, 1):  # a traced run's file is never compared
        path = out / f"{workload}-seed1-trace{trace}.json"
        path.write_text(json.dumps({"workload": workload, "jobs": jobs if trace == 0 else []}))


def test_matches_jobs_by_position_and_names_what_differs(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _results(parent, "region-enum", [REGION, REGION, REGION])
    _results(change, "region-enum", [REGION, {**REGION, "exit": 2, "sha256": {}}])
    _results(parent, "library-oracles", [W2, W2])
    _results(change, "library-oracles", [W2, W2, {**W2, "sha256": {"out": "dd"}}])
    assert digests.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "library-oracles  w2_pair              2/2 equal",
        "region-enum      discrete-region      1/2 equal",
        "  region-enum-seed1-trace0.json job 1 (discrete-region): exit, sha256 differ",
    ]


def test_equal_runs_exit_0_and_no_shared_file_exits_2(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert digests.main([str(parent), str(change)]) == 2
    _results(parent, "region-enum", [REGION])
    _results(change, "region-enum", [REGION])
    assert digests.main([str(parent), str(change)]) == 0
