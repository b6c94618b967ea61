"""``benchmarks/bench.py``: the run order of a BENCH pair, the two files it
writes with both traced workloads, and their output check, with a stubbed
runner; no benchmark runs."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench  # noqa: E402


def checkout(path: Path) -> Path:
    (path / "rdcbench").mkdir(parents=True)
    (path / "rdcbench" / "run.py").write_text("")
    return path


def test_pair_alternates_the_checkouts_and_writes_both_files(tmp_path, monkeypatch):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    runs = []

    def fake_rdcbench(root, *args):
        runs.append((root.name, *args))
        if args[1] == "all":  # result files as rdcbench leaves them: one job differs
            out = root / ".rdcbench" / "results"
            out.mkdir(parents=True, exist_ok=True)
            jobs = [{"kind": "w2_pair", "sha256": {"out": "aa"}}] * 2
            if root.name == "change" and args[-1] == "2":
                jobs = [jobs[0], {"kind": "w2_pair", "sha256": {"out": "bb"}}]
            text = json.dumps({"workload": "library-oracles", "jobs": jobs})
            (out / f"library-oracles-seed{args[-1]}-trace0.json").write_text(text)
        value = float(len(runs))
        return {"argv": ["rdcbench/run.py", *args], "result": {"metrics": {"m": {"value": value}}}}

    monkeypatch.setattr(bench, "rdcbench", fake_rdcbench)
    monkeypatch.setattr(bench, "provenance", lambda root: {"git_commit": root.name})
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    assert bench.main([str(parent), str(change), "--labels", "p", "c"]) == 0

    all_ = ("--workload", "all", "--seed")
    region = ("--workload", "region-enum", "--seed", "1", "--trace", "1")
    oracles = ("--workload", "library-oracles", "--seed", "1", "--trace", "1")
    assert runs == [
        ("parent", *all_, "1"), ("change", *all_, "1"),
        ("change", *all_, "2"), ("parent", *all_, "2"),
        ("parent", *region), ("change", *region),
        ("parent", *oracles), ("change", *oracles),
    ]
    assert sorted(p.name for p in out.iterdir()) == ["BENCH_c.json", "BENCH_p.json"]
    for label, name, values in (
        ("p", "parent", [1.0, 4.0, 5.0, 7.0]), ("c", "change", [2.0, 3.0, 6.0, 8.0])
    ):
        got = json.loads((out / f"BENCH_{label}.json").read_text())
        assert got["label"] == label
        assert got["provenance"] == {"git_commit": name}
        assert [line["result"]["metrics"]["m"]["value"] for line in got["result_lines"]] == values
        assert got["medians"] == {"m": (values[0] + values[1]) / 2}
        assert got["per_layer"] == {
            "region-enum": {"seed": 1, "metrics": {"m": values[2]}},
            "library-oracles": {"seed": 1, "metrics": {"m": values[3]}},
        }
        assert [run[:2] for run in got["run_order"]] == [
            ["p", "all"], ["c", "all"], ["c", "all"], ["p", "all"],
            ["p", "region-enum"], ["c", "region-enum"],
            ["p", "library-oracles"], ["c", "library-oracles"],
        ]
        assert got["outputs"] == {
            "tally": ["library-oracles  w2_pair              3/4 equal"],
            "differing": 1,
            "diff_lines": ["  library-oracles-seed2-trace0.json job 1 (w2_pair): sha256 differ"],
        }


def test_a_root_without_rdcbench_is_refused(tmp_path, monkeypatch):
    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench, "rdcbench", no_run)
    good = checkout(tmp_path / "good")
    assert bench.main([str(good), str(tmp_path), "--labels", "p", "c"]) == 2
