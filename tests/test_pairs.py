"""``benchmarks/pairs.py``: the alternation of its runs and its summary, with a
stubbed runner; no benchmark runs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import ab  # noqa: E402
import pairs  # noqa: E402

METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def checkout(path: Path) -> Path:
    (path / "rdcbench").mkdir(parents=True)
    (path / "rdcbench" / "run.py").write_text("")
    return path


def test_pairs_alternate_and_summarise_in_each_metrics_direction(tmp_path, monkeypatch, capsys):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    runs = []

    def fake_rdcbench(root, *args):
        runs.append((root.name, *args))
        seed = int(args[-1])
        # The change is faster on every seed but 13, where it is slower.
        value = 100.0 + seed + (10.0 if (root.name == "change") != (seed == 13) else 0.0)
        metrics = {name: {"value": value} for name in METRICS}
        return {"argv": ["rdcbench/run.py", *args],
                "result": {"metrics": metrics, "failed": int(root.name == "change")}}

    monkeypatch.setattr(pairs, "rdcbench", fake_rdcbench)
    out = tmp_path / "pairs.json"
    argv = [str(parent), str(change), "--workload", "library-oracles", "--seeds", "11-14",
            "--out", str(out)]
    assert pairs.main(argv) == 0

    w = ("--workload", "library-oracles", "--seed")
    assert runs == [
        ("parent", *w, "11"), ("change", *w, "11"),
        ("change", *w, "12"), ("parent", *w, "12"),
        ("parent", *w, "13"), ("change", *w, "13"),
        ("change", *w, "14"), ("parent", *w, "14"),
    ]
    stdout = capsys.readouterr().out.splitlines()
    got = json.loads(stdout[-1])
    assert json.loads(out.read_text()) == got
    assert got["run_order"] == [[side, seed] for side, seed in (
        ("parent", 11), ("change", 11), ("change", 12), ("parent", 12),
        ("parent", 13), ("change", 13), ("change", 14), ("parent", 14))]
    assert got["failed"] == {"parent": [0, 0, 0, 0], "change": [1, 1, 1, 1]}
    parent_values, change_values = [111.0, 112.0, 123.0, 114.0], [121.0, 122.0, 113.0, 124.0]
    assert got["samples"] == {
        "parent": {m: parent_values for m in METRICS},
        "change": {m: change_values for m in METRICS},
    }
    assert set(got["metrics"]) == set(METRICS)
    for name in METRICS:
        r = got["metrics"][name]
        # The change reads higher in 3 of 4 pairs: wins for "higher" metrics only.
        wins = 3 if r["better"] == "higher" else 1
        assert r == {"better": r["better"],
                     **ab.compare(parent_values, change_values, r["better"])}
        assert (r["wins"], r["ties"], r["rounds"]) == (wins, 0, 4)
    assert got["metrics"]["jobs_per_s"]["better"] == "higher"
    assert got["metrics"]["job_s.p50"]["better"] == "lower"
    assert any(line.startswith("jobs_per_s ") and "change higher 3/4" in line for line in stdout)


@pytest.mark.parametrize("seeds", ["5", "5-5", "6-5", "a-b", "1-2-3"])
def test_fewer_than_two_seeds_or_a_bad_range_is_refused(tmp_path, monkeypatch, seeds):
    monkeypatch.setattr(pairs, "rdcbench", lambda *a: pytest.fail("a benchmark ran"))
    root = checkout(tmp_path / "c")
    with pytest.raises(SystemExit):
        pairs.main([str(root), str(root), "--workload", "gauss-cli", "--seeds", seeds])


def test_a_root_without_rdcbench_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(pairs, "rdcbench", lambda *a: pytest.fail("a benchmark ran"))
    good = checkout(tmp_path / "good")
    argv = [str(good), str(tmp_path), "--workload", "gauss-cli", "--seeds", "1-2"]
    assert pairs.main(argv) == 2
