"""``benchmarks/ab.py``: its statistics on synthetic samples, and its watchdog on
a child that hangs; nothing is timed."""

import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import ab  # noqa: E402


@pytest.mark.parametrize(
    "wins, losses, p",
    [
        (10, 0, 2 / 1024),
        (9, 1, 22 / 1024),
        (1, 9, 22 / 1024),
        (5, 5, 1.0),
        (0, 0, 1.0),
        (20, 10, 2 * sum(math.comb(30, i) for i in range(11)) / 2**30),
    ],
)
def test_sign_test_is_the_two_sided_binomial_tail(wins, losses, p):
    assert ab.sign_test(wins, losses) == pytest.approx(p, rel=1e-12)


def test_compare_reads_quartiles_wins_and_ties():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    change = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 7.0, 8.5, 8.0]  # 7 lower, 1 tie, 1 higher
    got = ab.compare(parent, change)
    assert got["parent"] == {"median": 5.0, "q1": 3.0, "q3": 7.0}
    assert got["change"] == {"median": 4.5, "q1": 2.5, "q3": 7.0}
    assert got["ratio"] == 0.9
    assert (got["wins"], got["ties"], got["rounds"]) == (7, 1, 9)
    assert got["p_value"] == ab.sign_test(7, 1) == 18 / 256


def test_compare_pairs_by_round_not_by_rank():
    # The two sides hold the same values, yet the change is lower in one round.
    got = ab.compare([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 1.0])
    assert got["ratio"] == 1.0
    assert (got["wins"], got["ties"]) == (1, 0)
    assert got["p_value"] == ab.sign_test(1, 3) == 10 / 16


def test_a_hung_child_is_killed_and_stops_the_run(tmp_path, monkeypatch):
    package = tmp_path / "root" / "src" / "rdclab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setattr(ab, "JOB_TIMEOUT_S", 0.5)
    with pytest.raises(SystemExit, match="killed after 0.5 s"):
        ab.run_once(tmp_path / "root", [], tmp_path)
