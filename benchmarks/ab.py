"""A/B timing of one CLI command in two checkouts, in shuffled, interleaved rounds.

    python3 benchmarks/ab.py PARENT_ROOT CHANGE_ROOT [--rounds N] [--out PATH]
        -- ARGV...

It byte-compiles each checkout's ``src/rdclab`` (as ``rdcbench/run.py`` does),
runs ``python -m rdclab.cli ARGV`` once per checkout untimed, then runs it N
times per checkout: each round runs both checkouts, in an order drawn from a
fixed seed.  Each child runs with ``PYTHONPATH=<root>/src`` in its own temporary
working directory, so relative output paths in ARGV land there; give input
paths absolute.  For each child it records the wall time, the user + system
CPU time and ``ru_maxrss``, all from ``os.wait4`` on that child.  On Linux a
child started by vfork + exec inherits its parent's RSS high-water mark, so
``maxrss_mb`` never reads below this script's own, about 15 MB under CPython
3.11 with ``site`` (the byte-compiling runs in a child to keep it there).

Per metric it prints, and writes as the last stdout line (and to ``--out``) as
JSON: each side's median and quartiles, the change's median over the
parent's with its bootstrap 95% interval, how many rounds the change read
lower (ties count for neither), and the two-sided sign-test p-value of those
wins against the losses.  A child that exits non-zero, or runs longer than
``JOB_TIMEOUT_S`` and is killed, stops the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SIDES = ("parent", "change")
METRICS = ("wall_s", "cpu_s", "maxrss_mb")
JOB_TIMEOUT_S = 120.0  # as rdcbench/jobs.py: a hung child is killed
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses``, ties dropped."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def ratio_interval(parent: list[float], change: list[float]) -> list[float]:
    """Percentile bootstrap 95% interval of the change's median over the
    parent's: ``BOOTSTRAP_RESAMPLES`` resamples of the rounds, with
    replacement and from ``BOOTSTRAP_SEED``, each keeping a round's two sides
    together, since both ran under the same host drift."""
    rng, rounds = random.Random(BOOTSTRAP_SEED), range(len(parent))
    ratios = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        picks = rng.choices(rounds, k=len(parent))
        ratios.append(statistics.median(change[i] for i in picks)
                      / statistics.median(parent[i] for i in picks))
    cuts = statistics.quantiles(ratios, n=40, method="inclusive")  # 2.5%, 5%, ..., 97.5%
    return [cuts[0], cuts[-1]]


def compare(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """Quartiles of each side's samples (one per round, at least two), the
    median ratio with its ``ratio_interval``, and the change's wins by round
    (``better`` is "lower" or "higher") with their sign-test p-value."""
    sides = {}
    for side, xs in zip(SIDES, (parent, change)):
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        sides[side] = {"median": median, "q1": q1, "q3": q3}
    sign = {"lower": 1.0, "higher": -1.0}[better]
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    losses = sum(sign * c > sign * p for p, c in zip(parent, change))
    return {
        **sides,
        "ratio": sides["change"]["median"] / sides["parent"]["median"],
        "ratio_ci95": ratio_interval(parent, change),
        "wins": wins,
        "ties": len(parent) - wins - losses,
        "rounds": len(parent),
        "p_value": sign_test(wins, losses),
    }


def run_once(root: Path, argv: list[str], workdir: Path) -> dict:
    """One fresh ``python -m rdclab.cli`` child of ``root``, timed by ``os.wait4``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rdclab.cli", *argv], cwd=workdir, env=env,
            stdout=out, stderr=err,
        )
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    code = proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: no ResourceWarning
    if code != 0:
        why = f"killed after {JOB_TIMEOUT_S:g} s" if wall >= JOB_TIMEOUT_S else f"exit {code}"
        stderr = (workdir / "stderr").read_text(errors="replace")
        sys.exit(f"{root}: {why}\n{stderr}")
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
    }


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--out", type=Path)
    args = sys.argv[1:] if args is None else args
    cut = args.index("--") if "--" in args else len(args)
    opts, argv = parser.parse_args(args[:cut]), args[cut + 1:]
    if not argv or opts.rounds < 2:
        parser.error("give at least two rounds, and the CLI arguments after --")
    roots = {"parent": opts.parent.resolve(), "change": opts.change.resolve()}
    for root in roots.values():
        cmd = [sys.executable, "-m", "compileall", "-q", str(root / "src" / "rdclab")]
        subprocess.run(cmd, check=True)
    samples = {side: {m: [] for m in METRICS} for side in SIDES}
    rng = random.Random(0)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp, side) for side in SIDES}
        for side in SIDES:
            dirs[side].mkdir()
            run_once(roots[side], argv, dirs[side])  # untimed: fills the file cache
        for _ in range(opts.rounds):
            for side in rng.sample(SIDES, 2):
                for metric, value in run_once(roots[side], argv, dirs[side]).items():
                    samples[side][metric].append(value)
    result = {
        "argv": argv,
        "roots": {side: str(root) for side, root in roots.items()},
        "metrics": {
            m: compare(samples["parent"][m], samples["change"][m]) for m in METRICS
        },
        "samples": samples,
    }
    for metric, r in result["metrics"].items():
        p, c = r["parent"], r["change"]
        print(
            f"{metric:10s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f"  ratio {r['ratio']:.3f} [{r['ratio_ci95'][0]:.3f}, {r['ratio_ci95'][1]:.3f}]"
            f"  change lower {r['wins']}/{r['rounds']}"
            f"  p {r['p_value']:.2g}"
        )
    line = json.dumps(result, sort_keys=True)
    if opts.out:
        opts.out.write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
