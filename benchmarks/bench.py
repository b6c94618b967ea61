"""Write a BENCH pair: the rdcbench numbers of a parent and a change checkout.

    python3 benchmarks/bench.py PARENT_ROOT CHANGE_ROOT --labels P C

For each of seeds 1 and 2 it runs ``rdcbench/run.py --workload all`` in both
checkouts back to back, the parent first on seed 1 and the change first on
seed 2, so host drift between the runs falls on both sides alike.  Then, for
each workload W in ``TRACE_WORKLOADS``, it runs ``rdcbench/run.py --workload
W --seed 1 --trace 1`` in each, parent first.  Every run takes rdcbench's
default time and runs in its own checkout, with that checkout's
``rdcbench/``.  It writes ``BENCH_<P>.json`` and ``BENCH_<C>.json`` in the
current directory.  Each file holds its checkout's result lines (the last
stdout line of each run), the median over the seeds of each end-to-end
metric, each traced run's per-layer metrics under its workload's name, the
order of all eight runs, and its own provenance: the python, numpy and scipy
versions, and the checkout's git commit, ``git status --porcelain`` and the
SHA-256 of ``git diff HEAD``, read before any run.  A file made from a dirty
tree is stamped by those last two fields, not refused.

The full per-job records, with every output digest, stay in
``.rdcbench/results/`` of each checkout.  At the end ``digests.compare``
matches the two checkouts' untraced records job by job, and both files get
its per-kind tally of equal jobs, the number of differing jobs and the
first ``DIFF_LINES`` of their lines (``benchmarks/digests.py`` prints them
all).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import digests

SEEDS = (1, 2)
# region-enum times the decoder grid; library-oracles the oracles, the LP among them.
TRACE_WORKLOADS = ("region-enum", "library-oracles")
DIFF_LINES = 50  # a changed oracle can differ in thousands of jobs


def rdcbench(root: Path, *args: str) -> dict:
    """Run rdcbench/run.py once; echo its report rows and return its result line."""
    argv = [sys.executable, "rdcbench/run.py", *args]
    print(f"$ cd {root} && " + " ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), file=sys.stderr, flush=True)
    return {"argv": argv[1:], "result": json.loads(lines[-1])}


def medians(lines: list[dict]) -> dict:
    """Median over runs of each metric value, keyed as in the result lines."""
    values: dict[str, list[float]] = {}
    for line in lines:
        for name, metric in line["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout


def provenance(root: Path) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    diff = git(root, "diff", "HEAD").encode()
    return {
        "git_commit": git(root, "rev-parse", "HEAD").strip(),
        "git_status_porcelain": git(root, "status", "--porcelain").splitlines(),
        "git_diff_head_sha256": hashlib.sha256(diff).hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--labels", nargs=2, required=True, metavar=("P", "C"),
                        help="name the files BENCH_<P>.json and BENCH_<C>.json")
    args = parser.parse_args(argv)

    roots = [args.parent.resolve(), args.change.resolve()]
    for root in roots:
        if not (root / "rdcbench" / "run.py").is_file():
            print(f"error: {root} is not an rdclab checkout (rdcbench/run.py missing)",
                  file=sys.stderr)
            return 2
    provs = [provenance(root) for root in roots]  # before the runs: the trees as given
    order: list[list] = []
    end_to_end: list[list[dict]] = [[], []]
    for k, seed in enumerate(SEEDS):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            order.append([args.labels[side], "all", seed])
            end_to_end[side].append(rdcbench(roots[side], "--workload", "all", "--seed", str(seed)))
    traced: list[dict[str, dict]] = [{}, {}]
    for workload in TRACE_WORKLOADS:
        for side in (0, 1):
            order.append([args.labels[side], workload, SEEDS[0]])
            traced[side][workload] = rdcbench(
                roots[side], "--workload", workload, "--seed", str(SEEDS[0]), "--trace", "1"
            )
    lines, _, differing = digests.compare(*roots)
    print("\n".join(lines), file=sys.stderr)
    tally = lines[: len(lines) - differing]
    outputs = {"tally": tally, "differing": differing, "diff_lines": lines[len(tally):][:DIFF_LINES]}
    for side, label in enumerate(args.labels):
        bench = {
            "outputs": outputs,
            "label": label,
            "provenance": provs[side],
            "seeds": list(SEEDS),
            "run_order": order,
            "result_lines": end_to_end[side] + list(traced[side].values()),
            "medians": medians(end_to_end[side]),
            "per_layer": {
                workload: {
                    "seed": SEEDS[0],
                    "metrics": {k: v["value"] for k, v in line["result"]["metrics"].items()},
                }
                for workload, line in traced[side].items()
            },
        }
        path = Path.cwd() / f"BENCH_{label}.json"
        path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
