"""Write BENCH_<label>.json: the rdcbench numbers of one checkout, with provenance.

Run from the root of a checkout:

    python3 benchmarks/bench.py --label lazy-scipy

It runs ``rdcbench/run.py --workload all`` on seeds 1 and 2, then
``rdcbench/run.py --workload region-enum --trace 1``, each for rdcbench's
default time, and writes ``BENCH_<label>.json`` at the root of the checkout.
The file holds every result line (the last stdout line of each run), the
median over the seeds of each end-to-end metric, the traced run's per-layer
metrics, the python, numpy and scipy versions, and the checkout's git commit,
``git status --porcelain`` and the SHA-256 of ``git diff HEAD``.  A file made from
a dirty tree is stamped by those last two fields, not refused.

Two BENCH files made on the same host compare a change with its parent:
make one in a clean checkout of each.  The full per-job records, with every
output digest, stay in ``.rdcbench/results/`` of the checkout.
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

SEEDS = (1, 2)
TRACE_WORKLOAD = "region-enum"


def rdcbench(root: Path, *args: str) -> dict:
    """Run rdcbench/run.py once; echo its report rows and return its result line."""
    argv = [sys.executable, "rdcbench/run.py", *args]
    print("$ " + " ".join(argv[1:]), file=sys.stderr, flush=True)
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
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "rdcbench" / "run.py").is_file():
        print("error: run from the root of an rdclab checkout (rdcbench/run.py missing)",
              file=sys.stderr)
        return 2
    prov = provenance(root)  # before the runs, so the tree is stamped as it was given
    end_to_end = [
        rdcbench(root, "--workload", "all", "--seed", str(seed)) for seed in SEEDS
    ]
    traced = rdcbench(
        root, "--workload", TRACE_WORKLOAD, "--seed", str(SEEDS[0]), "--trace", "1"
    )
    bench = {
        "label": args.label,
        "provenance": prov,
        "seeds": list(SEEDS),
        "result_lines": end_to_end + [traced],
        "medians": medians(end_to_end),
        "per_layer": {
            "workload": TRACE_WORKLOAD,
            "seed": SEEDS[0],
            "metrics": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
        },
    }
    path = root / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
