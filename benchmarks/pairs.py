"""Alternating pairs of one rdcbench workload in two checkouts, one pair per seed.

    python3 benchmarks/pairs.py PARENT_ROOT CHANGE_ROOT --workload W --seeds A-B
        [--out PATH]

For each seed s from A to B it runs ``rdcbench/run.py --workload W --seed s``
in both checkouts, each with its own ``rdcbench/`` and rdcbench's default run
length.  The parent goes first on seed A, the change on the next seed, and so
on, so host drift falls on both sides alike.  For each end-to-end metric in
``BENCHMARK.json`` it prints each side's median and quartiles over the seeds,
the change's median over the parent's, the pairs in which the change was
better (in the metric's ``better`` direction) and the two-sided sign-test
p-value of those wins, all from ``ab.compare``.  The last stdout line (and
``--out``) is JSON: the run order, those summaries, every sample and each
run's failed-task count.  A claimed gain needs at least ten pairs, and the
change better in at least nine.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import ab
from bench import rdcbench

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def seed_range(text: str) -> list[int]:
    """The seeds of "A-B", A < B, both included."""
    try:
        first, last = (int(part) for part in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read A-B, got {text!r}") from None
    if last <= first:
        raise argparse.ArgumentTypeError(f"give at least two seeds, got {text!r}")
    return list(range(first, last + 1))


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", required=True, type=seed_range, metavar="A-B")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "rdcbench" / "run.py").is_file():
            print(f"error: {root} is not an rdclab checkout (rdcbench/run.py missing)",
                  file=sys.stderr)
            return 2
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    order, lines = [], {side: [] for side in ab.SIDES}
    for k, seed in enumerate(args.seeds):
        for side in ab.SIDES if k % 2 == 0 else ab.SIDES[::-1]:
            order.append([side, seed])
            run = rdcbench(roots[side], "--workload", args.workload, "--seed", str(seed))
            lines[side].append(run["result"])
    samples = {
        side: {name: [line["metrics"][name]["value"] for line in lines[side]] for name in better}
        for side in ab.SIDES
    }
    metrics = {
        name: {"better": how, **ab.compare(samples["parent"][name], samples["change"][name], how)}
        for name, how in better.items()
    }
    for name, r in metrics.items():
        p, c = r["parent"], r["change"]
        print(
            f"{name:14s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f"  ratio {r['ratio']:.3f}  change {r['better']} {r['wins']}/{r['rounds']}"
            f"  p {r['p_value']:.2g}"
        )
    result = {
        "workload": args.workload,
        "seeds": args.seeds,
        "roots": {side: str(root) for side, root in roots.items()},
        "run_order": order,
        "metrics": metrics,
        "samples": samples,
        "failed": {side: [line["failed"] for line in lines[side]] for side in ab.SIDES},
    }
    line = json.dumps(result, sort_keys=True)
    if args.out:
        args.out.write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
