"""Compare the outputs of two checkouts' rdcbench runs job by job.

Run ``python3 rdcbench/run.py --workload all --seed N`` in each checkout, then,
from anywhere:

    python3 benchmarks/digests.py PARENT_ROOT CHANGE_ROOT

It reads ``.rdcbench/results/<workload>-seed<N>-trace0.json`` of both
checkouts.  A workload's job stream is fixed by its seed, so the jobs at the
same position of the same result file are the same job; each run stops at its
own time budget, so only the positions both runs reached are matched.  A job's
kind is its CLI subcommand, or a library task's kind.  Per workload and kind,
it prints how many matched jobs have equal argv, exit code and output SHA-256
digests, then one line for each job that differs, naming what differs.  The
exit status is 0 when every matched job is equal, 1 when one differs and 2
when the two checkouts share no result file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS = Path(".rdcbench") / "results"
FIELDS = ("argv", "exit", "sha256")  # a library task's record has only sha256


def _kind(job: dict) -> str:
    return job["kind"] if "kind" in job else job["argv"][3]  # python -m rdclab.cli <kind>


def compare(parent: Path, change: Path) -> tuple[list[str], int, int]:
    """Report lines, the number of result files compared and of jobs that differ."""
    files = 0
    tally: dict[tuple[str, str], list[int]] = {}  # (workload, kind) -> [equal, matched]
    diffs: list[str] = []
    for path in sorted((parent / RESULTS).glob("*-trace0.json")):
        other = change / RESULTS / path.name
        if not other.exists():
            continue
        files += 1
        before = json.loads(path.read_text())
        after = json.loads(other.read_text())
        for i, (a, b) in enumerate(zip(before["jobs"], after["jobs"])):
            kind = _kind(a)
            counts = tally.setdefault((before["workload"], kind), [0, 0])
            counts[1] += 1
            changed = [f for f in FIELDS if a.get(f) != b.get(f)]
            if changed:
                diffs.append(f"  {path.name} job {i} ({kind}): {', '.join(changed)} differ")
            else:
                counts[0] += 1
    lines = [f"{workload:<16} {kind:<20} {equal}/{matched} equal"
             for (workload, kind), (equal, matched) in sorted(tally.items())]
    return lines + diffs, files, len(diffs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    args = parser.parse_args(argv)
    lines, files, differing = compare(args.parent_root, args.change_root)
    if files == 0:
        print("no trace0 result file in both checkouts", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
