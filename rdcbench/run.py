"""rdclab benchmark: seeded workloads, end-to-end job metrics, a traced run.

Run from the root of a checkout (rdclab need not be installed; jobs import it
from ``src/``):

    python3 rdcbench/run.py --workload gauss-cli --seed 1 --seconds 30 --trace 0
    python3 rdcbench/run.py --workload all --seed 1      # one row per workload
    python3 rdcbench/run.py --workload region-enum --seed 1 --trace 1

Each workload is a closed loop with one client: one job at a time and at
most one child process beside this driver.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload's jobs in-process, each
once untraced and once traced, and reports the per-layer metrics (see
``layers.py``).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with provenance,
every job's argv and a SHA-256 of every output, goes to
``.rdcbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import jobs
import workloads

HERE = Path(__file__).resolve().parent
STATE_DIR = ".rdcbench"
SETUP_PROBES = 4  # half before the jobs and half after, so they sample the whole run

# Unit of each end-to-end metric in the result line, in report order.  The
# row also prints job_s.tail and failed_frac, which the result line leaves
# out: across seeds the tail of library-oracles spread by up to half its
# median on a shared 2-vCPU host, more than any bound it could be given, and
# failed_frac is 0 on a correct program, so no relative bound fits it (the
# line's `failed` and `attempted` carry it).
END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_cpu_s.p50": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Runs `import rdclab`, says so at once, then reports what it imported.
PROBE = (
    "import rdclab, sys\n"
    "sys.stdout.write('imported\\n'); sys.stdout.flush()\n"
    "import json\n"
    "print(json.dumps({'kernel_backend': repr(getattr(getattr(rdclab, '_kernels', None),"
    " 'USE_NUMBA', None)), 'rdclab': getattr(rdclab, '__version__', None)}))\n"
)


def measure_setup(root: Path, env: dict, probes: int) -> tuple[list[float], dict]:
    """Wall time from spawning an interpreter until `import rdclab` returns."""
    times, info = [], {}
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE], cwd=root, env=env,
            stdout=subprocess.PIPE, text=True,
        )
        with proc:
            first = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = proc.stdout.read()
        if proc.returncode != 0 or first != "imported\n":
            raise RuntimeError(f"import probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        info = json.loads(rest)
    return times, info


def keep_going(records: list[dict], start: float, seconds: float) -> bool:
    """Start another job only if it should end within the run's time."""
    if not records:
        return True
    typical = statistics.median(r["wall_s"] for r in records)
    return time.perf_counter() - start + typical <= seconds


def run_process_workload(wl, seed: int, seconds: float, root: Path, env: dict):
    records = []
    start = time.perf_counter()
    for job in wl.stream(seed, root):
        if not keep_going(records, start, seconds):
            break
        records.append(jobs.run_cli_process(job, root, env))
    elapsed = time.perf_counter() - start
    return records, elapsed, max(r["maxrss_mb"] for r in records)


def run_worker_workload(wl, seed: int, seconds: float, root: Path, env: dict):
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "oracle_worker.py")], cwd=root, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(seconds + jobs.JOB_TIMEOUT_S, worker.kill)
    watchdog.start()
    records = []
    try:
        if not worker.stdout.readline():
            raise RuntimeError("oracle worker exited before it was ready")
        start = time.perf_counter()
        for task in wl.stream(seed, root):
            if not keep_going(records, start, seconds):
                break
            t0 = time.perf_counter()
            worker.stdin.write(json.dumps(task) + "\n")
            worker.stdin.flush()
            line = worker.stdout.readline()
            wall = time.perf_counter() - t0
            reply = json.loads(line) if line else {"ok": False, "error": "worker died"}
            records.append(jobs.task_record(task, reply, wall))
            if not line:
                break
        elapsed = time.perf_counter() - start
        worker.stdin.close()
        _, status, usage = os.wait4(worker.pid, 0)
        worker.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if worker.returncode is None:
            worker.kill()
            worker.wait()
        worker.stdout.close()
    return records, elapsed, usage.ru_maxrss / 1024.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end_metrics(setup: list[float], records: list[dict], elapsed: float, rss: float):
    walls = [r["wall_s"] for r in records]
    passed = sum(1 for r in records if not r["problems"])
    values = {
        "setup_s": statistics.median(setup),
        "job_s.p50": statistics.median(walls),
        "job_cpu_s.p50": statistics.median(r["cpu_s"] for r in records),
        "jobs_per_s": passed / elapsed,
        "peak_rss_mb": rss,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    value, percentile, n = tail(walls)
    return metrics, {"value": value, "unit": "s", "percentile": percentile, "n": n}


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, seed: int, probe: dict) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "rdclab": probe.get("rdclab"),
        "kernel_backend": probe.get("kernel_backend"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run_end_to_end(name: str, seed: int, seconds: float, root: Path) -> dict:
    wl = workloads.WORKLOADS[name]
    env = jobs.child_env(root)
    setup, probe = measure_setup(root, env, SETUP_PROBES // 2)
    runner = run_process_workload if wl.mode == "process" else run_worker_workload
    records, elapsed, rss = runner(wl, seed, seconds, root, env)
    setup += measure_setup(root, env, SETUP_PROBES - len(setup))[0]
    metrics, tail_info = end_to_end_metrics(setup, records, elapsed, rss)
    return {
        "workload": name,
        "why": wl.why,
        "trace": 0,
        "provenance": provenance(root, seed, probe),
        "runs": {"setup_probes": len(setup), "jobs": len(records), "seconds": seconds},
        "setup_s_samples": setup,
        "job_s.tail": tail_info,
        **jobs.counts(records),
        "metrics": metrics,
        "worker_argv": None if wl.mode == "process" else ["python", "rdcbench/oracle_worker.py"],
        "jobs": records,
    }


def run_traced(name: str, seed: int, seconds: float, root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import layers  # imports rdclab, so only the traced run pays for it here

    result = layers.run_traced(workloads.WORKLOADS[name], seed, seconds, root)
    probe = {"kernel_backend": result.pop("kernel_backend"), "rdclab": result.pop("rdclab")}
    result["provenance"] = provenance(root, seed, probe)
    return result


def report(result: dict) -> list[str]:
    """Human-readable lines: one row per end-to-end run, one line per layer metric."""
    attempted, failed = result["attempted"], result["failed"]
    failures = f"failed_frac={failed / attempted:.4g} ({failed}/{attempted})"
    metrics = result["metrics"]
    if result["trace"]:
        absent = ", ".join(result["absent"]) or "none"
        lines = [f"{result['workload']}: per-layer metrics; {failures}; absent: {absent}"]
        return lines + [f"  {k:<46} {v['value']:<13.6g} {v['unit']}" for k, v in metrics.items()]
    tail_info = result["job_s.tail"]
    cells = [f"{result['workload']:<16}"]
    cells += [f"{k}={v['value']:.4g} {v['unit']}" for k, v in metrics.items()]
    cells.append(f"job_s.tail={tail_info['value']:.4g} s (p{tail_info['percentile']:.3g} "
                 f"of n={tail_info['n']})")
    cells.append(failures)
    return ["  ".join(cells)]


def write_result(result: dict, root: Path) -> Path:
    out_dir = root / STATE_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = result["provenance"]["seed"]
    path = out_dir / f"{result['workload']}-seed{seed}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rdclab" / "cli.py").is_file():
        print("error: run from the root of an rdclab checkout (src/rdclab missing)",
              file=sys.stderr)
        return 2
    # Byte-compile the package up front, as an install would, so no timed
    # process pays for it.
    compileall.compile_dir(root / "src" / "rdclab", quiet=1)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    run = run_traced if args.trace else run_end_to_end
    results = []
    for name in names:
        result = run(name, args.seed, args.seconds, root)
        path = write_result(result, root)
        print(f"# {name}: {result['why']} (full record: {path.relative_to(root)})")
        results.append(result)
    shutil.rmtree(root / workloads.JOB_DIR, ignore_errors=True)
    for result in results:
        print("\n".join(report(result)))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}:{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
