"""Running one job: a fresh CLI process or a library task, timed and checked.

Shared by the end-to-end runs (``run.py``) and the traced run (``layers.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

JOB_TIMEOUT_S = 120.0  # a hung job is killed and counted failed


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def prepare_job_dir(job, root: Path) -> None:
    """Empty the job directory and write the job's input files."""
    job_dir = root / workloads.JOB_DIR
    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir(parents=True)
    for rel, text in job.files.items():
        (root / rel).write_text(text)


def run_cli_process(job, root: Path, env: dict) -> dict:
    """One fresh `python -m rdclab.cli` process, timed and checked."""
    prepare_job_dir(job, root)
    job_dir = root / workloads.JOB_DIR
    argv = [sys.executable, "-m", "rdclab.cli", *job.args]
    with open(job_dir / "stdout", "wb") as out, open(job_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {
        "argv": ["python", "-m", "rdclab.cli", *job.args],
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit": proc.returncode,
    }
    return finish_cli_record(record, job, root)


def finish_cli_record(record: dict, job, root: Path) -> dict:
    """Attach the output checks and output digests to a job record."""
    try:
        problems, digests = checks.check_cli_job(job, record["exit"], root)
    except (KeyError, TypeError, ValueError) as exc:
        problems, digests = [f"malformed output: {type(exc).__name__}: {exc}"], {}
    record["problems"] = problems
    record["sha256"] = digests
    return record


def task_record(task: dict, reply: dict, wall: float) -> dict:
    """A library task's record: timings, output checks and output digest."""
    if not reply.get("ok"):
        problems = [reply.get("error", "worker gave no reply")]
    else:
        try:
            problems = checks.check_task(task, reply["out"])
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {type(exc).__name__}: {exc}"]
    out = json.dumps(reply.get("out"), sort_keys=True).encode()
    return {
        "kind": task["kind"],
        "wall_s": wall,
        "cpu_s": reply.get("cpu_s", 0.0),
        "problems": problems,
        "sha256": {"out": checks.digest(out)},
    }


def counts(records: list[dict]) -> dict:
    """Attempted and failed jobs; a job fails on any problem its checks found."""
    return {"attempted": len(records), "failed": sum(1 for r in records if r["problems"])}
