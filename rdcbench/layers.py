"""Traced run: per-layer metrics for one workload.

The layers are the modules of ``src/rdclab``.  Spans are recorded from the
benchmark's side only: the public functions named in ``LAYERS`` are wrapped
by module attribute (every rdclab module holding the same function object
gets the wrapper), so the program itself is unchanged.  CLI jobs run
in-process through ``rdclab.cli.main(argv)``; library tasks through
``oracle_tasks.run``.

A traced run does, in order: one ``-X importtime`` import in a fresh
process; kernel micro-measurements at fixed sizes; one untimed warm-up job
of each kind; then each next job of the stream twice, untraced and traced.
Tracing overhead is the traced jobs' total time over the untraced ones',
minus 1.

Per-layer values are per job: ``<module>.<function>_s`` is self time (span
minus child spans) and ``<module>.<function>.calls`` the call count, except
``cli.main_s``, the whole in-process job.  Metrics of ``_kernels`` are named
``kernels.*``, because a metric name starts with a letter.  A function
missing from the program (a later refactor removed it) is listed under
``absent`` and its metrics are left out, never reported as zero; a function
the workload never calls reports 0 calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import rdclab
import rdclab.cli
import jobs
import oracle_tasks

LAYERS = {
    "cli": ("main", "write_curve_csv", "write_json"),
    "discrete_region": (
        "region_approx",
        "c_min_solver",
        "extreme_point_b",
        "outer_bound_sweep",
        "extreme_point_a",
        "mmse_reduction",
        "w2_squared_lp",
        "discretize_gaussian",
    ),
    "_kernels": ("dc_scan", "cmin_scan", "outer_scan", "grid_rate_scan", "w2_quantile_pairs"),
    "gaussian_tradeoff": (
        "dcr_distortion_printed",
        "dcr_distortion_oracle",
        "boundary_curve",
        "grid_oracle_rate",
        "rdc_rate",
    ),
    "universal_gaussian": ("region_sweep", "rate_penalty"),
    "bounds_eval": ("theorem5_gaussian_harness",),
    "validation_oracles": ("sample_joint", "plugin_estimates"),
}
SCANS = ("dc_scan", "cmin_scan", "outer_scan")
TRACE_SHARE = 0.8  # of --seconds, for the paired untraced and traced jobs


class Tracer:
    """Call counts, total and self time per wrapped function, plus counters.

    Wrappers are built once; ``active()`` swaps them in for one block, so
    traced and untraced runs can alternate.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self._patches: list[tuple[object, str, object, object]] = []
        targets = {}
        for mod_name, names in LAYERS.items():
            try:
                module = importlib.import_module(f"rdclab.{mod_name}")
            except ModuleNotFoundError:
                module = None
            for name in names:
                key = f"{mod_name}.{name}"
                original = getattr(module, name, None)
                if callable(original):
                    targets[id(original)] = self._wrap(key, original, HOOKS.get(key))
                else:
                    self.absent.append(key)
        # Every rdclab module that holds a wrapped function gets the wrapper,
        # so `from .x import f` call sites are traced too.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "rdclab" or mod_name.startswith("rdclab."):
                for attr, value in vars(mod).items():
                    if id(value) in targets:
                        self._patches.append((mod, attr, value, targets[id(value)]))

    def _wrap(self, key: str, fn, hook):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += span
                stats[0] += 1
                stats[1] += span
                stats[2] += span - frame[0]
            if hook is not None:
                try:
                    hook(self.counters, args, kwargs)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    # The function's signature changed: its counter is lost,
                    # the job still runs.
                    errors = f"{key}.hook_errors"
                    self.counters[errors] = self.counters.get(errors, 0) + 1
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)


def _count_decoders(counters, args, kwargs):
    rows, n_z = args[0], args[1]
    counters["decoders_enumerated"] = counters.get("decoders_enumerated", 0) + rows.shape[0] ** n_z


def _count_samples(counters, args, kwargs):
    n = kwargs["n"] if "n" in kwargs else args[2]
    counters["samples"] = counters.get("samples", 0) + n


def _count_bytes(counters, args, kwargs):
    counters["bytes_written"] = counters.get("bytes_written", 0) + Path(args[0]).stat().st_size


HOOKS = {
    **{f"_kernels.{name}": _count_decoders for name in SCANS},
    "validation_oracles.sample_joint": _count_samples,
    "cli.write_curve_csv": _count_bytes,
    "cli.write_json": _count_bytes,
}


# ---------------------------------------------------------------------------
# import times
# ---------------------------------------------------------------------------


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the outermost rdclab, scipy and numpy imports.

    ``-X importtime`` prints one line per module, children before their
    parent, indented by depth.  A package's time is the sum over its entries
    that no entry of the same package encloses.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    totals = {"rdclab": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, seconds in reversed(entries):  # parents now come first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(n.split(".")[0] == top for _, n in stack):
            totals[top] += seconds
        stack.append((depth, name))
    return totals


def measure_import_times(root: Path) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import rdclab"],
        cwd=root, env=jobs.child_env(root), capture_output=True, text=True, timeout=120,
    )
    return import_times(proc.stderr)


# ---------------------------------------------------------------------------
# kernel micro-measurements
# ---------------------------------------------------------------------------


def _simplex_rows(levels: int, m: int) -> np.ndarray:
    rows = [c for c in itertools.product(range(levels + 1), repeat=m) if sum(c) == levels]
    return np.array(rows, dtype=np.float64) / levels


def _micro_inputs():
    """Bundled flip source at levels 8: 165 rows, 27,225 decoders, m = 4."""
    x = np.array([-1.0, 1.0])
    pmf = np.array([[0.5, 0.0], [0.0, 0.5]])
    enc = np.array([[0.9, 0.1], [0.1, 0.9]])
    vals = np.array([-1.0, -0.8, 0.8, 1.0])
    rows = _simplex_rows(8, vals.size)
    p_x = pmf.sum(axis=1)
    sq = (x[:, None] - vals[None, :]) ** 2
    row_d = np.ascontiguousarray((enc.T @ (p_x[:, None] * sq)) @ rows.T)
    joint = enc.T @ pmf
    p_z = p_x @ enc
    p_xt = np.array([0.0, 0.5, 0.5, 0.0])
    rng = np.random.default_rng(0)
    w2 = [np.sort(rng.uniform(-3, 3, 32)), rng.dirichlet(np.ones(32)),
          np.sort(rng.uniform(-3, 3, 32)), rng.dirichlet(np.ones(32))]
    return rows, row_d, joint, p_z, vals, p_xt, w2


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_micro() -> tuple[dict, dict]:
    """Median time per call of each public _kernels dispatcher at a fixed size.

    Operation counts and bytes are computed from the sizes, not measured:
    operations count the arithmetic of the formulas per decoder or grid
    point, bytes the arrays a kernel must read plus the results it returns.
    """
    k = getattr(rdclab, "_kernels", None)  # a missing module makes every case absent
    rows, row_d, joint, p_z, vals, p_xt, w2 = _micro_inputs()
    n_z, (n_rows, m), n_s = 2, rows.shape, joint.shape[1]
    decoders = n_rows**n_z
    flip = f"bundled flip source at levels 8: {decoders} decoders over {m} atoms"
    grid = "400 x 400 reconstruction grid"
    pair = "two 32-atom distributions"
    in_bytes = rows.nbytes + row_d.nbytes + joint.nbytes
    entropy_ops = decoders * (n_z + 2 * n_z * m * n_s + 4 * m * n_s)
    w2_calls = 200  # one call takes microseconds; time a batch
    cases = {
        "dc_scan": (flip, 1, lambda: k.dc_scan(rows, n_z, row_d, joint),
                    entropy_ops, in_bytes + 16 * decoders),
        "cmin_scan": (flip, 1, lambda: k.cmin_scan(rows, n_z, row_d, joint, 1.0),
                      entropy_ops, in_bytes),
        "outer_scan": (flip, 1, lambda: k.outer_scan(rows, n_z, row_d, p_z, vals, p_xt, 0.36),
                       decoders * (n_z + 2 * n_z * m + 8 * m), in_bytes + 3 * vals.nbytes),
        "grid_rate_scan": (grid, 1, lambda: k.grid_rate_scan(1.0, 1.42, 0.49, 0.5, 2.0, 400, 400),
                           400 * 401 * 14, 32),
        "w2_quantile_pairs": (pair, w2_calls,
                              lambda: [k.w2_quantile_pairs(*w2) for _ in range(w2_calls)],
                              64 * 5, sum(a.nbytes for a in w2)),
    }
    metrics, detail = {}, {}
    for name, (size, calls, fn, ops, nbytes) in cases.items():
        try:
            per_call = _median_time(fn) / calls
        except (AttributeError, TypeError, ValueError) as exc:
            detail[name] = {"size": size, "absent": f"{type(exc).__name__}: {exc}"}
            continue
        metrics[f"micro.{name}_s"] = per_call
        detail[name] = {
            "size": size,
            "seconds_per_call": per_call,
            "computed": {"ops_per_call": ops, "bytes_per_call": nbytes,
                         "ops_per_s": ops / per_call, "bytes_per_s": nbytes / per_call},
        }
    return metrics, detail


# ---------------------------------------------------------------------------
# in-process jobs
# ---------------------------------------------------------------------------


def _run_cli_inproc(job, root: Path) -> dict:
    jobs.prepare_job_dir(job, root)
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = rdclab.cli.main(list(job.args))
        except Exception as exc:  # a fresh process would exit 1 with a traceback
            code = f"{type(exc).__name__}: {exc}"
    record = {"argv": ["python", "-m", "rdclab.cli", *job.args],
              "wall_s": time.perf_counter() - start, "exit": code}
    record = jobs.finish_cli_record(record, job, root)
    if job.kind == "discrete-region" and not record["problems"]:
        verdict = json.loads((root / job.outputs[1]).read_text())
        record["decoders_checked"] = verdict["outer_bound"]["decoders_checked"]
    return record


def _run_task_inproc(task, root: Path) -> dict:
    start = time.perf_counter()
    try:
        reply = {"ok": True, "out": oracle_tasks.run(task)}
    except Exception as exc:  # counted failed, as the worker would report it
        reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return jobs.task_record(task, reply, time.perf_counter() - start)


def layer_metrics(tracer: Tracer, n_jobs: int, records: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    stats = tracer.stats
    for key, (calls, total, self_s) in stats.items():
        if key.startswith("cli."):
            continue
        name = key.lstrip("_")  # metric names start with a letter: kernels.dc_scan_s
        out[f"{name}_s"] = self_s / n_jobs
        out[f"{name}.calls"] = calls / n_jobs
    if "cli.main" in stats:
        out["cli.main_s"] = stats["cli.main"][1] / n_jobs
    writers = [stats[k] for k in ("cli.write_curve_csv", "cli.write_json") if k in stats]
    if writers:
        out["cli.write_s"] = sum(s[2] for s in writers) / n_jobs
        out["cli.bytes_written"] = tracer.counters.get("bytes_written", 0) / n_jobs
    scans = [stats[f"_kernels.{n}"] for n in SCANS if f"_kernels.{n}" in stats]
    enumerated = tracer.counters.get("decoders_enumerated", 0)
    if scans:
        out["discrete_region.decoders_enumerated"] = enumerated / n_jobs
        scan_time = sum(s[1] for s in scans)
        out["kernels.decoders_per_s"] = enumerated / scan_time if scan_time > 0 else 0.0
        checked = sum(r.get("decoders_checked", 0) for r in records)
        out["discrete_region.enum_yield"] = checked / enumerated if enumerated else 0.0
    if "validation_oracles.sample_joint" in stats:
        busy = stats["validation_oracles.sample_joint"][1]
        samples = tracer.counters.get("samples", 0)
        out["validation_oracles.samples_per_s"] = samples / busy if busy > 0 else 0.0
    return out


def run_traced(wl, seed: int, seconds: float, root: Path) -> dict:
    """Per-layer metrics of one workload; see the module docstring."""
    imports = measure_import_times(root)
    micro, micro_detail = kernel_micro()

    runner = _run_cli_inproc if wl.mode == "process" else _run_task_inproc
    stream = wl.stream(seed, root)
    # Warm-up: the first job of each kind runs untimed, so lazy imports and
    # caches fill before any pair is timed.
    seen = set()
    for item in stream:
        kind = item["kind"] if isinstance(item, dict) else item.kind
        if kind in seen:
            break
        seen.add(kind)
        runner(item, root)
    stream = itertools.chain([item], stream)

    # Each job runs twice, untraced and traced, in alternating order: pairing
    # keeps drift in the machine's speed out of the overhead ratio, and
    # alternating cancels the second run's warmer caches.
    tracer = Tracer()
    runs = {False: [], True: []}  # traced? -> job records
    busy = {False: 0.0, True: 0.0}  # traced? -> seconds
    start = time.perf_counter()
    for i, item in enumerate(stream):
        if runs[True] and time.perf_counter() - start >= TRACE_SHARE * seconds:
            break
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            with tracer.active() if traced else contextlib.nullcontext():
                runs[traced].append(runner(item, root))
            busy[traced] += time.perf_counter() - t0

    metrics = {
        "import.rdclab_s": imports["rdclab"],
        "import.scipy_s": imports["scipy"],
        "import.numpy_s": imports["numpy"],
        **layer_metrics(tracer, len(runs[True]), runs[True]),
        **micro,
        "trace.overhead_frac": busy[True] / busy[False] - 1.0,
    }
    records = runs[False] + runs[True]
    return {
        "workload": wl.name,
        "why": wl.why,
        "trace": 1,
        "kernel_backend": repr(getattr(getattr(rdclab, "_kernels", None), "USE_NUMBA", None)),
        "rdclab": getattr(rdclab, "__version__", None),
        "runs": {"jobs_per_pass": len(runs[True]), "untraced_s": busy[False],
                 "traced_s": busy[True], "seconds": seconds},
        "absent": tracer.absent,
        "counters": tracer.counters,
        "spans": {k: {"calls": c, "total_s": t, "self_s": s}
                  for k, (c, t, s) in tracer.stats.items()},
        "kernels": micro_detail,
        **jobs.counts(records),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
        "jobs": records,
    }


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/job"
    if name in ("discrete_region.enum_yield", "trace.overhead_frac"):
        return "ratio"
    if name.endswith("per_s"):
        return "1/s"
    if name == "cli.bytes_written":
        return "B/job"
    if name == "discrete_region.decoders_enumerated":
        return "decoders/job"
    if name.startswith(("import.", "micro.")):
        return "s"
    return "s/job"
