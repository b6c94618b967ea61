"""Seeded inputs for the three benchmark workloads.

Every input a workload hands to rdclab comes from here: CLI argv lists,
discrete-source JSON files and library-task parameters.  The same
``(workload, seed)`` always yields the same stream; a stream is endless and
the run takes as much of it as fits in its time.  Pure Python, so the driver
never imports numpy or scipy to make inputs.

Jobs run with the checkout root as working directory, so every path in an
argv list is relative to it and argv lists repeat exactly across checkouts.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

JOB_DIR = ".rdcbench/job"  # scratch directory of the job being run; emptied per job
BUNDLED_SOURCE = "src/rdclab/data/flip01_source.json"

# Decoder-count band of a region-enum job.  Its top is far below the
# program's 2,000,000-decoder enumeration cap, so no job exits 2 through the
# size guard.
DECODERS_MIN = 25_000
DECODERS_MAX = 250_000

# A run holds only about six region-enum jobs (~5 s each in a fresh process),
# so its median is steady only when every job costs the same.  Levels 12 with
# |X| = 2 and |Z| = 2 gives a 4-atom reconstruction alphabet and 207,025
# decoders for the bundled source and for every random one.  |X| = 3 would
# need levels 8 (245,025 decoders over a 5-atom alphabet, ~1.4x the cost).
REGION_LEVELS = 12

GAUSS_KINDS = ("gauss-curves", "discrepancy-report", "bounds")
BOUNDS_INSTANCES = 200
DISCREPANCY_GRID = 50  # CLI default grid: 50 x 50 cells

ORACLE_KINDS = (
    "grid_oracle_rate",
    "w2_pair",
    "monte_carlo",
    "theorem5_harness",
    "rate_penalty",
    "discretize_gaussian",
)
W2_ATOMS = 32
MC_SAMPLES = 100_000
HARNESS_INSTANCES = 50
DISCRETIZE_ATOMS = 10_000

LOG_2PI_E = math.log(2.0 * math.pi) + 1.0


@dataclass
class CliJob:
    """One fresh ``python -m rdclab.cli`` process and what its outputs must be."""

    kind: str
    args: list[str]
    outputs: list[str]
    files: dict[str, str] = field(default_factory=dict)  # inputs written first
    expect_exit: int = 0
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "process": one fresh CLI process per job; "worker": one long-lived process
    why: str
    stream: object  # (seed, checkout root) -> endless iterator of jobs or tasks


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _gauss_source(rng: random.Random) -> dict:
    """(rho, sigma_x, sigma_s) with 0.1 <= |rho| <= 0.95.

    |rho| stays away from 0, where the printed case-2 formula divides by
    Cov(X, S) = 0, and from 1, where the CLI refuses the source with exit 2.
    """
    rho = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.95)
    return {
        "rho": round(rho, 6),
        "sigma_x": round(math.exp(rng.uniform(math.log(0.5), math.log(2.0))), 6),
        "sigma_s": round(math.exp(rng.uniform(math.log(0.5), math.log(2.0))), 6),
    }


# ---------------------------------------------------------------------------
# gauss-cli
# ---------------------------------------------------------------------------


def gauss_cli_jobs(seed: int, root: Path):
    """Subcommands in a fixed rotation, so any prefix of the stream is balanced."""
    rng = _rng("gauss-cli", seed)
    for i in itertools.count():
        kind = GAUSS_KINDS[i % len(GAUSS_KINDS)]
        p = _gauss_source(rng)
        common = [
            "--rho", repr(p["rho"]),
            "--sigma-x", repr(p["sigma_x"]),
            "--sigma-s", repr(p["sigma_s"]),
        ]
        if kind == "gauss-curves":
            out = f"{JOB_DIR}/curves.csv"
            yield CliJob(kind, [kind, *common, "--out", out], [out])
        elif kind == "discrepancy-report":
            out = f"{JOB_DIR}/report.json"
            yield CliJob(
                kind, [kind, *common, "--out", out], [out],
                expect={"cells": DISCREPANCY_GRID * DISCREPANCY_GRID},
            )
        else:
            out = f"{JOB_DIR}/bounds.json"
            args = [
                kind, *common, "--instances", str(BOUNDS_INSTANCES),
                "--seed", str(rng.randrange(2**31)), "--out", out,
            ]
            yield CliJob(kind, args, [out], expect={"instances": BOUNDS_INSTANCES})


# ---------------------------------------------------------------------------
# region-enum
# ---------------------------------------------------------------------------


def mmse_atoms(x_values, pmf, encoder) -> list[float]:
    """E[X | Z = z] for each reachable z (the MMSE reconstruction atoms)."""
    p_x = [sum(row) for row in pmf]
    atoms = []
    for z in range(len(encoder[0])):
        w = [p_x[i] * encoder[i][z] for i in range(len(x_values))]
        if sum(w) > 0.0:
            atoms.append(sum(wi * x for wi, x in zip(w, x_values)) / sum(w))
    return atoms


def decoder_count(source: dict, levels: int) -> int:
    """Decoders the program enumerates: C(levels+m-1, m-1)^n_z.

    m is the reconstruction alphabet size, the MMSE atoms joined with the
    source alphabet.  The generator keeps atoms well apart from each other
    and from the source alphabet, so the count does not hinge on rounding.
    """
    atoms = mmse_atoms(source["x_values"], source["pmf"], source["encoder"])
    m = len(set(atoms) | set(source["x_values"]))
    n_z = len(source["encoder"][0])
    return math.comb(levels + m - 1, m - 1) ** n_z


def _composition(rng: random.Random, total: int, parts: int, least: int) -> list[int]:
    """Random positive integers >= least summing to total."""
    free = total - parts * least
    cuts = sorted(rng.randint(0, free) for _ in range(parts - 1))
    bounds = [0, *cuts, free]
    return [least + bounds[i + 1] - bounds[i] for i in range(parts)]


def random_discrete_source(rng: random.Random) -> dict:
    """|X| = 2, |S| = 2, |Z| = 2 source; all masses are multiples of 1/64.

    Dyadic masses keep every pmf and encoder row summing to 1 exactly.
    Every p(x, s) >= 2/64 and every encoder entry lies in [4/64, 60/64] with
    the two rows at least 8/64 apart, so both MMSE atoms fall strictly inside
    (x_0, x_1) and apart from each other: the alphabet has 4 atoms.
    """
    x0 = rng.randint(-32, 0) / 16
    x1 = x0 + rng.randint(8, 48) / 16
    cells = _composition(rng, 64, 4, 2)
    pmf = [[cells[0] / 64, cells[1] / 64], [cells[2] / 64, cells[3] / 64]]
    while True:
        a, b = rng.randint(4, 60), rng.randint(4, 60)
        if abs(a - b) >= 8:
            break
    encoder = [[a / 64, 1 - a / 64], [b / 64, 1 - b / 64]]
    return {"x_values": [x0, x1], "s_size": 2, "pmf": pmf, "encoder": encoder}


def _source_var_x(source: dict) -> float:
    p_x = [sum(row) for row in source["pmf"]]
    mean = sum(p * x for p, x in zip(p_x, source["x_values"]))
    return sum(p * (x - mean) ** 2 for p, x in zip(p_x, source["x_values"]))


def region_enum_jobs(seed: int, root: Path):
    """One bundled-source job then three random-source jobs, repeating.

    Random-source jobs also draw ``--d-budget`` between the MMSE residual
    (the least distortion any decoder reaches, so c_min stays feasible) and
    var(X), the CLI default the bundled-source job keeps.
    """
    rng = _rng("region-enum", seed)
    bundled = json.loads((root / BUNDLED_SOURCE).read_text())
    out = f"{JOB_DIR}/region"
    outputs = [f"{out}.csv", f"{out}.json"]
    for i in itertools.count():
        if i % 4 == 0:
            source, path, files, extra = bundled, BUNDLED_SOURCE, {}, []
        else:
            source = random_discrete_source(rng)
            path = f"{JOB_DIR}/source.json"
            files = {path: json.dumps(source)}
            residual = _mmse_residual(source)
            budget = residual + rng.uniform(0.3, 1.0) * (_source_var_x(source) - residual)
            extra = ["--d-budget", repr(budget)]
        decoders = decoder_count(source, REGION_LEVELS)
        if not DECODERS_MIN <= decoders <= DECODERS_MAX:
            raise ValueError(f"region job outside the decoder band: {decoders}")
        args = [
            "discrete-region", "--source", path,
            "--levels", str(REGION_LEVELS), *extra, "--out", out,
        ]
        yield CliJob(
            "discrete-region", args, outputs, files,
            expect={"decoders": decoders, "levels": REGION_LEVELS},
        )


def _mmse_residual(source: dict) -> float:
    """E[(X - E[X|Z])^2]: the least distortion any decoder reaches."""
    xs, enc = source["x_values"], source["encoder"]
    p_x = [sum(row) for row in source["pmf"]]
    total = 0.0
    for z, atom in enumerate(mmse_atoms(xs, source["pmf"], enc)):
        total += sum(p_x[i] * enc[i][z] * (xs[i] - atom) ** 2 for i in range(len(xs)))
    return total


# ---------------------------------------------------------------------------
# library-oracles
# ---------------------------------------------------------------------------


def _gauss_constants(p: dict) -> tuple[float, float, float]:
    """(var_x, h(S), c_min) of a generated Gaussian source."""
    var_x = p["sigma_x"] ** 2
    h_s = 0.5 * (LOG_2PI_E + math.log(p["sigma_s"] ** 2))
    return var_x, h_s, 0.5 * math.log1p(-p["rho"] ** 2) + h_s


def _atoms(rng: random.Random, n: int) -> tuple[list[float], list[float]]:
    start = rng.uniform(-3.0, 0.0)
    support = list(itertools.accumulate(rng.uniform(0.01, 0.5) for _ in range(n)))
    weights = [rng.gammavariate(1.0, 1.0) + 1e-3 for _ in range(n)]
    total = sum(weights)
    return [start + s for s in support], [w / total for w in weights]


def _oracle_params(kind: str, rng: random.Random) -> dict:
    p = _gauss_source(rng)
    var_x, h_s, c_min = _gauss_constants(p)
    if kind == "grid_oracle_rate":
        # Budgets inside the feasible region: c above c_min, d above 0.
        p["d"] = var_x * rng.uniform(0.3, 1.2)
        p["c"] = c_min + rng.uniform(0.05, 1.0) * (h_s + 0.3 - c_min)
    elif kind == "w2_pair":
        p["x_support"], p["x_probs"] = _atoms(rng, W2_ATOMS)
        p["y_support"], p["y_probs"] = _atoms(rng, W2_ATOMS)
    elif kind == "monte_carlo":
        p["rate"] = rng.uniform(0.05, 1.5)
        p["gain_scale"] = rng.uniform(0.2, 1.5)
        p["n"] = MC_SAMPLES
        p["mc_seed"] = rng.randrange(2**32)
    elif kind == "theorem5_harness":
        p["harness_seed"] = rng.randrange(2**31)
        p["n"] = HARNESS_INSTANCES
    elif kind == "rate_penalty":
        # c strictly above c_min and d > 0 give every pair a finite rate.
        p["pairs"] = [
            [var_x * rng.uniform(0.2, 1.0), c_min + rng.uniform(0.05, 1.0) * (h_s - c_min)]
            for _ in range(rng.randint(2, 5))
        ]
    elif kind == "discretize_gaussian":
        p["mu"] = rng.uniform(-2.0, 2.0)
        p["var"] = rng.uniform(0.1, 4.0)
        p["n"] = DISCRETIZE_ATOMS
    return p


def library_oracle_tasks(seed: int, root: Path):
    """Task kinds in a fixed rotation; fresh parameters for every task."""
    rng = _rng("library-oracles", seed)
    for i in itertools.count():
        kind = ORACLE_KINDS[i % len(ORACLE_KINDS)]
        yield {"kind": kind, "params": _oracle_params(kind, rng)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gauss-cli",
            "process",
            "fresh-process Gaussian CLI runs; start-up is ~90% of each job, so "
            "import-layer changes show and kernel changes should not",
            gauss_cli_jobs,
        ),
        Workload(
            "region-enum",
            "process",
            "fresh-process discrete-region runs at 207,025 decoders; enumeration "
            "and the outer-bound scan dominate, so _kernels and discrete_region show",
            region_enum_jobs,
        ),
        Workload(
            "library-oracles",
            "worker",
            "one warm worker runs many small oracle calls; per-call overhead "
            "dominates, import cost is paid once and should not show in job_s",
            library_oracle_tasks,
        ),
    )
}
