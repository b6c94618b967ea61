"""Output checks that any correct rdclab must pass.

They test properties, not today's bytes: exit codes, parseable outputs, no
``nan`` after exit 0, the outer bound, decoder counts, and the oracles
agreeing with the closed forms.  Printed-vs-oracle ``agree: false`` cells of
``discrepancy-report`` are the documented discrepancy, not a failure.  Every
check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

CURVE_HEADER = "curve_id,model,rate_nats,c_nats,d,branch"
EXIT_CODES = {0, 2, 3}
NAN_TOKEN = re.compile(rb"\bnan\b", re.IGNORECASE)
W2_AGREEMENT = 1e-9
MC_STANDARD_ERRORS = 5.0
GRID_SLACK = 1e-9  # the grid searches a subset, so it may not beat the optimum
DISCRETIZE_VAR_REL = 2e-3


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _curve_csv(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        return ["bad CSV header"]
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 6:
            return [f"CSV row has {len(fields)} fields"]
        try:
            [float(v) for v in fields[2:5]]
        except ValueError:
            return [f"CSV row not numeric: {line}"]
    return []


def _json_problems(kind: str, doc: dict, expect: dict) -> list[str]:
    if kind == "discrepancy-report":
        if doc["total_cells"] != expect["cells"] or len(doc["cells"]) != expect["cells"]:
            return [f"discrepancy report has {doc['total_cells']} cells"]
    elif kind == "bounds":
        if doc["n"] != expect["instances"] or len(doc["instances"]) != expect["instances"]:
            return [f"bounds wrote {doc['n']} instances"]
    elif kind == "discrete-region":
        outer = doc["outer_bound"]
        problems = []
        if outer["violations"] != 0:
            problems.append(f"{outer['violations']} outer-bound violations")
        if outer["decoders_checked"] != expect["decoders"]:
            problems.append(
                f"decoders_checked {outer['decoders_checked']} != {expect['decoders']}"
            )
        if doc["levels"] != expect["levels"]:
            problems.append(f"levels {doc['levels']} != {expect['levels']}")
        return problems
    return []


def check_cli_job(job, exit_code: int, root: Path) -> tuple[list[str], dict]:
    """Problems with one finished CLI job, and a SHA-256 of each output."""
    if exit_code not in EXIT_CODES:
        return [f"exit code {exit_code} outside {sorted(EXIT_CODES)}"], {}
    if exit_code != job.expect_exit:
        return [f"exit code {exit_code}, expected {job.expect_exit}"], {}
    if exit_code != 0:
        return [], {}
    problems: list[str] = []
    digests = {}
    for rel in job.outputs:
        path = root / rel
        if not path.is_file():
            problems.append(f"missing output {rel}")
            continue
        data = path.read_bytes()
        digests[rel] = digest(data)
        if NAN_TOKEN.search(data):
            problems.append(f"nan token in {rel}")
        text = data.decode()
        if rel.endswith(".csv"):
            problems += _curve_csv(text)
        elif rel.endswith(".json"):
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                problems.append(f"{rel} is not JSON: {exc}")
                continue
            problems += _json_problems(job.kind, doc, job.expect)
    return problems, digests


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_task(task: dict, out: dict) -> list[str]:
    """Problems with one library-oracle task's outputs."""
    kind, p = task["kind"], task["params"]
    if kind == "grid_oracle_rate":
        grid, exact = out["grid"], out["exact"]
        if exact["status"] != "feasible":
            return [f"closed form says {exact['status']} for a feasible pair"]
        if grid["status"] == "feasible" and not grid["value"] >= exact["value"] - GRID_SLACK:
            return [f"grid rate {grid['value']} beats the optimum {exact['value']}"]
    elif kind == "w2_pair":
        if not abs(out["lp"] - out["quantile"]) <= W2_AGREEMENT:
            return [f"W2 LP {out['lp']} vs quantile {out['quantile']}"]
    elif kind == "monte_carlo":
        est, closed = out["estimates"], out["closed"]
        if est["degenerate"]:
            return ["plug-in estimate degenerate"]
        problems = []
        for hat, ref, se in (
            ("mse_hat", "mse", "se_mse"),
            ("i_xxhat_hat", "i_xxhat", "se_i"),
            ("h_s_given_xhat_hat", "h_s_given_xhat", "se_h"),
        ):
            if not abs(est[hat] - closed[ref]) <= MC_STANDARD_ERRORS * est[se]:
                problems.append(f"{hat} {est[hat]} vs closed form {closed[ref]}")
        return problems
    elif kind == "theorem5_harness":
        if out["n"] != p["n"]:
            return [f"harness returned {out['n']} of {p['n']} instances"]
        if not all(out["sandwich_holds"]):
            return ["sandwich D_b <= D3 <= D1 fails"]
        if not _finite(*out["rates"], *out["d_b"], *out["gap_lb"], *out["ratio_lb"]):
            return ["non-finite harness value"]
    elif kind == "rate_penalty":
        if not (_finite(out["penalty"]) and out["penalty"] >= -1e-9):
            return [f"rate penalty {out['penalty']}"]
    elif kind == "discretize_gaussian":
        sd = math.sqrt(p["var"])
        if out["atoms"] != p["n"]:
            return [f"{out['atoms']} atoms, expected {p['n']}"]
        if not abs(out["mean"] - p["mu"]) <= 1e-9 * (1.0 + abs(p["mu"]) + sd):
            return [f"discretised mean {out['mean']} vs {p['mu']}"]
        if not abs(out["var"] / p["var"] - 1.0) <= DISCRETIZE_VAR_REL:
            return [f"discretised variance {out['var']} vs {p['var']}"]
    return []
