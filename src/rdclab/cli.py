"""Command-line front end: curve emission, discrepancy report, region runs.

Subcommands
  gauss-curves        printed/oracle tradeoff curves per rate plus the
                      universal decoder sweep at the largest rate (CSV).
  discrepancy-report  printed-vs-oracle D(C, R) table over a (C, R) grid
                      (JSON), branch-by-branch agreement counts included.
  discrete-region     frontier, extreme points and outer-bound verdicts for a
                      finite-alphabet source (CSV + JSON).
  bounds              corner-bound harness instances (JSON).

Outputs are deterministic given the flags (and seed): reruns are
byte-identical.  CSV columns are ``curve_id,model,rate_nats,c_nats,d,branch``
with '.' decimals, 17 significant digits, and the literals ``inf``/``-inf``
for infinities.  Exit codes: 0 success, 2 infeasible configuration or size
guard, 3 flag/schema error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import Frozen, InfeasibleBudgetError, ParameterError, RdcError, SizeGuardError
from .errors import check_scale

# Each subcommand imports the modules it runs: discrete-region loads no Gaussian
# module, and the Gaussian subcommands load no numpy.

CURVE_HEADER = "curve_id,model,rate_nats,c_nats,d,branch"

MODEL_VOCAB = ("printed", "oracle", "universal", "discrete")
BRANCH_VOCAB = (
    "case1",
    "case2",
    "case3",
    "sweep",
    "frontier",
    "extreme_a",
    "extreme_b",
    "infeasible",
)


class CurveRecord(Frozen):
    def __init__(
        self, curve_id: str, model: str, rate_nats: float, c_nats: float, d: float, branch: str
    ):
        if model not in MODEL_VOCAB:
            raise ParameterError(f"unknown model {model!r}")
        if branch not in BRANCH_VOCAB:
            raise ParameterError(f"unknown branch {branch!r}")
        self.__dict__.update(
            curve_id=curve_id, model=model, rate_nats=rate_nats, c_nats=c_nats, d=d, branch=branch
        )


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(float(value), ".17g")


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_curve_csv(path: str | Path, records: list[CurveRecord]) -> None:
    lines = [CURVE_HEADER]
    for r in records:
        lines.append(
            f"{r.curve_id},{r.model},{_fmt(r.rate_nats)},{_fmt(r.c_nats)},"
            f"{_fmt(r.d)},{r.branch}"
        )
    _write_text(path, "\n".join(lines) + "\n")


def read_curve_csv(path: str | Path) -> list[CurveRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        raise ParameterError(f"bad curve CSV header in {path}")
    records = []
    for line in lines[1:]:
        curve_id, model, rate, c, d, branch = line.split(",")
        records.append(
            CurveRecord(curve_id, model, float(rate), float(c), float(d), branch)
        )
    return records


def _encode(obj, out: list[str], pad: str) -> None:
    """Append obj's text at the indent that ``pad`` ends with, as ``json.dumps(obj,
    indent=2, sort_keys=True)`` writes it, except that non-finite floats become the
    strings "inf", "-inf" and "nan" and numpy values their ``tolist()``.  Keys are
    strings.  With ``indent`` that call runs CPython's pure-Python encoder."""
    if isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else
                   '"nan"' if obj != obj else '"inf"' if obj > 0 else '"-inf"')
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict) and obj:
        inner, sep = pad + "  ", "{"
        for key in sorted(obj):
            out.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _encode(obj[key], out, inner)
            sep = ","
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner, sep = pad + "  ", "["
        for value in obj:
            out.append(sep + inner)
            _encode(value, out, inner)
            sep = ","
        out.append(pad + "]")
    elif isinstance(obj, (dict, list, tuple)):
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif hasattr(obj, "tolist"):
        _encode(obj.tolist(), out, pad)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: str | Path, obj) -> None:
    out: list[str] = []
    _encode(obj, out, "\n")
    _write_text(path, "".join(out) + "\n")


def bundled_source_path(name: str = "flip01_source") -> Path:
    """Filesystem path of a data file shipped with the package."""
    from importlib import resources

    return Path(resources.files("rdclab").joinpath(f"data/{name}.json"))


def _number_array(payload: dict, key: str, rank: int) -> list:
    """payload[key], checked to be lists nested ``rank`` deep around JSON numbers
    (a boolean is not one); the constructors check the rest."""

    def numbers(value, depth: int) -> bool:
        if depth == 0:
            return type(value) in (int, float)
        return isinstance(value, list) and all(numbers(v, depth - 1) for v in value)

    if not numbers(payload[key], rank):
        raise ParameterError(f"source file: {key} must be a rank-{rank} array of numbers")
    return payload[key]


def load_discrete_source(path: str | Path):
    """Read the discrete-source JSON schema; returns (source, encoder).

    Schema: {"x_values": [...], "s_size": k, "pmf": [[...]], "encoder": [[...]]}
    of numbers, with pmf rows indexed by x and columns by s.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read source file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParameterError(f"source file {path} must hold a JSON object")
    required = {"x_values", "s_size", "pmf", "encoder"}
    missing = required - set(payload)
    if missing:
        raise ParameterError(f"source file missing keys: {sorted(missing)}")
    from . import discrete_region

    src = discrete_region.DiscreteSource(
        x_values=_number_array(payload, "x_values", 1),
        s_size=payload["s_size"],
        pmf=_number_array(payload, "pmf", 2),
    )
    matrix = _number_array(payload, "encoder", 2)
    try:  # the constructor's messages say "channel matrix"; name the field
        encoder = discrete_region.Channel(matrix)
    except ParameterError as exc:
        raise ParameterError(f"source file: encoder: {exc}") from None
    if encoder.n_in != src.x_values.size:
        raise ParameterError("encoder row count must match x_values length")
    return src, encoder


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num).tolist()`` bit for bit, for num >= 2."""
    div, delta = num - 1, stop - start
    step = delta / div
    if step == 0.0:  # numpy's order when the step underflows (a subnormal delta)
        return [start + (k / div) * delta for k in range(div)] + [stop]
    return [start + k * step for k in range(div)] + [stop]


def _gaussian_source(args):
    """The (X, S) ``GaussianPairSource`` of the Gaussian subcommands, checked
    before any other flag."""
    from .gaussian_model import GaussianPairSource

    if abs(args.rho) >= 1.0:
        raise InfeasibleBudgetError(f"|rho| = {abs(args.rho)} >= 1 is not a correlation")
    if args.sigma_x <= 0.0 or args.sigma_s <= 0.0:
        raise ParameterError("--sigma-x and --sigma-s must be positive")
    check_scale("--sigma-x squared", args.sigma_x * args.sigma_x)  # before ** can overflow
    check_scale("--sigma-s squared", args.sigma_s * args.sigma_s)
    return GaussianPairSource(
        mu_x=0.0,
        var_x=args.sigma_x**2,
        mu_s=0.0,
        var_s=args.sigma_s**2,
        cov_xs=args.rho * args.sigma_x * args.sigma_s,
    )


def cmd_gauss_curves(args) -> int:
    from . import gaussian_tradeoff, universal_gaussian

    src = _gaussian_source(args)
    rates = args.rates
    if not rates or any(r < 0.0 for r in rates):
        raise ParameterError("--rates must be a comma list of nonnegative numbers")
    if args.points < 2:
        raise ParameterError("--points must be >= 2")
    records: list[CurveRecord] = []

    for rate in rates:
        for pt in gaussian_tradeoff.boundary_curve(src, rate, args.points):
            records.append(
                CurveRecord(
                    f"printed_R{rate:g}", "printed", rate, pt.closs, pt.distortion,
                    "case2",
                )
            )
    for rate in rates:
        thr = gaussian_tradeoff.c_threshold(src, rate)
        for c in sorted(set(_linspace(thr, src.h_s, args.points))):
            verdict = gaussian_tradeoff.dcr_distortion_oracle(src, c, rate)
            records.append(
                CurveRecord(
                    f"oracle_R{rate:g}", "oracle", rate, c,
                    verdict.value if verdict.status == "feasible" else math.inf,
                    verdict.branch,
                )
            )
    r_star = max(rates)
    rep = universal_gaussian.encoder_for_rate(src, r_star)
    gammas = sorted(
        {*_linspace(0.0, 2.5 * args.sigma_x, args.points), universal_gaussian.mmse_gain(rep)}
    )
    for d, c in universal_gaussian.region_sweep(src, rep, gammas):
        records.append(
            CurveRecord(f"universal_R{r_star:g}", "universal", r_star, c, d, "sweep")
        )

    write_curve_csv(args.out, records)
    print(
        f"wrote {len(records)} records to {args.out}; "
        f"max useful rate = {gaussian_tradeoff.max_useful_rate(src):.6f} nats"
    )
    return 0


def cmd_discrepancy_report(args) -> int:
    from . import gaussian_tradeoff

    src = _gaussian_source(args)
    if args.grid_c < 2 or args.grid_r < 2:
        raise ParameterError("--grid-c and --grid-r must be >= 2")
    cmin = gaussian_tradeoff.c_min(src)
    span = max(src.h_s - cmin, 0.25)
    c_grid = _linspace(cmin - 0.1 * span, src.h_s + 0.1 * span, args.grid_c)
    r_grid = _linspace(0.02, 0.5, args.grid_r)
    cells = []
    summary: dict[str, dict[str, int]] = {}
    for r in r_grid:
        for c in c_grid:
            printed = gaussian_tradeoff.dcr_distortion_printed(src, c, r)
            oracle = gaussian_tradeoff.dcr_distortion_oracle(src, c, r)
            if printed.status == "feasible" and oracle.status == "feasible":
                agree = abs(printed.value - oracle.value) <= 1e-9
            else:
                agree = printed.status == oracle.status
            branch = printed.branch
            bucket = summary.setdefault(branch, {"cells": 0, "agree": 0})
            bucket["cells"] += 1
            bucket["agree"] += int(agree)
            cells.append(
                {
                    "c": c,
                    "r": r,
                    "printed": printed.value
                    if printed.status == "feasible"
                    else printed.status,
                    "oracle": oracle.value
                    if oracle.status == "feasible"
                    else oracle.status,
                    "printed_branch": branch,
                    "agree": bool(agree),
                }
            )
    report = {
        "source": {"rho": args.rho, "sigma_x": args.sigma_x, "sigma_s": args.sigma_s},
        "c_grid": c_grid,
        "r_grid": r_grid,
        "cells": cells,
        "summary": summary,
        "total_cells": len(cells),
    }
    write_json(args.out, report)
    print(f"wrote discrepancy report ({len(cells)} cells) to {args.out}")
    return 0


def cmd_discrete_region(args) -> int:
    # The job makes no BLAS call, so the thread pool that ``import numpy`` starts
    # would cost start-up CPU and save nothing.  A caller's thread setting stands.
    blas_threads = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
    if "numpy" not in sys.modules and not blas_threads & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from . import discrete_region

    src, encoder = load_discrete_source(args.source)
    levels = args.levels
    d_budget = args.d_budget if args.d_budget is not None else src.var_x()

    frontier, ext_a, sol, (violations, min_slack, checked), rate = (
        discrete_region.region_report(src, encoder, d_budget, levels)
    )

    records = [
        CurveRecord("frontier", "discrete", rate, c, d, "frontier")
        for d, c in frontier
    ]
    records.append(
        CurveRecord("extreme_a", "discrete", rate, ext_a[1], ext_a[0], "extreme_a")
    )
    records.append(
        CurveRecord("extreme_b", "discrete", rate, sol.c_min, sol.d_b, "extreme_b")
    )
    write_curve_csv(f"{args.out}.csv", records)

    verdict = {
        "encoder_rate_nats": rate,
        "levels": levels,
        "d_budget": d_budget,
        "frontier_size": len(frontier),
        "extreme_a": {"d": ext_a[0], "c": ext_a[1]},
        "extreme_b": {"d": sol.d_b, "c": sol.c_min},
        "c_min": sol.c_min,
        "p_xhat_at_c_min": {
            "support": sol.p_xhat.support,
            "probs": sol.p_xhat.probs,
        },
        "outer_bound": {
            "decoders_checked": checked,
            "violations": violations,
            "min_slack": min_slack,
        },
    }
    write_json(f"{args.out}.json", verdict)
    print(
        f"wrote {len(records)} curve records to {args.out}.csv and the verdict "
        f"to {args.out}.json ({violations} outer-bound violations in {checked})"
    )
    return 0


def cmd_bounds(args) -> int:
    from . import bounds_eval

    src = _gaussian_source(args)
    if args.rate is not None and args.instances != 1:
        raise ParameterError("use either --rate or --instances, not both")
    records = bounds_eval.theorem5_gaussian_harness(
        src, rate=args.rate, seed=args.seed, n=args.instances
    )
    payload = {
        "n": len(records),
        "seed": args.seed,
        "all_sandwich": all(r.sandwich_holds for r in records),
        "all_gap": all(r.gap_holds for r in records),
        "all_ratio": all(r.ratio_holds for r in records),
        "instances": [
            {
                "rate": r.rate,
                "d1": r.instance.d1,
                "d3": r.instance.d3,
                "c3": r.c3,
                "d_b": r.instance.d_b,
                "sigma_xhat3": r.instance.sigma_xhat3,
                "gap_lower_bound": r.gap_lb,
                "ratio_lower_bound": r.ratio_lb,
                "gap_holds": r.gap_holds,
                "ratio_holds": r.ratio_holds,
                "sandwich_holds": r.sandwich_holds,
                "upper_left_gap_bound": r.gap_ub,
                "upper_left_ratio_bound": r.ratio_ub,
                "degenerate": r.degenerate,
            }
            for r in records
        ],
    }
    write_json(args.out, payload)
    print(f"wrote {len(records)} bound instances to {args.out}")
    return 0


class _UsageError(Exception):
    pass


def _number(text: str) -> float:
    """A float flag value; NaN is refused, infinities keep their meaning."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    return value


def _numbers(text: str) -> list[float]:
    """A comma list of float flag values; empty tokens are skipped."""
    return [_number(tok) for tok in text.split(",") if tok.strip() != ""]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3 on flag errors, not argparse's default 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rdclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gauss-curves", help="emit Gaussian tradeoff curves as CSV")
    p.add_argument("--rho", type=_number, default=0.7)
    p.add_argument("--sigma-x", type=_number, default=1.0)
    p.add_argument("--sigma-s", type=_number, default=1.0)
    p.add_argument("--rates", type=_numbers, default="0.05,0.1,0.15,0.2,0.34")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_gauss_curves)

    p = sub.add_parser(
        "discrepancy-report", help="tabulate printed vs oracle D(C, R) as JSON"
    )
    p.add_argument("--grid-c", type=int, default=50)
    p.add_argument("--grid-r", type=int, default=50)
    p.add_argument("--rho", type=_number, default=0.7)
    p.add_argument("--sigma-x", type=_number, default=1.0)
    p.add_argument("--sigma-s", type=_number, default=1.0)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_discrepancy_report)

    p = sub.add_parser(
        "discrete-region", help="finite-alphabet frontier and verdicts (CSV + JSON)"
    )
    p.add_argument("--source", type=str, required=True)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--d-budget", type=_number, default=None)
    p.add_argument("--out", type=str, required=True, help="output path prefix")
    p.set_defaults(func=cmd_discrete_region)

    p = sub.add_parser("bounds", help="corner-bound harness instances (JSON)")
    p.add_argument("--rho", type=_number, default=0.7)
    p.add_argument("--sigma-x", type=_number, default=1.0)
    p.add_argument("--sigma-s", type=_number, default=1.0)
    p.add_argument("--rate", type=_number, default=None)
    p.add_argument("--instances", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except (SizeGuardError, InfeasibleBudgetError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, RdcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
