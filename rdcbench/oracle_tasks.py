"""Library-oracle tasks: each takes the JSON parameters the generator made and
returns the program's outputs as JSON-ready numbers.

Imported by the long-lived worker (``oracle_worker.py``) and by the traced
run, so both execute exactly the same calls.  Checks live in ``checks.py``.
"""

from __future__ import annotations

from rdclab import (
    bounds_eval,
    discrete_region,
    gaussian_model,
    gaussian_tradeoff,
    universal_gaussian,
    validation_oracles,
)


def _source(p: dict) -> gaussian_model.GaussianPairSource:
    sx, ss = p["sigma_x"], p["sigma_s"]
    return gaussian_model.GaussianPairSource(0.0, sx * sx, 0.0, ss * ss, p["rho"] * sx * ss)


def _verdict(v) -> dict:
    return {"status": v.status, "value": v.value}


def grid_oracle_rate(p: dict) -> dict:
    src = _source(p)
    grid = gaussian_tradeoff.grid_oracle_rate(src, p["d"], p["c"], 400, 400)
    exact = gaussian_tradeoff.rdc_rate(src, p["d"], p["c"])
    return {"grid": _verdict(grid), "exact": _verdict(exact)}


def w2_pair(p: dict) -> dict:
    a = discrete_region.DiscreteDistribution(p["x_support"], p["x_probs"])
    b = discrete_region.DiscreteDistribution(p["y_support"], p["y_probs"])
    return {
        "lp": discrete_region.w2_squared_lp(a, b),
        "quantile": discrete_region.w2_squared_quantile(a, b),
    }


def monte_carlo(p: dict) -> dict:
    src = _source(p)
    rep = universal_gaussian.encoder_for_rate(src, p["rate"])
    gamma = p["gain_scale"] * universal_gaussian.mmse_gain(rep)
    rec = universal_gaussian.linear_decoder_stats(
        src, rep, universal_gaussian.LinearDecoder(gamma)
    )
    batch = validation_oracles.sample_joint(src, rec, p["n"], p["mc_seed"])
    est = validation_oracles.plugin_estimates(batch)
    return {
        "estimates": est,
        "closed": {
            "mse": gaussian_model.mse_of_reconstruction(src, rec),
            "i_xxhat": gaussian_model.mutual_info_x_xhat(src, rec),
            "h_s_given_xhat": gaussian_model.cond_entropy_s_given_xhat(src, rec),
        },
    }


def theorem5_harness(p: dict) -> dict:
    records = bounds_eval.theorem5_gaussian_harness(
        _source(p), seed=p["harness_seed"], n=p["n"]
    )
    return {
        "n": len(records),
        "rates": [r.rate for r in records],
        "d_b": [r.instance.d_b for r in records],
        "gap_lb": [r.gap_lb for r in records],
        "ratio_lb": [r.ratio_lb for r in records],
        "sandwich_holds": [r.sandwich_holds for r in records],
    }


def rate_penalty(p: dict) -> dict:
    pairs = tuple((d, c) for d, c in p["pairs"])
    theta = gaussian_tradeoff.ConstraintSet(pairs)
    return {"penalty": universal_gaussian.rate_penalty(_source(p), theta)}


def discretize_gaussian(p: dict) -> dict:
    dist = discrete_region.discretize_gaussian(p["mu"], p["var"], p["n"])
    return {"atoms": int(dist.support.size), "mean": dist.mean(), "var": dist.variance()}


TASKS = {
    "grid_oracle_rate": grid_oracle_rate,
    "w2_pair": w2_pair,
    "monte_carlo": monte_carlo,
    "theorem5_harness": theorem5_harness,
    "rate_penalty": rate_penalty,
    "discretize_gaussian": discretize_gaussian,
}


def run(task: dict) -> dict:
    """Execute one generated task and return its outputs."""
    return TASKS[task["kind"]](task["params"])
