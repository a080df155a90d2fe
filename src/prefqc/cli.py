"""Batch command-line front end.

Subcommands: simulate, fit, infer, filter, estimate-mu, eval. Each takes a
JSON config (--config), plus --seed and --strict overrides. Exit codes:
0 success, 2 validation or input error, 3 numeric failure.

The canonical label orientation has option A preferred on average (mu above
one half). Configs with mu below one half are accepted by flipping every
label at ingestion; the flip is recorded in fit.json so downstream commands
stay consistent.
"""

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np

from . import io as fio
from .em import (
    DegenerateComponentError,
    EmConfig,
    LikelihoodDecreaseError,
    em_fit,
)
from .filtering import (
    TailProbability,
    filter_dataset,
    recovery_accuracy,
    relative_error,
    select_users,
    summarize_posterior,
)
from .model import (
    AnnotationRecord,
    BetaPrior,
    ModelParams,
    TwoPointPrior,
    histories_from_records,
)
from .numerics import QuadratureGrid, SolverError
from .simulate import (
    ERROR_SWEEP_CELLS,
    SimulationScenario,
    estimate_mu,
    prior_quantile,
    scenario_preset,
    simulate_dataset,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

WORKERS_ENV = "PREFQC_WORKERS"

_NUMERIC_ERRORS = (
    SolverError,
    DegenerateComponentError,
    LikelihoodDecreaseError,
    FloatingPointError,
)


class ConfigError(ValueError):
    pass


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _out_dir(cfg: dict) -> Path:
    out = Path(_require(cfg, "out_dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_scenario(cfg: dict, seed_override: int | None):
    if ("preset" in cfg) == ("scenario" in cfg):
        raise ConfigError("give exactly one of 'preset' or 'scenario'")
    if "preset" in cfg:
        scenario = scenario_preset(cfg["preset"])
    else:
        scenario = fio.decode_scenario(cfg["scenario"])
    if seed_override is not None:
        scenario = dataclasses.replace(scenario, seed=seed_override)
    return scenario


def _flip_records(records):
    return [
        AnnotationRecord(r.user_id, r.item_id, 1 - r.label) for r in records
    ]


def _cmd_simulate(cfg: dict, args) -> None:
    scenario = _resolve_scenario(cfg, args.seed)
    out = _out_dir(cfg)
    records, truth = simulate_dataset(scenario)
    fio.write_annotations(out / "annotations.jsonl", records)
    fio.write_truth(out / "truth.csv", truth)
    fio.write_json(out / "scenario.json", fio.encode_scenario(scenario))
    print(
        f"simulate: {len(records)} annotations from {scenario.num_users} users "
        f"(seed {scenario.seed}) -> {out}"
    )


def _em_config(cfg: dict) -> EmConfig:
    """EmConfig from fit config keys; fit and eval both build theirs here."""
    init = cfg.get("init")
    return EmConfig(
        family=cfg.get("family"),
        mu=cfg.get("mu"),
        mu_mode=cfg.get("mu_mode", "fixed"),
        init=None if init is None else fio.decode_params(init),
        max_iters=cfg.get("max_iters", 500),
        tol_param=cfg.get("tol_param", 1e-6),
        tol_loglik=cfg.get("tol_loglik", 1e-9),
        regularizer=fio.decode_regularizer(cfg.get("regularizer")),
    )


def _fit_once(cfg: dict, strict: bool):
    """fit's core: load annotations, run EM, return (report, labels_flipped)."""
    mu = cfg.get("mu")
    labels_flipped = False
    if mu is not None:
        if mu == 0.5:
            raise ConfigError("mu = 1/2 makes every eta indistinguishable")
        if not 0.0 < mu < 1.0:
            raise ConfigError("mu must lie strictly inside (0, 1)")
        if mu < 0.5:
            labels_flipped = True
            mu = 1.0 - mu
    records = fio.read_annotations(_require(cfg, "annotations"))
    if labels_flipped:
        records = _flip_records(records)
    histories = histories_from_records(records)
    if not histories:
        raise ConfigError("annotations file holds no records")
    report = em_fit(histories, _em_config({**cfg, "mu": mu}), strict=strict)
    return report, labels_flipped


def _truth_params_from_scenario(path, mu_mode: str) -> ModelParams:
    scenario = fio.decode_scenario(fio.read_json(path))
    if not isinstance(scenario.prior, (TwoPointPrior, BetaPrior)):
        raise ConfigError(
            "truth_scenario prior is outside the fitted families; no delta defined"
        )
    return ModelParams(prior=scenario.prior, mu=scenario.mu, mu_mode=mu_mode)


def _cmd_fit(cfg: dict, args) -> None:
    out = _out_dir(cfg)
    report, labels_flipped = _fit_once(cfg, args.strict)
    delta = None
    if cfg.get("truth_scenario"):
        truth = _truth_params_from_scenario(
            cfg["truth_scenario"], report.final_params.mu_mode
        )
        delta = relative_error(report.final_params, truth)
    fio.write_fit(
        out / "fit.json", report, labels_flipped=labels_flipped, delta=delta
    )
    fio.write_trajectory(out / "trajectory.csv", report)
    if report.stop_reason == "max_iters":
        print(
            f"warning: EM stopped at the {report.iterations}-iteration cap "
            "without converging",
            file=sys.stderr,
        )
    tail = "" if delta is None else f", delta {delta:.4f}"
    print(
        f"fit: {report.stop_reason} after {report.iterations} iterations, "
        f"loglik {report.final_loglik:.6f}{tail} -> {out}"
    )


def _default_eta_stars(cfg: dict, rule) -> list[float]:
    stars = cfg.get("eta_stars")
    if stars:
        return [float(s) for s in stars]
    if isinstance(rule, TailProbability):
        return [rule.eta_star]
    return [0.5]


def _cmd_infer(cfg: dict, args) -> None:
    out = _out_dir(cfg)
    fit = fio.read_fit(_require(cfg, "fit"))
    params: ModelParams = fit["params"]
    if fit.get("converged") is False:
        print(
            f"warning: {cfg['fit']} holds a fit that did not converge "
            f"(stop_reason {fit.get('stop_reason')})",
            file=sys.stderr,
        )
    records = fio.read_annotations(_require(cfg, "annotations"))
    model_records = (
        _flip_records(records) if fit.get("labels_flipped") else records
    )
    histories = histories_from_records(model_records)
    rule = fio.decode_rule(_require(cfg, "rule"))
    eta_stars = _default_eta_stars(cfg, rule)
    grid = QuadratureGrid.uniform()
    summaries = [
        summarize_posterior(h, params, grid, eta_stars) for h in histories
    ]
    decisions = select_users(summaries, rule)
    filtered = filter_dataset(records, decisions)
    fio.write_posteriors(out / "posteriors.csv", summaries)
    fio.write_decisions(out / "decisions.csv", decisions)
    fio.write_annotations(out / "filtered.jsonl", filtered.records)
    fio.write_pairs(out / "pairs.jsonl", filtered.records)
    print(
        f"infer: kept {filtered.users_kept}/{len(histories)} users, "
        f"{filtered.records_kept}/{len(records)} records -> {out}"
    )


def _cmd_filter(cfg: dict, args) -> None:
    out = _out_dir(cfg)
    records = fio.read_annotations(_require(cfg, "annotations"))
    decisions = fio.read_decisions(_require(cfg, "decisions"))
    filtered = filter_dataset(records, decisions)
    fio.write_annotations(out / "filtered.jsonl", filtered.records)
    fio.write_pairs(out / "pairs.jsonl", filtered.records)
    print(
        f"filter: kept {filtered.users_kept} users, "
        f"{filtered.records_kept}/{len(records)} records -> {out}"
    )


def _cmd_estimate_mu(cfg: dict, args) -> None:
    pairs = fio.read_scored_pairs(_require(cfg, "scores"))
    est = estimate_mu(pairs)
    payload = {
        "mu_hat": est.mu_hat,
        "ci_low": est.ci[0],
        "ci_high": est.ci[1],
        "num_pairs": len(pairs),
    }
    if cfg.get("out"):
        fio.write_json(cfg["out"], payload)
    print(json.dumps(payload, sort_keys=True))


# ------------------------------------------------------------------- eval

def _eval_cells(cfg: dict) -> list[dict]:
    if "cells" in cfg:
        return list(cfg["cells"])
    preset = cfg.get("preset")
    if preset == "table3_grid":
        cells = []
        for family, (m, n) in product(("two_point", "beta"), ERROR_SWEEP_CELLS):
            tag = "twopoint" if family == "two_point" else "beta"
            scenario = scenario_preset(f"table3_{tag}_{m}_{n}")
            cells.append(
                {
                    "cell": f"table3_{tag}_{m}_{n}",
                    "family": family,
                    "scenario": fio.encode_scenario(scenario),
                    "mu_variant": "known",
                    "rule": None,
                }
            )
        return cells
    if preset == "mu_effect":
        cells = []
        prior = BetaPrior(alpha=3.0, beta=5.0)
        median = prior_quantile(prior, 0.5)
        rules = (
            ("ranking", {"type": "top_fraction", "fraction": 0.5}),
            ("threshold", {"type": "threshold", "value": median}),
        )
        for mu, variant, (rule_name, rule) in product(
            (0.6, 0.7, 0.8, 0.9), ("known", "beta_prior"), rules
        ):
            scenario = fio.encode_scenario(
                SimulationScenario(
                    prior=prior, mu=mu, num_users=400, n_range=(50, 100)
                )
            )
            cells.append(
                {
                    "cell": f"mu_{mu:g}_{variant}_{rule_name}",
                    "family": "beta",
                    "scenario": scenario,
                    "mu_variant": variant,
                    "rule": rule,
                }
            )
        return cells
    raise ConfigError("eval config needs 'cells' or preset in {'table3_grid','mu_effect'}")


_FIT_KEYS = ("family", "scenario", "mu_variant")

# eval's "beta_prior" mu_variant: a free mu under a Beta(8, 2) log-prior.
_BETA_PRIOR_ON_MU = {"type": "log_prior_on_mu", "a": 8.0, "b": 2.0}


def _eval_fits(cells: list[dict], seeds: list[int], strict: bool) -> list[dict]:
    """Group the (cell, seed) runs by everything their fit depends on.

    Cells that differ only in rule or quantile share one simulated dataset
    and one EM fit; each member keeps its own scoring.
    """
    fits: dict[str, dict] = {}
    for i, cell in enumerate(cells):
        for seed in seeds:
            spec = {key: _require(cell, key) for key in _FIT_KEYS}
            spec.update(seed=seed, strict=strict)
            fit = fits.setdefault(
                json.dumps(spec, sort_keys=True), {**spec, "members": []}
            )
            fit["members"].append(
                {
                    "cell_index": i,
                    "rule": cell.get("rule"),
                    "quantile": cell.get("quantile", 0.5),
                }
            )
    return list(fits.values())


def _run_eval_fit(fit: dict) -> list[dict]:
    """One distinct fit, scored for each member cell.

    Returns one plain-data result per member so it can cross processes. A
    failure before scoring fails every member; a scoring failure fails only
    its own cell.
    """
    seed = fit["seed"]
    try:
        scenario = fio.decode_scenario(fit["scenario"])
        scenario = dataclasses.replace(scenario, seed=seed)
        records, truth = simulate_dataset(scenario)
        histories = histories_from_records(records)
        variant = fit["mu_variant"]
        if variant == "known":
            mu_keys = {"mu": scenario.mu}
        elif variant == "beta_prior":
            mu_keys = {"mu_mode": "free", "regularizer": _BETA_PRIOR_ON_MU}
        else:
            raise ConfigError(f"unknown mu_variant {variant!r}")
        em_config = _em_config({"family": fit["family"], **mu_keys})
        report = em_fit(histories, em_config, strict=fit["strict"])
        fitted = report.final_params
        scores: dict = {}
        if isinstance(scenario.prior, (TwoPointPrior, BetaPrior)) and type(
            scenario.prior
        ) is type(fitted.prior):
            truth_params = ModelParams(
                prior=scenario.prior, mu=scenario.mu, mu_mode=fitted.mu_mode
            )
            scores["delta"] = relative_error(fitted, truth_params)
    except Exception as exc:  # recorded per cell; the sweep keeps going
        error = f"{type(exc).__name__}: {exc}"
        return [
            {"cell_index": m["cell_index"], "seed": seed, "error": error}
            for m in fit["members"]
        ]

    true_etas = dict(truth)
    summaries = None  # the same for every rule: eval asks for no eta_stars
    results = []
    for member in fit["members"]:
        result = {"cell_index": member["cell_index"], "seed": seed}
        try:
            if member["rule"] is not None:
                rule = fio.decode_rule(member["rule"])
                if summaries is None:
                    grid = QuadratureGrid.uniform()
                    summaries = [
                        summarize_posterior(h, fitted, grid) for h in histories
                    ]
                decisions = select_users(summaries, rule)
                result["accuracy"] = recovery_accuracy(
                    decisions, true_etas, quantile=member["quantile"]
                )
            result.update(scores)
        except Exception as exc:  # this cell only
            result["error"] = f"{type(exc).__name__}: {exc}"
        results.append(result)
    return results


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def _cmd_eval(cfg: dict, args) -> None:
    out = _out_dir(cfg)
    seeds = cfg.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("eval needs a non-empty 'seeds' list")
    seeds = [int(s) for s in seeds]
    cells = _eval_cells(cfg)
    fits = _eval_fits(cells, seeds, args.strict)
    workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fit_results = list(pool.map(_run_eval_fit, fits))
    else:
        fit_results = [_run_eval_fit(f) for f in fits]

    by_cell: dict[int, list[dict]] = {}
    for results in fit_results:
        for res in results:
            by_cell.setdefault(res["cell_index"], []).append(res)

    rows = []
    total_failures = 0
    for i, cell in enumerate(cells):
        cell_results = sorted(by_cell.get(i, []), key=lambda r: r["seed"])
        failures = [r for r in cell_results if "error" in r]
        ok = [r for r in cell_results if "error" not in r]
        total_failures += len(failures)
        deltas = [r["delta"] for r in ok if "delta" in r]
        accs = [r["accuracy"] for r in ok if "accuracy" in r]
        d_mean, d_std = _mean_std(deltas)
        a_mean, a_std = _mean_std(accs)
        scenario = fio.decode_scenario(cell["scenario"])
        rows.append(
            {
                "cell": cell["cell"],
                "family": cell["family"],
                "m": scenario.num_users,
                "n_min": scenario.n_range[0],
                "n_max": scenario.n_range[1],
                "mu": scenario.mu,
                "mu_variant": cell["mu_variant"],
                "rule": (
                    ""
                    if cell.get("rule") is None
                    else json.dumps(cell["rule"], sort_keys=True)
                ),
                "seeds_ok": len(ok),
                "seeds_failed": len(failures),
                "delta_mean": d_mean,
                "delta_std": d_std,
                "accuracy_mean": a_mean,
                "accuracy_std": a_std,
                "note": failures[0]["error"] if failures else "",
            }
        )
    fio.write_sweep(out / "sweep.csv", rows)
    print(
        f"eval: {len(rows)} cells x {len(seeds)} seeds, "
        f"{total_failures} failed runs -> {out / 'sweep.csv'}"
    )


_COMMANDS = {
    "simulate": (_cmd_simulate, "draw a synthetic dataset with ground truth"),
    "fit": (_cmd_fit, "run EM on an annotations file"),
    "infer": (_cmd_infer, "posterior summaries, decisions, and a filtered dataset"),
    "filter": (_cmd_filter, "re-filter a dataset from an existing decisions file"),
    "estimate-mu": (_cmd_estimate_mu, "population preference from scored pairs"),
    "eval": (_cmd_eval, "simulate/fit/filter sweep with an aggregate report"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefqc",
        description="Attentiveness estimation and filtering for preference data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--strict",
            action="store_true",
            help="treat numeric invariant violations as fatal",
        )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = fio.read_json(args.config)
    except (OSError, fio.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        args.func(cfg, args)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, fio.ParseError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
