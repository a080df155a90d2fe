"""Batch command-line front end.

Subcommands: simulate, fit, infer, filter, estimate-mu, eval. Each takes a
JSON config (--config); simulate also takes a --seed override, and fit and
eval a --strict switch. Exit codes: 0 success, 2 validation or input error,
3 numeric failure.

The canonical label orientation has option A preferred on average (mu above
one half). Configs with mu below one half are accepted by flipping every
label at ingestion; the flip is recorded in fit.json so downstream commands
stay consistent.
"""

import argparse
import ctypes  # numpy imports it already
import dataclasses
import gc
import json
import sys
from itertools import product, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import io as fio
from .em import (
    FAMILIES,
    DegenerateComponentError,
    EmConfig,
    LikelihoodDecreaseError,
    family_of,
    fit_rows,
)
from .model import ModelParams, _finite, unique_rows, user_counts
from .numerics import SolverError

# filtering and simulate are imported by the commands that run them: fit
# needs neither, infer and filter only filtering, simulate and estimate-mu
# only simulate.

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

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
    from .simulate import scenario_preset

    if ("preset" in cfg) == ("scenario" in cfg):
        raise ConfigError("give exactly one of 'preset' or 'scenario'")
    if "preset" in cfg:
        scenario = scenario_preset(cfg["preset"])
    else:
        scenario = fio.decode_scenario(cfg["scenario"], "scenario")
    if seed_override is not None:
        scenario = dataclasses.replace(scenario, seed=seed_override)
    return scenario


def _cmd_simulate(cfg: dict, args) -> None:
    from .simulate import simulate_columns

    scenario = _resolve_scenario(cfg, args.seed)
    out = _out_dir(cfg)
    columns, truth = simulate_columns(scenario)
    fio.write_annotation_columns(out / "annotations.jsonl", columns)
    fio.write_truth(out / "truth.csv", truth)
    fio.write_json(out / "scenario.json", fio.encode_scenario(scenario))
    print(
        f"simulate: {len(columns)} annotations from {scenario.num_users} users "
        f"(seed {scenario.seed}) -> {out}"
    )


_EM_KEYS = ("family", "mu", "mu_mode", "max_iters", "tol_param", "tol_loglik")


def _em_config(cfg: dict) -> EmConfig:
    """EmConfig from fit config keys; fit and eval both build theirs here.

    A key the config leaves out keeps EmConfig's default.
    """
    init = cfg.get("init")
    return EmConfig(
        **{key: cfg[key] for key in _EM_KEYS if key in cfg},
        init=None if init is None else fio.decode_params(init, "init"),
        regularizer=fio.decode_regularizer(cfg.get("regularizer"), "regularizer"),
    )


def _user_counts(cfg: dict, labels_flipped: bool):
    """(columns, codes, sum_z, n): the annotations file's records, and each
    user's code and label counts (see `user_counts`), labels flipped when
    `labels_flipped` is true."""
    columns = fio.read_annotation_columns(_require(cfg, "annotations"))
    codes, sum_z, n = user_counts(columns)
    if not len(codes):
        raise ConfigError("annotations file holds no records")
    return columns, codes, (n - sum_z if labels_flipped else sum_z), n


def _fit_once(cfg: dict, strict: bool):
    """fit's core: load annotations, run EM, return (report, labels_flipped).

    EM's settings are checked before the annotations are read.
    """
    mu = cfg.get("mu")
    labels_flipped = False
    if mu is not None:
        if _finite("mu", mu) == 0.5:
            raise ConfigError("mu = 1/2 makes every eta indistinguishable")
        if not 0.0 < mu < 1.0:
            raise ConfigError("mu must lie strictly inside (0, 1)")
        if mu < 0.5:
            labels_flipped = True
            mu = 1.0 - mu
    em_config = _em_config({**cfg, "mu": mu})
    _, _, sum_z, n = _user_counts(cfg, labels_flipped)
    report = fit_rows(unique_rows(sum_z, n), em_config, strict=strict)
    return report, labels_flipped


def _delta(fitted: ModelParams, scenario) -> float:
    """relative_error of a fit against the truth a scenario simulated."""
    from .filtering import relative_error

    truth = ModelParams(prior=scenario.prior, mu=scenario.mu, mu_mode=fitted.mu_mode)
    return relative_error(fitted, truth)


def _cmd_fit(cfg: dict, args) -> None:
    out = _out_dir(cfg)
    scenario = None
    if cfg.get("truth_scenario"):
        scenario = fio.decode_scenario(fio.read_json(cfg["truth_scenario"]))
        if family_of(scenario.prior) is None:
            raise ConfigError(
                "truth_scenario prior is outside the fitted families; no delta defined"
            )
    report, labels_flipped = _fit_once(cfg, args.strict)
    delta = None if scenario is None else _delta(report.final_params, scenario)
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
    from .filtering import TailProbability

    stars = cfg.get("eta_stars")
    if stars:
        return list(stars)  # user_rows checks each
    if isinstance(rule, TailProbability):
        return [rule.eta_star]
    return [0.5]


def _cmd_infer(cfg: dict, args) -> None:
    from .filtering import user_rows

    out = _out_dir(cfg)
    fit = fio.read_fit(_require(cfg, "fit"))
    params: ModelParams = fit["params"]
    if fit.get("converged") is False:
        print(
            f"warning: {cfg['fit']} holds a fit that did not converge "
            f"(stop_reason {fit.get('stop_reason')})",
            file=sys.stderr,
        )
    columns, codes, sum_z, n = _user_counts(cfg, bool(fit.get("labels_flipped")))
    rule = fio.decode_rule(_require(cfg, "rule"), "rule")
    # Summaries, selection and both reports are made once per (sum_z, n) row.
    user_ids = [columns.user_ids[c] for c in codes.tolist()]
    stars = _default_eta_stars(cfg, rule)
    rows = user_rows(user_ids, unique_rows(sum_z, n), params, eta_stars=stars)
    keep, scores = rows.select(rule)
    attentive = np.zeros(len(columns.user_ids), dtype=bool)
    attentive[codes] = keep
    kept = columns.take(attentive[columns.users])
    fio.write_posterior_rows(out / "posteriors.csv", user_ids, rows.inverse, rows.n_labels,
                             rows.map_eta, rows.mean_eta, rows.eta_stars, rows.tails)
    fio.write_decision_rows(out / "decisions.csv", user_ids, keep.tolist(), repeat(rule),
                            scores.tolist(), rows.inverse)
    fio.write_annotation_columns(out / "filtered.jsonl", kept)
    fio.write_pair_columns(out / "pairs.jsonl", kept)
    print(
        f"infer: kept {np.count_nonzero(np.bincount(kept.users))}/{len(codes)} users, "
        f"{len(kept)}/{len(columns)} records -> {out}"
    )


def _cmd_filter(cfg: dict, args) -> None:
    from .filtering import filter_mask

    out = _out_dir(cfg)
    columns = fio.read_annotation_columns(_require(cfg, "annotations"))
    decisions = fio.read_decisions(_require(cfg, "decisions"))
    kept = columns.take(filter_mask(columns, decisions))
    fio.write_annotation_columns(out / "filtered.jsonl", kept)
    fio.write_pair_columns(out / "pairs.jsonl", kept)
    print(
        f"filter: kept {np.count_nonzero(np.bincount(kept.users))} users, "
        f"{len(kept)}/{len(columns)} records -> {out}"
    )


def _cmd_estimate_mu(cfg: dict, args) -> None:
    from .simulate import estimate_mu

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

# The mu_effect preset's threshold: the median of beta_default's Beta(3, 5)
# prior, prior_quantile(prior, 0.5). Computing it would load scipy.stats,
# over a second of import, for this one number.
_BETA_DEFAULT_MEDIAN = 0.3641160864480825


def _eval_cells(cfg: dict) -> list[dict]:
    from .filtering import check_quantile
    from .simulate import ERROR_SWEEP_CELLS, scenario_preset

    if "cells" in cfg:
        cells = cfg["cells"]
        if not isinstance(cells, list):
            raise ConfigError(f"eval 'cells' must be a JSON list, got {json.dumps(cells)}")
        for i, cell in enumerate(cells):
            if not isinstance(cell, dict):
                raise ConfigError(
                    f"eval cell {i} must be a JSON object, got {json.dumps(cell)}"
                )
            for key in ("cell", "family", "scenario", "mu_variant"):
                if key not in cell:
                    raise ConfigError(f"eval cell {i} is missing required key {key!r}")
            for key in ("cell", "family", "mu_variant"):
                if type(cell[key]) is not str:  # str() would write ['beta'] to sweep.csv
                    raise ConfigError(
                        f"eval cell {i} {key!r} must be a JSON string, "
                        f"got {json.dumps(cell[key])}"
                    )
            if cell.get("rule") is not None:
                fio.decode_rule(cell["rule"], f"cells[{i}].rule")
            fio.located(f"cells[{i}]", check_quantile, quantile=cell.get("quantile", 0.5))
        return cells
    preset = cfg.get("preset")
    if preset == "table3_grid":
        cells = []
        for family, (m, n) in product(FAMILIES, ERROR_SWEEP_CELLS):
            tag = family.replace("_", "")  # presets spell two_point "twopoint"
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
        base = scenario_preset("beta_default")
        rules = (
            ("ranking", {"type": "top_fraction", "fraction": 0.5}),
            ("threshold", {"type": "threshold", "value": _BETA_DEFAULT_MEDIAN}),
        )
        for mu, variant, (rule_name, rule) in product(
            (0.6, 0.7, 0.8, 0.9), ("known", "beta_prior"), rules
        ):
            scenario = fio.encode_scenario(dataclasses.replace(base, mu=mu))
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


# eval's "beta_prior" mu_variant: a free mu under a Beta(8, 2) log-prior.
_BETA_PRIOR_ON_MU = {"type": "log_prior_on_mu", "a": 8.0, "b": 2.0}


def _eval_datasets(cells: list[dict], scenarios: list, seeds: list[int]) -> dict:
    """Map each dataset eval draws to its seeded scenario and member cell indices.

    A dataset is a cell's decoded scenario with the eval seed set in it,
    keyed by its encoding: cells that spell one scenario differently share
    it, and -0.0 stays apart from 0.0. Keys and members keep first-seen order.
    """
    datasets: dict[str, tuple] = {}
    for i, scenario in enumerate(scenarios):
        for seed in seeds:
            seeded = dataclasses.replace(scenario, seed=seed)
            key = json.dumps(fio.encode_scenario(seeded))
            datasets.setdefault(key, (seeded, []))[1].append(i)
    return datasets


def _failure(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _fit_eval_cell(cell: dict, scenario, rows, strict: bool):
    """Fit a cell's family and mu_variant to a drawn dataset's (sum_z, n)
    rows: (fitted, scores)."""
    variant = cell["mu_variant"]
    if variant == "known":
        mu_keys = {"mu": scenario.mu}
    elif variant == "beta_prior":
        mu_keys = {"mu_mode": "free", "regularizer": _BETA_PRIOR_ON_MU}
    else:
        raise ConfigError(f"unknown mu_variant {variant!r}")
    em_config = _em_config({"family": cell["family"], **mu_keys})
    report = fit_rows(rows, em_config, strict=strict)
    fitted = report.final_params
    scores: dict = {}
    # A fitted prior is always in FAMILIES, so a truth outside them has no delta.
    if family_of(scenario.prior) == family_of(fitted.prior):
        scores["delta"] = _delta(fitted, scenario)
    scores.update(converged=report.converged, iterations=report.iterations)
    return fitted, scores


def _run_eval_dataset(
    scenario, members: list[int], cells: list[dict], strict: bool
) -> dict[int, dict]:
    """Draw one dataset, then run and score each of its fits: {cell index: result}.

    The fits are the distinct (family, mu_variant) pairs of the member
    cells, each run once; cells that differ only in rule or quantile share
    one fit, and each keeps its own scoring. A failed draw fails every
    member, a failed fit (an unknown mu_variant too) every member that
    shares it, and a failed scoring (no true eta above the cut) only its own
    cell; `_eval_cells` has checked each rule and quantile. eval reads only each
    user's (sum_z, n) and true eta, so no record columns or item ids are
    built: the fits share one grouping into (sum_z, n) rows, and each fit's
    posteriors are digested once per row, shared by its rules.
    """
    from .filtering import recovery_of, user_rows
    from .simulate import _draw_users

    try:
        user_ids, etas, labels = _draw_users(scenario)
    except Exception as exc:  # recorded per cell; the sweep keeps going
        return dict.fromkeys(members, _failure(exc))
    sum_z = np.array([np.count_nonzero(z) for z in labels])
    n = np.array([len(z) for z in labels])
    rows = unique_rows(sum_z, n)
    fits: dict[tuple[str, str], list[int]] = {}
    for i in members:
        fits.setdefault((cells[i]["family"], cells[i]["mu_variant"]), []).append(i)

    results: dict[int, dict] = {}
    for sharing in fits.values():
        try:
            fitted, scores = _fit_eval_cell(cells[sharing[0]], scenario, rows, strict)
        except Exception as exc:  # recorded per cell; the sweep keeps going
            results.update(dict.fromkeys(sharing, _failure(exc)))
            continue
        digests = None  # the same for every rule: eval asks for no eta_stars
        for i in sharing:
            cell = cells[i]
            result = dict(scores)
            try:
                if cell.get("rule") is not None:
                    rule = fio.decode_rule(cell["rule"])
                    if digests is None:
                        digests = user_rows(user_ids, rows, fitted)
                    keep, _ = digests.select(rule)
                    result["accuracy"] = recovery_of(
                        etas, keep, quantile=cell.get("quantile", 0.5)
                    )
            except Exception as exc:  # this cell only
                result = _failure(exc)
            results[i] = result
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
    for k, seed in enumerate(seeds):
        if type(seed) is not int:  # a float would truncate, and a bool is an int
            raise ConfigError(f"eval seeds must be JSON integers, got {json.dumps(seed)}")
        if seed < 0:  # numpy's SeedSequence rejects it inside every draw
            raise ConfigError(f"eval seeds must be non-negative, got {seed}")
        if seed in seeds[:k]:
            raise ConfigError(f"eval seeds repeat {seed}")
    # Every cell is checked, then its scenario decoded, before any draw.
    cells = _eval_cells(cfg)
    scenarios = [
        fio.decode_scenario(cell["scenario"], f"cells[{i}].scenario")
        for i, cell in enumerate(cells)
    ]
    by_seed: list[dict[int, dict]] = [{} for _ in cells]
    # One dataset's draws and rows are alive at a time.
    for seeded, members in _eval_datasets(cells, scenarios, seeds).values():
        for i, result in _run_eval_dataset(seeded, members, cells, args.strict).items():
            by_seed[i][seeded.seed] = result

    rows = []
    total_failures = 0
    for cell, scenario, results in zip(cells, scenarios, by_seed):
        # In ascending seed order: the means and deviations' bits depend on it.
        cell_results = [results[seed] for seed in sorted(seeds)]
        failures = [r for r in cell_results if "error" in r]
        ok = [r for r in cell_results if "error" not in r]
        total_failures += len(failures)
        deltas = [r["delta"] for r in ok if "delta" in r]
        accs = [r["accuracy"] for r in ok if "accuracy" in r]
        d_mean, d_std = _mean_std(deltas)
        a_mean, a_std = _mean_std(accs)
        iters_mean, _ = _mean_std([r["iterations"] for r in ok])
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
                "converged": sum(r["converged"] for r in ok),
                "iterations_mean": iters_mean,
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
        if name == "simulate":
            p.add_argument("--seed", type=int, help="override the config seed")
        if name in ("fit", "eval"):
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


# glibc's mallopt parameters, and the values the CLI process sets: 32 MiB is
# the ceiling of glibc's own dynamic mmap threshold on 64-bit builds.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOPTS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory for the process's next allocations.

    Each 512 KiB reader chunk and each rows x nodes table leaves a few MB of
    numpy temporaries. By default glibc unmaps the large ones and trims
    freed memory off the heap, so the next chunk faults the same pages in
    again. With arrays under 32 MiB taken from the heap and up to 64 MiB of
    free heap kept, a `twopoint_long` `infer` process takes 10,319 minor
    faults instead of 20,767, and its peak RSS stays within 1 MB. Without
    glibc (no C library to load, or one without `mallopt`, or one that
    refuses the value) this does nothing.
    """
    if sys.platform != "linux":  # the parameter numbers are glibc's
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPTS:
        mallopt(param, value)  # 0 when refused: the default stays


def run() -> NoReturn:
    """Run `main` on the command line and exit with its code.

    The `prefqc` script and `python -m prefqc.cli` enter here; tests and
    library callers call `main`, which leaves the collector and the
    allocator as they were.
    """
    _keep_freed_memory()
    code = main()
    # Frozen objects are left out of the interpreter's last cyclic
    # collection, which only frees memory the exit frees anyway: a beta_bulk
    # infer process took 29 ms to exit without the freeze and 8 ms with it
    # (medians of 15, 2-vCPU Xeon).
    # No output waits on that collection: main closes every file it writes
    # (atomic_write_text's `with`) before it returns, and the exit still
    # flushes stdout and stderr and runs atexit handlers.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
