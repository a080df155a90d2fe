"""Traced replay of one prefqc CLI command.

Usage: python3 bench/traced.py {fit|infer|eval} CONFIG RESULT_JSON

Calls the public functions of prefqc in the order `prefqc.cli` calls them
for the same config, with a span around each call into a module. A span
records (id, name, start, end, parent, run); the command itself is the
parent span, so time spent in CLI glue shows as its self time. Spans and
counters stay in memory and are written to RESULT_JSON when the command
ends, together with the sha256 of each file the replay wrote.

Only the configs the benchmark generates are supported: mu is fixed above
one half (no label flip) with the default EM settings, and eval gets an
explicit `cells` list with one seed and runs serially, as the CLI does when
PREFQC_WORKERS is unset. The eval replay writes no sweep.csv; it returns
each cell's delta and accuracy for comparison with the CLI's.

Every span other than the command span is a leaf, so its duration is its
self time; the command span's self time is the CLI glue between calls.
"""

import dataclasses
import hashlib
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _digests(out: Path, names: list[str]) -> dict[str, str]:
    return {name: sha256_of(out / name) for name in names}


def array_bytes(obj, seen: set[int]) -> int:
    """Bytes of the numpy arrays an object holds, each array counted once."""
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            array_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(item, seen) for item in obj)
    return 0


def _import_prefqc(t: Tracer):
    with t.span("cli.import"):
        importlib.import_module("prefqc.cli")
    import prefqc

    return prefqc


def _read_records(t: Tracer, fio, path: str):
    with t.span("io.read_annotations"):
        records = fio.read_annotations(path)
    t.count("io.records_read", len(records))
    t.count("io.bytes_read", os.path.getsize(path))
    return records


def _histories(t: Tracer, pq, records):
    with t.span("model.histories"):
        histories = pq.histories_from_records(records)
    # The CLI reaches suff_stats only inside em_fit; this extra call counts
    # the unique (sum_z, n) rows that bound EM and per-row work.
    with t.span("model.suff_stats"):
        sum_z_u, _, _, _ = pq.suff_stats(histories)
    t.count("model.users", len(histories))
    t.count("model.unique_rows", len(sum_z_u))
    return histories, len(sum_z_u)


def _em_fit(t: Tracer, pq, histories, config, unique_rows: int):
    with t.span("em.fit"):
        report = pq.em_fit(histories, config, strict=False)
    support = 2 if config.family == "two_point" else config.grid.size
    t.count("em.fits")
    t.count("em.iterations", report.iterations)
    t.count("em.fits_converged", int(report.converged))
    t.count("em.fits_at_cap", int(report.stop_reason == "max_iters"))
    t.count("em.likelihood_decreases", int(report.stop_reason == "likelihood_decrease"))
    t.count("em.matrix_cells", unique_rows * support * report.iterations)
    return report


def _write(t: Tracer, name: str, path: Path, writer, *args, **kwargs) -> None:
    with t.span(name):
        writer(path, *args, **kwargs)
    t.count("io.bytes_written", path.stat().st_size)


def _fixed_mu(cfg: dict) -> float:
    mu = cfg.get("mu")
    if mu is None or not 0.5 < mu < 1.0:
        raise SystemExit("traced replay supports only a fixed mu in (1/2, 1)")
    return mu


def replay_fit(t: Tracer, config: Path) -> dict:
    with t.span("cli.fit"):
        pq = _import_prefqc(t)
        fio = pq.io
        with t.span("io.read_json"):
            cfg = fio.read_json(config)
        out = Path(cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        mu = _fixed_mu(cfg)
        records = _read_records(t, fio, cfg["annotations"])
        histories, rows = _histories(t, pq, records)
        em_config = pq.EmConfig(
            family=cfg["family"], mu=mu, mu_mode=cfg.get("mu_mode", "fixed")
        )
        report = _em_fit(t, pq, histories, em_config, rows)
        _write(t, "io.write_fit", out / "fit.json", fio.write_fit, report,
               labels_flipped=False, delta=None)
        _write(t, "io.write_trajectory", out / "trajectory.csv",
               fio.write_trajectory, report)
    return {"digests": _digests(out, ["fit.json", "trajectory.csv"])}


def replay_infer(t: Tracer, config: Path) -> dict:
    with t.span("cli.infer"):
        pq = _import_prefqc(t)
        fio = pq.io
        with t.span("io.read_json"):
            cfg = fio.read_json(config)
        out = Path(cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        with t.span("io.read_fit"):
            fit = fio.read_fit(cfg["fit"])
        if fit.get("labels_flipped"):
            raise SystemExit("traced replay does not flip labels")
        params = fit["params"]
        records = _read_records(t, fio, cfg["annotations"])
        histories, _ = _histories(t, pq, records)
        rule = fio.decode_rule(cfg["rule"])
        stars = cfg.get("eta_stars")
        if stars:
            eta_stars = [float(s) for s in stars]
        elif isinstance(rule, pq.TailProbability):
            eta_stars = [rule.eta_star]
        else:
            eta_stars = [0.5]
        grid = pq.QuadratureGrid.uniform()
        with t.span("filtering.summarize"):
            summaries = [
                pq.summarize_posterior(h, params, grid, eta_stars) for h in histories
            ]
        t.count("filtering.summaries", len(summaries))
        t.count("filtering.posterior_bytes", array_bytes(summaries, set()))
        with t.span("filtering.select"):
            decisions = pq.select_users(summaries, rule)
        with t.span("filtering.filter"):
            filtered = pq.filter_dataset(records, decisions)
        t.count("filtering.users_kept", filtered.users_kept)
        t.count("filtering.records_kept", filtered.records_kept)
        _write(t, "io.write_posteriors", out / "posteriors.csv",
               fio.write_posteriors, summaries)
        _write(t, "io.write_decisions", out / "decisions.csv",
               fio.write_decisions, decisions)
        _write(t, "io.write_annotations", out / "filtered.jsonl",
               fio.write_annotations, filtered.records)
        _write(t, "io.write_pairs", out / "pairs.jsonl",
               fio.write_pairs, filtered.records)
    files = ["posteriors.csv", "decisions.csv", "filtered.jsonl", "pairs.jsonl"]
    return {"digests": _digests(out, files)}


def replay_eval(t: Tracer, config: Path) -> dict:
    cells_out = []
    with t.span("cli.eval"):
        pq = _import_prefqc(t)
        fio = pq.io
        with t.span("io.read_json"):
            cfg = fio.read_json(config)
        (seed,) = cfg["seeds"]
        for cell in cfg["cells"]:
            scenario = dataclasses.replace(
                fio.decode_scenario(cell["scenario"]), seed=int(seed)
            )
            with t.span("simulate.dataset"):
                records, truth = pq.simulate_dataset(scenario)
            t.count("simulate.records", len(records))
            histories, rows = _histories(t, pq, records)
            if cell["mu_variant"] == "known":
                em_config = pq.EmConfig(
                    family=cell["family"], mu=scenario.mu, mu_mode="fixed"
                )
            else:
                em_config = pq.EmConfig(
                    family=cell["family"],
                    mu_mode="free",
                    regularizer=pq.LogPriorOnMu(a=8.0, b=2.0),
                )
            report = _em_fit(t, pq, histories, em_config, rows)
            fitted = report.final_params
            truth_params = pq.ModelParams(
                prior=scenario.prior, mu=scenario.mu, mu_mode=fitted.mu_mode
            )
            with t.span("filtering.score"):
                delta = pq.relative_error(fitted, truth_params)
            accuracy = None
            if cell.get("rule") is not None:
                rule = fio.decode_rule(cell["rule"])
                grid = pq.QuadratureGrid.uniform()
                with t.span("filtering.summarize"):
                    summaries = [
                        pq.summarize_posterior(h, fitted, grid) for h in histories
                    ]
                t.count("filtering.summaries", len(summaries))
                t.count("filtering.posterior_bytes", array_bytes(summaries, set()))
                with t.span("filtering.select"):
                    decisions = pq.select_users(summaries, rule)
                t.count("filtering.users_kept", sum(d.attentive for d in decisions))
                with t.span("filtering.score"):
                    accuracy = pq.recovery_accuracy(decisions, dict(truth), quantile=0.5)
            cells_out.append({"cell": cell["cell"], "delta": delta, "accuracy": accuracy})
    return {"digests": {}, "cells": cells_out}


REPLAYS = {"fit": replay_fit, "infer": replay_infer, "eval": replay_eval}


def main(argv: list[str]) -> int:
    command, config, result_path = argv
    tracer = Tracer(run_id=f"{command}-{os.getpid()}")
    result = REPLAYS[command](tracer, Path(config))
    result["spans"] = tracer.spans
    result["counters"] = dict(tracer.counters)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
