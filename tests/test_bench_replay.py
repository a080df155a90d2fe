"""bench/traced.py replays `fit` and `infer` with the CLI's output bytes.

The benchmark's per-layer metrics come from that replay, which calls the
public per-user API (`summarize_posterior` per history, `select_users`,
`filter_dataset`, the record writers); its output digests must equal the
CLI's for the same config.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from prefqc.cli import EXIT_OK, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
_spec = importlib.util.spec_from_file_location("gen", os.path.join(BENCH, "gen.py"))
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

WORKLOADS = {
    # As beta_bulk: a tail rule on one of three stars.
    "beta": (
        gen.BulkSpec("beta", (3.0, 5.0), 0.8, users=100, n_range=(10, 30), item_pool=200),
        {"type": "tail_probability", "eta_star": 0.5, "level": 0.5},
        [0.3, 0.5, 0.7],
    ),
    # As twopoint_long: a top-fraction rule, the default star.
    "two_point": (
        gen.BulkSpec("two_point", (0.6, 0.4, 0.98), 0.8, users=100, n_range=(20, 60),
                     item_pool=200),
        {"type": "top_fraction", "fraction": 0.5},
        None,
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def configs(tmp_path, name, annotations, family, rule, eta_stars):
    out = tmp_path / name
    out.mkdir()
    fit = {"annotations": str(annotations), "out_dir": str(out), "family": family,
           "mu": 0.8, "mu_mode": "fixed"}
    infer = {"annotations": str(annotations), "fit": str(out / "fit.json"),
             "out_dir": str(out), "rule": rule}
    if eta_stars:
        infer["eta_stars"] = eta_stars
    paths = out / "fit_config.json", out / "infer_config.json"
    for path, cfg in zip(paths, (fit, infer)):
        path.write_text(json.dumps(cfg), encoding="utf-8")
    return out, paths


@pytest.mark.parametrize("family", sorted(WORKLOADS))
def test_traced_replay_writes_the_cli_bytes(family, tmp_path):
    spec, rule, eta_stars = WORKLOADS[family]
    annotations = tmp_path / "annotations.jsonl"
    data = gen.generate(spec, 7, annotations)
    assert data.unique_rows < len(data.user_ids)  # users share rows
    cli_out, cli_cfgs = configs(tmp_path, "cli", annotations, family, rule, eta_stars)
    _, traced_cfgs = configs(tmp_path, "traced", annotations, family, rule, eta_stars)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    digests = {}
    for command, cli_cfg, traced_cfg in zip(("fit", "infer"), cli_cfgs, traced_cfgs):
        assert main([command, "--config", str(cli_cfg)]) == EXIT_OK
        result = tmp_path / f"{command}.json"
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "traced.py"), command,
             str(traced_cfg), str(result)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.update(json.loads(result.read_text())["digests"])
    assert sorted(digests) == sorted([
        "fit.json", "trajectory.csv", "posteriors.csv", "decisions.csv",
        "filtered.jsonl", "pairs.jsonl",
    ])
    for name, digest in digests.items():
        assert digest == sha256(cli_out / name), name
