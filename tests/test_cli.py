"""End-to-end command-line behavior, driven through main(argv) and, where the
process exit matters, through `python -m prefqc.cli` as a child process."""

import functools
import gc
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prefqc import cli, filtering, simulate
from prefqc import io as fio
from prefqc.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from prefqc.cli import _eval_cells
from prefqc.em import LikelihoodDecreaseError
from prefqc.numerics import SolverError


def write_config(path, **cfg):
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True, default=str))
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tiny_scenario(mu=0.8, m=40, seed=12):
    return {
        "prior": {"type": "two_point", "q1": 0.6, "eta_lo": 0.4, "eta_hi": 0.98},
        "mu": mu,
        "num_users": m,
        "n_range": [20, 30],
        "seed": seed,
        "per_item_p_model": None,
    }


def simulate_into(tmp_path, name="sim", **kw):
    out = tmp_path / name
    config = write_config(
        tmp_path / f"{name}.json", scenario=tiny_scenario(**kw), out_dir=str(out)
    )
    assert main(["simulate", "--config", config]) == EXIT_OK
    return out


# Priors that only simulate: no fit or posterior is defined for them.
SIMULATION_ONLY_PRIORS = [
    {"type": "beta_mixture", "weights": [1.0], "components": [[2.0, 3.0]]},
    {"type": "logistic_normal", "m": 0.0, "s": 1.0},
    {"type": "discrete_masses", "atoms": [[1.0, 0.5]]},
]


def one_line_error(capsys, *parts):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(part in err for part in parts), err


class TestSimulate:
    def test_preset_line_count_and_determinism(self, tmp_path, capsys):
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = write_config(
                tmp_path / f"{name}.json",
                preset="table3_twopoint_200_50",
                out_dir=str(out),
            )
            assert main(["simulate", "--config", config]) == EXIT_OK
            lines = (out / "annotations.jsonl").read_text().splitlines()
            assert len(lines) == 200 * 50
            hashes.append(
                (sha256(out / "annotations.jsonl"), sha256(out / "truth.csv"))
            )
        assert hashes[0] == hashes[1]
        assert "10000 annotations" in capsys.readouterr().out

    def test_seed_override_lands_in_scenario_json(self, tmp_path):
        out = tmp_path / "sim"
        config = write_config(
            tmp_path / "c.json", scenario=tiny_scenario(seed=0), out_dir=str(out)
        )
        assert main(["simulate", "--config", config, "--seed", "99"]) == EXIT_OK
        assert fio.read_json(out / "scenario.json")["seed"] == 99

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sim"
        config = write_config(
            tmp_path / "c.json", scenario=tiny_scenario(), out_dir=str(out)
        )
        assert main(["simulate", "--config", config, "--seed", "-1"]) == EXIT_VALIDATION
        one_line_error(capsys, "seed must be non-negative, got -1")
        assert not (out / "annotations.jsonl").exists()

    def test_different_seeds_differ(self, tmp_path):
        a = simulate_into(tmp_path, "a", seed=1)
        b = simulate_into(tmp_path, "b", seed=2)
        assert sha256(a / "annotations.jsonl") != sha256(b / "annotations.jsonl")

    def test_preset_and_scenario_are_exclusive(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json",
            preset="twopoint_default",
            scenario=tiny_scenario(),
            out_dir=str(tmp_path / "out"),
        )
        assert main(["simulate", "--config", config]) == EXIT_VALIDATION
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_preset_fails_validation(self, tmp_path):
        config = write_config(
            tmp_path / "c.json", preset="mystery", out_dir=str(tmp_path / "out")
        )
        assert main(["simulate", "--config", config]) == EXIT_VALIDATION

    @pytest.mark.parametrize("prior", ["beta", ["beta"]], ids=["string", "list"])
    def test_prior_that_is_not_an_object_exits_2(self, tmp_path, capsys, prior):
        config = write_config(
            tmp_path / "c.json",
            scenario={**tiny_scenario(), "prior": prior},
            out_dir=str(tmp_path / "out"),
        )
        assert main(["simulate", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "a prior must be a JSON object")

    def test_scenario_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json", scenario="beta", out_dir=str(tmp_path / "out")
        )
        assert main(["simulate", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "a scenario must be a JSON object, got 'beta'")

    # A count or seed is a JSON integer; nothing is cut or cast to one.
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n_range": [10.7, 20]}, "n_range bounds must be integers"),
            ({"n_range": ["7", 20]}, "n_range bounds must be integers"),
            ({"n_range": [10, 20, 30]}, "n_range must hold two bounds"),
            ({"seed": 2.9}, "seed must be an integer, got 2.9"),
            ({"seed": True}, "seed must be an integer, got True"),
        ],
        ids=["float_bound", "string_bound", "three_bounds", "float_seed", "bool_seed"],
    )
    def test_scenario_count_that_is_not_an_integer_exits_2(
        self, tmp_path, capsys, fields, message
    ):
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "c.json", scenario={**tiny_scenario(), **fields}, out_dir=str(out)
        )
        assert main(["simulate", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, message)
        assert not (out / "scenario.json").exists()

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.json"]) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err


def fit_config(tmp_path, sim_dir, name="fit", **extra):
    out = tmp_path / name
    cfg = {
        "annotations": str(sim_dir / "annotations.jsonl"),
        "family": "two_point",
        "mu": 0.8,
        "out_dir": str(out),
    }
    cfg.update(extra)
    return write_config(tmp_path / f"{name}.json", **cfg), out


class TestFit:
    def test_outputs_and_rerun_identical(self, tmp_path):
        sim = simulate_into(tmp_path)
        config, out = fit_config(tmp_path, sim)
        assert main(["fit", "--config", config]) == EXIT_OK
        first = sha256(out / "fit.json")
        rows = fio.read_trajectory(out / "trajectory.csv")
        logliks = [r["loglik"] for r in rows]
        assert all(b - a >= -1e-9 for a, b in zip(logliks, logliks[1:]))
        assert main(["fit", "--config", config]) == EXIT_OK
        assert sha256(out / "fit.json") == first

    def test_truth_scenario_adds_delta(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        config, out = fit_config(
            tmp_path, sim, truth_scenario=str(sim / "scenario.json")
        )
        assert main(["fit", "--config", config]) == EXIT_OK
        fit = fio.read_fit(out / "fit.json")
        assert 0.0 <= fit["delta"] < 1.5
        assert "delta" in capsys.readouterr().out

    def test_truth_scenario_with_a_fractional_bound_exits_2(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({**tiny_scenario(), "n_range": [20.5, 30]}))
        config, out = fit_config(tmp_path, sim, truth_scenario=str(truth))
        assert main(["fit", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "n_range bounds must be integers")
        assert not (out / "fit.json").exists()

    def test_low_mu_flips_labels_and_matches(self, tmp_path):
        sim = simulate_into(tmp_path)
        records = fio.read_annotations(sim / "annotations.jsonl")
        flipped_dir = tmp_path / "flipped"
        flipped_dir.mkdir()
        from prefqc import AnnotationRecord

        fio.write_annotations(
            flipped_dir / "annotations.jsonl",
            [
                AnnotationRecord(r.user_id, r.item_id, 1 - r.label)
                for r in records
            ],
        )
        config_hi, out_hi = fit_config(tmp_path, sim, name="hi", mu=0.8)
        config_lo, out_lo = fit_config(tmp_path, flipped_dir, name="lo", mu=0.2)
        assert main(["fit", "--config", config_hi]) == EXIT_OK
        assert main(["fit", "--config", config_lo]) == EXIT_OK
        hi = fio.read_fit(out_hi / "fit.json")
        lo = fio.read_fit(out_lo / "fit.json")
        assert lo["labels_flipped"] is True and hi["labels_flipped"] is False
        assert lo["params"] == hi["params"]
        assert lo["final_loglik"] == pytest.approx(hi["final_loglik"], abs=1e-9)

    def test_half_mu_rejected(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        config, _ = fit_config(tmp_path, sim, mu=0.5)
        assert main(["fit", "--config", config]) == EXIT_VALIDATION
        assert "indistinguishable" in capsys.readouterr().err

    def test_mu_outside_unit_interval_rejected(self, tmp_path):
        sim = simulate_into(tmp_path)
        for bad in (0.0, 1.0, -0.3):
            config, _ = fit_config(tmp_path, sim, name=f"bad{bad}", mu=bad)
            assert main(["fit", "--config", config]) == EXIT_VALIDATION

    def test_empty_annotations_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "annotations.jsonl").write_text("")
        config, _ = fit_config(tmp_path, empty)
        assert main(["fit", "--config", config]) == EXIT_VALIDATION

    def test_missing_required_key(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json", family="beta", mu=0.8, out_dir=str(tmp_path / "o")
        )
        assert main(["fit", "--config", config]) == EXIT_VALIDATION
        assert "annotations" in capsys.readouterr().err

    # The check that rejects a value names its field, in the words of the
    # dataclass it builds.
    @pytest.mark.parametrize(
        "key, value",
        [
            ("mu", "0.8"),
            ("mu", True),
            ("max_iters", "5"),
            ("max_iters", 5.0),
            ("max_iters", True),
            ("tol_param", "1e-6"),
            ("tol_loglik", False),
        ],
    )
    def test_non_numeric_setting_names_its_key(self, tmp_path, capsys, key, value):
        sim = simulate_into(tmp_path)
        config, _ = fit_config(tmp_path, sim, **{key: value})
        assert main(["fit", "--config", config]) == EXIT_VALIDATION
        kind = "an integer" if key == "max_iters" else "a finite real number"
        assert capsys.readouterr().err == f"error: {key} must be {kind}, got {value!r}\n"

    @pytest.mark.parametrize(
        "key, extra",
        [
            ("init.mu", {"init": {"prior": {"type": "beta", "alpha": 2, "beta": 2},
                                  "mu": "0.6", "mu_mode": "free"}}),
            ("init.prior.alpha", {"init": {"prior": {"type": "beta", "alpha": "2", "beta": 2},
                                           "mu": 0.8, "mu_mode": "fixed"}}),
            ("init.prior.beta", {"init": {"prior": {"type": "beta", "alpha": 2, "beta": "2"},
                                          "mu": 0.8, "mu_mode": "fixed"}}),
            ("init.prior.q1", {"family": "two_point",
                               "init": {"prior": {"type": "two_point", "q1": True,
                                                  "eta_lo": 0.2, "eta_hi": 0.9},
                                        "mu": 0.8}}),
            ("init.prior.eta_lo", {"family": "two_point",
                                   "init": {"prior": {"type": "two_point", "q1": 0.5,
                                                      "eta_lo": "0.2", "eta_hi": 0.9},
                                            "mu": 0.8}}),
            ("init.prior.eta_hi", {"family": "two_point",
                                   "init": {"prior": {"type": "two_point", "q1": 0.5,
                                                      "eta_lo": 0.2, "eta_hi": False},
                                            "mu": 0.8}}),
            ("regularizer.a", {"mu": None, "mu_mode": "free",
                               "regularizer": {"type": "log_prior_on_mu", "a": "8", "b": 2}}),
            ("regularizer.b", {"mu": None, "mu_mode": "free",
                               "regularizer": {"type": "log_prior_on_mu", "a": 8, "b": [2]}}),
            ("regularizer.hi", {"mu": None, "mu_mode": "free",
                                "regularizer": {"type": "box_on_mu", "lo": 0.6, "hi": "0.9"}}),
            ("regularizer.lo", {"mu": None, "mu_mode": "free",
                                "regularizer": {"type": "box_on_mu", "lo": False, "hi": 0.9}}),
        ],
    )
    def test_non_numeric_nested_setting_names_its_key(self, tmp_path, capsys, key, extra):
        sim = simulate_into(tmp_path)
        config, _ = fit_config(tmp_path, sim, **{"family": "beta", **extra})
        assert main(["fit", "--config", config]) == EXIT_VALIDATION
        *path, field = key.split(".")
        value = functools.reduce(dict.get, path, extra)[field]
        if isinstance(value, list):  # a dataclass holds a JSON list as a tuple
            value = tuple(value)
        expected = f"error: {key} must be a finite real number, got {value!r}\n"
        assert capsys.readouterr().err == expected

    def test_regularizer_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        config, _ = fit_config(
            tmp_path, sim, family="beta", mu=None, mu_mode="free",
            regularizer="log_prior_on_mu",
        )
        assert main(["fit", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "a regularizer must be a JSON object")

    @pytest.mark.parametrize("prior", SIMULATION_ONLY_PRIORS, ids=lambda p: p["type"])
    def test_simulation_only_init_prior_exits_2(self, tmp_path, capsys, prior):
        sim = simulate_into(tmp_path)
        config, out = fit_config(tmp_path, sim, init={"prior": prior, "mu": 0.8})
        assert main(["fit", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "ModelParams takes a two-point, Beta")
        assert not (out / "fit.json").exists()

    def test_mu_conflicting_with_init_rejected(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        init = {
            "prior": {"type": "two_point", "q1": 0.5, "eta_lo": 0.25, "eta_hi": 0.75},
            "mu": 0.6,
            "mu_mode": "fixed",
        }
        config, _ = fit_config(tmp_path, sim, init=init)
        assert main(["fit", "--config", config]) == EXIT_VALIDATION
        assert "conflicts with init mu" in capsys.readouterr().err

    def test_iteration_cap_warns(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        config, out = fit_config(tmp_path, sim, max_iters=1)
        assert main(["fit", "--config", config]) == EXIT_OK
        assert "warning: EM stopped at the 1-iteration cap" in capsys.readouterr().err
        fit = fio.read_fit(out / "fit.json")
        assert fit["converged"] is False and fit["stop_reason"] == "max_iters"
        config, _ = fit_config(tmp_path, sim, name="full")
        assert main(["fit", "--config", config]) == EXIT_OK
        assert "warning" not in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch):
        sim = simulate_into(tmp_path)
        config, _ = fit_config(tmp_path, sim)

        def blow_up(*args, **kwargs):
            raise SolverError("solver diverged", 2.0, 3.0, (0.1, 0.2))

        monkeypatch.setattr("prefqc.cli.fit_rows", blow_up)
        assert main(["fit", "--config", config]) == EXIT_NUMERIC


def infer_config(tmp_path, sim, fit_out, rule, name="infer", **extra):
    out = tmp_path / name
    cfg = {
        "annotations": str(sim / "annotations.jsonl"),
        "fit": str(fit_out / "fit.json"),
        "rule": rule,
        "out_dir": str(out),
    }
    cfg.update(extra)
    return write_config(tmp_path / f"{name}.json", **cfg), out


class TestInferAndFilter:
    def fitted(self, tmp_path):
        sim = simulate_into(tmp_path)
        config, out = fit_config(tmp_path, sim)
        assert main(["fit", "--config", config]) == EXIT_OK
        return sim, out

    def test_keep_everyone_is_identity(self, tmp_path):
        sim, fit_out = self.fitted(tmp_path)
        config, out = infer_config(
            tmp_path, sim, fit_out, {"type": "top_fraction", "fraction": 1.0}
        )
        assert main(["infer", "--config", config]) == EXIT_OK
        assert sha256(out / "filtered.jsonl") == sha256(sim / "annotations.jsonl")
        records = fio.read_annotations(out / "filtered.jsonl")
        pairs = fio.read_pairs(out / "pairs.jsonl")
        assert len(pairs) == len(records)
        for rec, (item_id, chosen) in zip(records, pairs):
            assert item_id == rec.item_id
            assert chosen == ("A" if rec.label == 1 else "B")

    def test_unconverged_fit_warns(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        rule = {"type": "top_fraction", "fraction": 0.5}
        for max_iters, warned in ((1, True), (500, False)):
            name = f"cap{max_iters}"
            fit_cfg, fit_out = fit_config(
                tmp_path, sim, name=f"fit_{name}", max_iters=max_iters
            )
            assert main(["fit", "--config", fit_cfg]) == EXIT_OK
            capsys.readouterr()
            config, out = infer_config(tmp_path, sim, fit_out, rule, name=name)
            assert main(["infer", "--config", config]) == EXIT_OK
            err = capsys.readouterr().err
            assert ("did not converge (stop_reason max_iters)" in err) is warned
            assert len(fio.read_decisions(out / "decisions.csv")) == 40

    def test_top_fraction_keeps_ceiling_of_users(self, tmp_path):
        sim, fit_out = self.fitted(tmp_path)
        config, out = infer_config(
            tmp_path, sim, fit_out, {"type": "top_fraction", "fraction": 0.8}
        )
        assert main(["infer", "--config", config]) == EXIT_OK
        decisions = fio.read_decisions(out / "decisions.csv")
        kept = {d.user_id for d in decisions if d.attentive}
        assert len(decisions) == 40
        assert len(kept) == math.ceil(0.8 * 40)
        filtered = fio.read_annotations(out / "filtered.jsonl")
        assert {r.user_id for r in filtered} == kept
        posteriors = fio.read_posteriors(out / "posteriors.csv")
        assert [p["tail_probs"][0][0] for p in posteriors] == [0.5] * 40

    def test_tail_rule_sets_tail_column(self, tmp_path):
        sim, fit_out = self.fitted(tmp_path)
        config, out = infer_config(
            tmp_path,
            sim,
            fit_out,
            {"type": "tail_probability", "eta_star": 0.7, "level": 0.5},
            name="tail",
        )
        assert main(["infer", "--config", config]) == EXIT_OK
        header = (out / "posteriors.csv").read_text().splitlines()[0]
        assert header.endswith("tail_0.7")

    def test_flipped_fit_filters_original_labels(self, tmp_path):
        # Fit on mu below 1/2 flips labels internally; the filtered output
        # must still carry the file's original labels.
        sim = simulate_into(tmp_path)
        records = fio.read_annotations(sim / "annotations.jsonl")
        from prefqc import AnnotationRecord

        flipped_dir = tmp_path / "flipped"
        flipped_dir.mkdir()
        fio.write_annotations(
            flipped_dir / "annotations.jsonl",
            [AnnotationRecord(r.user_id, r.item_id, 1 - r.label) for r in records],
        )
        config, fit_out = fit_config(tmp_path, flipped_dir, name="lofit", mu=0.2)
        assert main(["fit", "--config", config]) == EXIT_OK
        config, out = infer_config(
            tmp_path,
            flipped_dir,
            fit_out,
            {"type": "top_fraction", "fraction": 0.5},
            name="loinfer",
        )
        assert main(["infer", "--config", config]) == EXIT_OK
        filtered = fio.read_annotations(out / "filtered.jsonl")
        originals = {
            (r.user_id, r.item_id): r.label
            for r in fio.read_annotations(flipped_dir / "annotations.jsonl")
        }
        assert filtered and all(
            originals[(r.user_id, r.item_id)] == r.label for r in filtered
        )

    def test_filter_command_replays_decisions(self, tmp_path):
        sim, fit_out = self.fitted(tmp_path)
        config, infer_out = infer_config(
            tmp_path, sim, fit_out, {"type": "top_fraction", "fraction": 0.5}
        )
        assert main(["infer", "--config", config]) == EXIT_OK
        replay_out = tmp_path / "replay"
        config = write_config(
            tmp_path / "replay.json",
            annotations=str(sim / "annotations.jsonl"),
            decisions=str(infer_out / "decisions.csv"),
            out_dir=str(replay_out),
        )
        assert main(["filter", "--config", config]) == EXIT_OK
        assert sha256(replay_out / "filtered.jsonl") == sha256(
            infer_out / "filtered.jsonl"
        )
        assert sha256(replay_out / "pairs.jsonl") == sha256(
            infer_out / "pairs.jsonl"
        )

    def test_empty_annotations_exit_2_with_one_line_error(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "annotations.jsonl").write_text("")
        rule = {"type": "top_fraction", "fraction": 0.5}
        for family in ("two_point", "beta"):
            fit_cfg, fit_out = fit_config(tmp_path, sim, name=family, family=family)
            assert main(["fit", "--config", fit_cfg]) == EXIT_OK
            capsys.readouterr()
            config, _ = infer_config(tmp_path, empty, fit_out, rule, name=f"i_{family}")
            assert main(["infer", "--config", config]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err == "error: annotations file holds no records\n"

    @pytest.mark.parametrize(
        "rule,extra,message",
        [
            (
                {"type": "tail_probability", "eta_star": math.nan},
                {},
                "rule.eta_star must be a finite real number, got nan",
            ),
            (
                {"type": "threshold", "value": math.nan},
                {},
                "rule: threshold value must be a finite real number, got nan",
            ),
            (
                {"type": "tail_probability", "eta_star": 0.5},
                {"eta_stars": [0.3, math.nan]},
                "eta_stars entry must be a finite real number, got nan",
            ),
            (
                {"type": "top_fraction", "fraction": 0.5},
                {"eta_stars": [-math.inf]},
                "eta_stars entry must be a finite real number, got -inf",
            ),
            (
                {"type": "top_fraction", "fraction": True},
                {},
                "rule.fraction must be a finite real number, got True",
            ),
            (
                {"type": "threshold", "value": False},
                {},
                "rule: threshold value must be a finite real number, got False",
            ),
            (
                {"type": "tail_probability", "eta_star": True, "level": 0.5},
                {},
                "rule.eta_star must be a finite real number, got True",
            ),
            (
                {"type": "tail_probability", "eta_star": 0.5, "level": True},
                {},
                "rule.level must be a finite real number, got True",
            ),
            (
                {"type": "top_fraction", "fraction": 0.5},
                {"eta_stars": [0.5, True]},
                "eta_stars entry must be a finite real number, got True",
            ),
            (
                {"type": "top_fraction", "fraction": 0.5},
                {"eta_stars": [0.5, 0.5, 0.7]},
                "eta_stars repeats 0.5",
            ),
        ],
        ids=[
            "eta_star", "threshold", "eta_stars_nan", "eta_stars_inf",
            "fraction_bool", "threshold_bool", "eta_star_bool", "level_bool",
            "eta_stars_bool", "eta_stars_repeated",
        ],
    )
    def test_non_finite_rule_value_exits_2(self, tmp_path, capsys, rule, extra, message):
        # json reads NaN and -Infinity, and true and false are Python bools
        # that pass as 1 and 0; none may reach the tail code. A repeated star
        # would write two posteriors.csv columns of one name.
        sim, fit_out = self.fitted(tmp_path)
        config, out = infer_config(tmp_path, sim, fit_out, rule, **extra)
        capsys.readouterr()
        assert main(["infer", "--config", config]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "decisions.csv").exists()

    def test_rule_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        sim, fit_out = self.fitted(tmp_path)
        config, out = infer_config(tmp_path, sim, fit_out, "top_fraction")
        capsys.readouterr()
        assert main(["infer", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "a rule must be a JSON object")
        assert not (out / "decisions.csv").exists()

    @pytest.mark.parametrize("prior", SIMULATION_ONLY_PRIORS, ids=lambda p: p["type"])
    def test_simulation_only_fit_prior_exits_2(self, tmp_path, capsys, prior):
        sim, fit_out = self.fitted(tmp_path)
        fit = json.loads((fit_out / "fit.json").read_text())
        fit["params"]["prior"] = prior
        (fit_out / "fit.json").write_text(json.dumps(fit))
        config, out = infer_config(
            tmp_path, sim, fit_out, {"type": "top_fraction", "fraction": 0.5}
        )
        capsys.readouterr()
        assert main(["infer", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "ModelParams takes a two-point, Beta")
        assert not (out / "decisions.csv").exists()

    # infer flips every label when labels_flipped holds, so a string "false"
    # would flip them; a flag must be a JSON bool.
    @pytest.mark.parametrize("value", ["false", 0, None], ids=["string", "number", "null"])
    @pytest.mark.parametrize("key", ["labels_flipped", "converged"])
    def test_fit_flag_that_is_not_a_json_bool_exits_2(self, tmp_path, capsys, key, value):
        sim, fit_out = self.fitted(tmp_path)
        fit_json = fit_out / "fit.json"
        fit_json.write_text(json.dumps({**json.loads(fit_json.read_text()), key: value}))
        config, out = infer_config(
            tmp_path, sim, fit_out, {"type": "top_fraction", "fraction": 0.5}
        )
        capsys.readouterr()
        assert main(["infer", "--config", config]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {fit_json}: {key} must be a JSON bool, got {json.dumps(value)}\n"
        )
        assert not (out / "decisions.csv").exists()

    def test_filter_with_missing_decision_fails(self, tmp_path):
        sim, fit_out = self.fitted(tmp_path)
        config, infer_out = infer_config(
            tmp_path, sim, fit_out, {"type": "top_fraction", "fraction": 0.5}
        )
        assert main(["infer", "--config", config]) == EXIT_OK
        decisions = fio.read_decisions(infer_out / "decisions.csv")
        fio.write_decisions(infer_out / "decisions.csv", decisions[:-1])
        config = write_config(
            tmp_path / "bad.json",
            annotations=str(sim / "annotations.jsonl"),
            decisions=str(infer_out / "decisions.csv"),
            out_dir=str(tmp_path / "badout"),
        )
        assert main(["filter", "--config", config]) == EXIT_VALIDATION


class TestEstimateMu:
    def test_stdout_json_and_frozen_interval(self, tmp_path, capsys):
        from prefqc import ScoredPair

        scores = tmp_path / "scores.csv"
        pairs = [ScoredPair(f"i{k}", 1.0, 0.0) for k in range(80)]
        pairs += [ScoredPair(f"j{k}", 0.0, 1.0) for k in range(20)]
        fio.write_scored_pairs(scores, pairs)
        out_file = tmp_path / "mu.json"
        config = write_config(
            tmp_path / "c.json", scores=str(scores), out=str(out_file)
        )
        assert main(["estimate-mu", "--config", config]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu_hat"] == 0.8
        assert payload["num_pairs"] == 100
        assert payload["ci_low"] == pytest.approx(0.7111708344068411, abs=1e-12)
        assert payload["ci_high"] == pytest.approx(0.8666330666689674, abs=1e-12)
        assert fio.read_json(out_file) == payload

    def test_empty_scores_rejected(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("item_id,score_a,score_b\n")
        config = write_config(tmp_path / "c.json", scores=str(scores))
        assert main(["estimate-mu", "--config", config]) == EXIT_VALIDATION


class TestEval:
    def eval_config(self, tmp_path, seeds, cells=None, workers_cfg=None, **extra):
        out = tmp_path / "eval"
        cfg = {"seeds": seeds, "out_dir": str(out)}
        if cells is not None:
            cfg["cells"] = cells
        cfg.update(extra)
        return write_config(tmp_path / "eval.json", **cfg), out

    def tiny_cell(self, **overrides):
        cell = {
            "cell": "smoke",
            "family": "two_point",
            "scenario": tiny_scenario(m=30),
            "mu_variant": "known",
            "rule": {"type": "top_fraction", "fraction": 0.5},
        }
        cell.update(overrides)
        return cell

    def run_sweep(self, tmp_path, name, cells, seeds, *flags):
        """Run eval in its own directory; returns the sweep rows by cell."""
        run_dir = tmp_path / name
        run_dir.mkdir()
        config, out = self.eval_config(run_dir, seeds, cells=cells)
        assert main(["eval", "--config", config, *flags]) == EXIT_OK
        return {row["cell"]: row for row in fio.read_sweep(out / "sweep.csv")}

    def count_fits(self, monkeypatch, fail_when_strict=False):
        calls = []
        real_fit_rows = cli.fit_rows

        def counting_fit_rows(rows, config, *, strict=False):
            calls.append(strict)
            report = real_fit_rows(rows, config, strict=False)
            if strict and fail_when_strict:
                raise LikelihoodDecreaseError(report, 1.0)
            return report

        monkeypatch.setattr(cli, "fit_rows", counting_fit_rows)
        return calls

    def count_draws(self, monkeypatch):
        """Seeds of the datasets eval draws, one entry per draw."""
        seeds = []
        real_draw = simulate._draw_users

        def counting_draw(scenario):
            seeds.append(scenario.seed)
            return real_draw(scenario)

        monkeypatch.setattr(simulate, "_draw_users", counting_draw)
        return seeds

    def test_custom_cells_produce_sweep_rows(self, tmp_path):
        config, out = self.eval_config(tmp_path, [0, 1], cells=[self.tiny_cell()])
        assert main(["eval", "--config", config]) == EXIT_OK
        rows = fio.read_sweep(out / "sweep.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["cell"] == "smoke"
        assert row["seeds_ok"] == "2" and row["seeds_failed"] == "0"
        assert 0 <= int(row["converged"]) <= 2
        assert float(row["iterations_mean"]) >= 1.0
        assert 0.0 <= float(row["delta_mean"]) < 1.5
        assert 0.0 <= float(row["accuracy_mean"]) <= 1.0
        assert row["note"] == ""

    def test_failures_recorded_not_fatal(self, tmp_path):
        # The two cells share one (failing) fit per seed: both fail.
        bad = self.tiny_cell(cell="broken", mu_variant="bogus")
        bad_threshold = self.tiny_cell(
            cell="broken_threshold",
            mu_variant="bogus",
            rule={"type": "threshold", "value": 0.7},
        )
        config, out = self.eval_config(tmp_path, [0, 1], cells=[bad, bad_threshold])
        assert main(["eval", "--config", config]) == EXIT_OK
        for row in fio.read_sweep(out / "sweep.csv"):
            assert row["seeds_ok"] == "0" and row["seeds_failed"] == "2"
            assert row["converged"] == "0" and row["iterations_mean"] == ""
            assert "bogus" in row["note"]

    def test_seeds_must_be_non_empty_list(self, tmp_path):
        for seeds in ([], "0"):
            config, _ = self.eval_config(tmp_path, seeds, cells=[self.tiny_cell()])
            assert main(["eval", "--config", config]) == EXIT_VALIDATION

    # Cast to an integer, each of these would be seed 1 fitted a second time.
    @pytest.mark.parametrize("seed", [1.5, True, "1"], ids=["float", "bool", "string"])
    def test_seed_that_is_not_a_json_integer_exits_2(self, tmp_path, capsys, seed):
        config, out = self.eval_config(tmp_path, [1, seed], cells=[self.tiny_cell()])
        assert main(["eval", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, f"eval seeds must be JSON integers, got {json.dumps(seed)}")
        assert not (out / "sweep.csv").exists()

    def test_negative_seed_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        calls = self.count_fits(monkeypatch)
        config, out = self.eval_config(tmp_path, [1, -1], cells=[self.tiny_cell()])
        assert main(["eval", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "eval seeds must be non-negative, got -1")
        assert calls == [] and not (out / "sweep.csv").exists()

    def test_repeated_seed_exits_2(self, tmp_path, capsys):
        config, out = self.eval_config(tmp_path, [1, 0, 1], cells=[self.tiny_cell()])
        assert main(["eval", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "eval seeds repeat 1")
        assert not (out / "sweep.csv").exists()

    def test_cell_scenario_with_a_fractional_bound_exits_2(self, tmp_path, capsys):
        cell = self.tiny_cell(scenario={**tiny_scenario(m=30), "n_range": [20.5, 30]})
        config, out = self.eval_config(tmp_path, [0], cells=[cell])
        assert main(["eval", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "n_range bounds must be integers")
        assert not (out / "sweep.csv").exists()

    def test_bad_scenario_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # The good cell comes first; no fit of it runs either.
        bad = self.tiny_cell(
            cell="bad", scenario={**tiny_scenario(m=30), "n_range": [20.5, 30]}
        )
        calls = self.count_fits(monkeypatch)
        draws = self.count_draws(monkeypatch)
        config, out = self.eval_config(tmp_path, [1, 2, 3], cells=[self.tiny_cell(), bad])
        assert main(["eval", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "n_range bounds must be integers")
        assert calls == [] and draws == []
        assert not (out / "sweep.csv").exists()

    def rejected_before_any_draw(self, tmp_path, capsys, monkeypatch, cells, message):
        calls = self.count_fits(monkeypatch)
        draws = self.count_draws(monkeypatch)
        config, out = self.eval_config(tmp_path, [1, 2], cells=cells)
        assert main(["eval", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, message)
        assert calls == [] and draws == []
        assert not (out / "sweep.csv").exists()

    # In each, the good cell comes first; no draw or fit of it runs either.
    @pytest.mark.parametrize("key", ["cell", "family", "scenario", "mu_variant"])
    def test_cell_missing_a_key_exits_2_before_any_draw(
        self, tmp_path, capsys, monkeypatch, key
    ):
        bad = self.tiny_cell(cell="bad")
        del bad[key]
        message = f"eval cell 1 is missing required key {key!r}"
        cells = [self.tiny_cell(), bad]
        self.rejected_before_any_draw(tmp_path, capsys, monkeypatch, cells, message)

    @pytest.mark.parametrize("key", ["cell", "family", "mu_variant"])
    @pytest.mark.parametrize("value", [["beta"], 5, None], ids=["list", "number", "null"])
    def test_cell_key_that_is_not_a_string_exits_2_before_any_draw(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        bad = self.tiny_cell(**{key: value})
        message = f"eval cell 1 {key!r} must be a JSON string, got {json.dumps(value)}"
        cells = [self.tiny_cell(), bad]
        self.rejected_before_any_draw(tmp_path, capsys, monkeypatch, cells, message)

    @pytest.mark.parametrize(
        "bad", [1, None, "smoke", ["smoke"]], ids=["int", "null", "string", "list"]
    )
    def test_cell_that_is_not_an_object_exits_2_before_any_draw(
        self, tmp_path, capsys, monkeypatch, bad
    ):
        message = f"eval cell 1 must be a JSON object, got {json.dumps(bad)}"
        cells = [self.tiny_cell(), bad]
        self.rejected_before_any_draw(tmp_path, capsys, monkeypatch, cells, message)

    @pytest.mark.parametrize("cells", [{"smoke": 1}, "smoke"], ids=["object", "string"])
    def test_cells_that_are_not_a_list_exit_2_before_any_draw(
        self, tmp_path, capsys, monkeypatch, cells
    ):
        message = f"eval 'cells' must be a JSON list, got {json.dumps(cells)}"
        self.rejected_before_any_draw(tmp_path, capsys, monkeypatch, cells, message)

    def test_cell_prior_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        cell = self.tiny_cell(scenario={**tiny_scenario(m=30), "prior": "two_point"})
        config, out = self.eval_config(tmp_path, [0], cells=[cell])
        assert main(["eval", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "a prior must be a JSON object")
        assert not (out / "sweep.csv").exists()

    def test_cell_scenario_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        cell = self.tiny_cell(scenario="beta")
        config, out = self.eval_config(tmp_path, [0], cells=[cell])
        assert main(["eval", "--config", config]) == EXIT_VALIDATION
        one_line_error(capsys, "a scenario must be a JSON object, got 'beta'")
        assert not (out / "sweep.csv").exists()

    def test_fit_and_eval_build_no_per_user_objects(self, tmp_path, monkeypatch, capsys):
        from prefqc import FilterDecision, PosteriorSummary, UserHistory

        def refuse(obj, *args, **kwargs):
            raise AssertionError(f"built a {type(obj).__name__}")

        for cls in (UserHistory, PosteriorSummary, FilterDecision):
            monkeypatch.setattr(cls, "__init__", refuse)
        sim = simulate_into(tmp_path)
        fits = {
            "free": {"family": "beta", "mu_mode": "free",
                     "regularizer": {"type": "log_prior_on_mu", "a": 8.0, "b": 2.0}},
            "flipped": {"family": "two_point", "mu": 0.2},
        }
        for name, extra in fits.items():
            config, out = fit_config(tmp_path, sim, name=name, **{"mu": None, **extra})
            assert main(["fit", "--config", config]) == EXIT_OK
            assert (out / "trajectory.csv").is_file()
        tail = {"type": "tail_probability", "eta_star": 0.5, "level": 0.6}
        cells = [
            self.tiny_cell(),
            self.tiny_cell(cell="threshold", rule={"type": "threshold", "value": 0.7}),
            self.tiny_cell(cell="tail", rule=tail, quantile=0.3),
            self.tiny_cell(cell="free", family="beta", mu_variant="beta_prior", rule=tail),
        ]
        capsys.readouterr()
        rows = self.run_sweep(tmp_path, "sweep", cells, [0, 1])
        assert "0 failed runs" in capsys.readouterr().out
        assert all(row["note"] == "" and row["accuracy_mean"] != "" for row in rows.values())

    def test_needs_cells_or_known_preset(self, tmp_path):
        config, _ = self.eval_config(tmp_path, [0], preset="unknown_sweep")
        assert main(["eval", "--config", config]) == EXIT_VALIDATION

    def mixed_cells(self):
        """Two datasets (mu 0.8 and 0.9) per seed; mu 0.8 has a second fit."""
        threshold = {"type": "threshold", "value": 0.7}
        return [
            self.tiny_cell(),
            self.tiny_cell(cell="second"),
            self.tiny_cell(cell="threshold", rule=threshold),
            self.tiny_cell(cell="mu0.9", scenario=tiny_scenario(mu=0.9, m=30)),
            self.tiny_cell(
                cell="mu0.9_threshold",
                scenario=tiny_scenario(mu=0.9, m=30),
                rule=threshold,
            ),
            # The mu 0.8 dataset's second fit.
            self.tiny_cell(cell="free", mu_variant="beta_prior"),
            self.tiny_cell(cell="free_threshold", mu_variant="beta_prior", rule=threshold),
        ]

    # Two values' mean and deviation have the same bits in either order;
    # three values' can differ.
    @pytest.mark.parametrize("seeds", [[1, 0], [2, 0, 1]], ids=["two", "three"])
    def test_seed_order_does_not_change_the_sweep(self, tmp_path, seeds):
        digests = []
        for order in (seeds, sorted(seeds)):
            config, out = self.eval_config(tmp_path, order, cells=self.mixed_cells())
            assert main(["eval", "--config", config]) == EXIT_OK
            digests.append(sha256(out / "sweep.csv"))
        assert digests[0] == digests[1]

    def test_each_dataset_is_fitted_before_the_next_is_drawn(self, tmp_path, monkeypatch):
        # One dataset's draws and rows are alive at a time.
        events = []
        real_draw, real_fit_rows = simulate._draw_users, cli.fit_rows
        real_user_rows = filtering.user_rows

        def draw(scenario):
            events.append(("draw", scenario.mu, scenario.seed))
            return real_draw(scenario)

        def fit_rows(rows, config, *, strict=False):
            events.append(("fit", config.mu_mode))
            return real_fit_rows(rows, config, strict=strict)

        def summarize(*args, **kwargs):
            events.append(("summarize",))
            return real_user_rows(*args, **kwargs)

        monkeypatch.setattr(simulate, "_draw_users", draw)
        monkeypatch.setattr(cli, "fit_rows", fit_rows)
        monkeypatch.setattr(filtering, "user_rows", summarize)
        self.run_sweep(tmp_path, "order", self.mixed_cells(), [1, 0])
        # Each fit is summarized once, before its first rule is scored.
        mu_08 = [("fit", "fixed"), ("summarize",), ("fit", "free"), ("summarize",)]
        mu_09 = [("fit", "fixed"), ("summarize",)]
        assert events == [
            ("draw", 0.8, 1), *mu_08,
            ("draw", 0.8, 0), *mu_08,
            ("draw", 0.9, 1), *mu_09,
            ("draw", 0.9, 0), *mu_09,
        ]

    def test_each_dataset_is_grouped_into_rows_once(self, tmp_path, monkeypatch):
        # The fits and every rule cell's digests share one (sum_z, n) table.
        events = []
        real_draw, real_unique_rows = simulate._draw_users, cli.unique_rows

        def draw(scenario):
            events.append(("draw", scenario.mu, scenario.seed))
            return real_draw(scenario)

        def unique_rows(sum_z, n):
            events.append(("group",))
            return real_unique_rows(sum_z, n)

        monkeypatch.setattr(simulate, "_draw_users", draw)
        monkeypatch.setattr(cli, "unique_rows", unique_rows)
        # filtering's own binding of the name too, where it has one.
        monkeypatch.setattr(filtering, "unique_rows", unique_rows, raising=False)
        self.run_sweep(tmp_path, "grouped", self.mixed_cells(), [1, 0])
        assert events == [
            ("draw", 0.8, 1), ("group",),
            ("draw", 0.8, 0), ("group",),
            ("draw", 0.9, 1), ("group",),
            ("draw", 0.9, 0), ("group",),
        ]

    def test_cells_sharing_a_fit_fit_once(self, tmp_path, monkeypatch):
        cells = [
            self.tiny_cell(cell="ranking"),
            self.tiny_cell(
                cell="threshold", rule={"type": "threshold", "value": 0.7}
            ),
        ]
        calls = self.count_fits(monkeypatch)
        rows = self.run_sweep(tmp_path, "shared", cells, [0, 1])
        assert len(calls) == 2  # one fit per seed, not per (cell, seed)
        for cell in cells:
            alone = self.run_sweep(tmp_path, cell["cell"], [cell], [0, 1])
            row, ref = rows[cell["cell"]], alone[cell["cell"]]
            assert row["seeds_ok"] == "2"
            for column in ("delta_mean", "delta_std", "accuracy_mean", "accuracy_std"):
                assert row[column] == ref[column]
        assert rows["ranking"]["delta_mean"] == rows["threshold"]["delta_mean"]

    def test_cells_sharing_a_dataset_simulate_once(self, tmp_path, monkeypatch):
        threshold = {"type": "threshold", "value": 0.7}
        cells = [
            self.tiny_cell(cell=f"{variant}_{name}", mu_variant=variant, **rule)
            for variant in ("known", "beta_prior")
            for name, rule in (("ranking", {}), ("threshold", {"rule": threshold}))
        ]
        # The cell's own seed, which eval replaces, does not split the dataset.
        cells[-1]["scenario"] = tiny_scenario(m=30, seed=99)
        draws = self.count_draws(monkeypatch)
        rows = self.run_sweep(tmp_path, "shared", cells, [0, 1])
        assert draws == [0, 1]  # one draw per seed, not per (fit, seed)
        for cell in cells:
            alone = self.run_sweep(tmp_path, cell["cell"], [cell], [0, 1])
            assert rows[cell["cell"]] == alone[cell["cell"]]
            assert rows[cell["cell"]]["seeds_ok"] == "2"

    def test_signed_zero_scenarios_draw_apart(self, tmp_path, monkeypatch):
        # -0.0 == 0.0, but they spell two scenarios; each is drawn.
        scenario = tiny_scenario(m=30)
        scenario["prior"] = {"type": "discrete_masses", "atoms": [[0.5, 0.0], [0.5, 0.9]]}
        negative = json.loads(json.dumps(scenario).replace("0.0]", "-0.0]"))
        cells = [
            self.tiny_cell(cell="zero", scenario=scenario, rule=None),
            self.tiny_cell(cell="negative_zero", scenario=negative, rule=None),
        ]
        draws = self.count_draws(monkeypatch)
        self.run_sweep(tmp_path, "signed", cells, [0])
        assert draws == [0, 0]

    def test_unknown_mu_variant_fails_only_its_fit(self, tmp_path, monkeypatch):
        cells = [
            self.tiny_cell(cell="good"),
            self.tiny_cell(cell="bogus", mu_variant="bogus"),
            self.tiny_cell(
                cell="bogus_threshold",
                mu_variant="bogus",
                rule={"type": "threshold", "value": 0.7},
            ),
        ]
        draws = self.count_draws(monkeypatch)
        rows = self.run_sweep(tmp_path, "mixed", cells, [0, 1])
        assert draws == [0, 1]
        alone = self.run_sweep(tmp_path, "alone", cells[:1], [0, 1])
        assert rows["good"] == alone["good"] and rows["good"]["seeds_ok"] == "2"
        for name in ("bogus", "bogus_threshold"):
            assert rows[name]["seeds_ok"] == "0" and rows[name]["seeds_failed"] == "2"
            assert "unknown mu_variant 'bogus'" in rows[name]["note"]

    def test_failed_draw_fails_every_cell_of_its_dataset(self, tmp_path, monkeypatch):
        def failing_draw(scenario):
            raise FloatingPointError("draw failed")

        monkeypatch.setattr(simulate, "_draw_users", failing_draw)
        cells = [self.tiny_cell(), self.tiny_cell(cell="free", mu_variant="beta_prior")]
        rows = self.run_sweep(tmp_path, "draw", cells, [0])
        for row in rows.values():
            assert row["seeds_ok"] == "0" and row["seeds_failed"] == "1"
            assert row["note"] == "FloatingPointError: draw failed"

    def test_member_quantile_honoured(self, tmp_path):
        cells = [
            self.tiny_cell(cell="median"),
            self.tiny_cell(cell="upper", quantile=0.8),
        ]
        rows = self.run_sweep(tmp_path, "shared", cells, [0, 1])
        for cell in cells:
            alone = self.run_sweep(tmp_path, cell["cell"], [cell], [0, 1])
            name = cell["cell"]
            assert rows[name]["accuracy_mean"] == alone[name]["accuracy_mean"]
        assert rows["median"]["accuracy_mean"] != rows["upper"]["accuracy_mean"]

    def test_strict_fit_failure_fails_every_member(self, tmp_path, monkeypatch):
        cells = [self.tiny_cell(cell="a"), self.tiny_cell(cell="b", rule=None)]
        calls = self.count_fits(monkeypatch, fail_when_strict=True)
        rows = self.run_sweep(tmp_path, "strict", cells, [0], "--strict")
        assert calls == [True]
        for row in rows.values():
            assert row["seeds_ok"] == "0" and row["seeds_failed"] == "1"
            assert row["note"].startswith("LikelihoodDecreaseError")

    def test_rule_failure_fails_only_its_cell(self, tmp_path):
        # At quantile 1 no user's true eta lies above the threshold, so the
        # rule's scoring fails; a bad rule or quantile exits 2 before any draw.
        cells = [
            self.tiny_cell(cell="good"),
            self.tiny_cell(cell="bad", quantile=1.0),
        ]
        rows = self.run_sweep(tmp_path, "rules", cells, [0, 1])
        assert rows["good"]["seeds_ok"] == "2" and rows["good"]["note"] == ""
        assert rows["bad"]["seeds_ok"] == "0" and rows["bad"]["seeds_failed"] == "2"
        assert rows["bad"]["note"] == "ValueError: no user's true eta lies above the threshold"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"quantile": math.nan}, "cells[1].quantile must be a finite real number, got nan"),
            ({"quantile": 1.5}, "cells[1].quantile must lie in [0, 1]"),
            ({"quantile": "0.5"}, "cells[1].quantile must be a finite real number, got '0.5'"),
            (
                {"rule": {"type": "top_fraction", "fraction": math.inf}},
                "cells[1].rule.fraction must be a finite real number, got inf",
            ),
            (
                {"rule": {"type": "threshold", "value": math.nan}},
                "cells[1].rule: threshold value must be a finite real number, got nan",
            ),
            ({"rule": {"type": "nonsense"}}, "cells[1].rule: unknown rule type 'nonsense'"),
            ({"rule": {"type": "top_fraction"}}, "cells[1].rule.fraction is missing"),
            ({"rule": "top"}, "cells[1].rule: a rule must be a JSON object, got 'top'"),
        ],
        ids=["quantile_nan", "quantile_range", "quantile_string", "fraction_inf",
             "threshold_nan", "rule_type", "rule_field_missing", "rule_not_an_object"],
    )
    def test_bad_rule_or_quantile_exits_2_before_any_draw(
        self, tmp_path, capsys, monkeypatch, overrides, message
    ):
        # These used to exit 0 with the error only in sweep.csv's note.
        draws = []
        monkeypatch.setattr(simulate, "_draw_users", lambda s: draws.append(s))
        cells = [self.tiny_cell(cell="good"), self.tiny_cell(cell="bad", **overrides)]
        config, out = self.eval_config(tmp_path, [0], cells=cells)
        capsys.readouterr()
        assert main(["eval", "--config", config]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert draws == []
        assert not (out / "sweep.csv").exists()

    def test_builtin_grids_have_expected_shapes(self):
        table3 = _eval_cells({"preset": "table3_grid"})
        assert len(table3) == 12
        assert {c["family"] for c in table3} == {"two_point", "beta"}
        assert all(c["mu_variant"] == "known" for c in table3)
        mu_effect = _eval_cells({"preset": "mu_effect"})
        assert len(mu_effect) == 16
        assert {c["mu_variant"] for c in mu_effect} == {"known", "beta_prior"}
        mus = {fio.decode_scenario(c["scenario"]).mu for c in mu_effect}
        assert mus == {0.6, 0.7, 0.8, 0.9}

    def test_mu_effect_threshold_is_the_beta_default_median(self):
        median = simulate.prior_quantile(simulate.scenario_preset("beta_default").prior, 0.5)
        assert cli._BETA_DEFAULT_MEDIAN == median
        thresholds = {
            c["rule"]["value"]
            for c in _eval_cells({"preset": "mu_effect"})
            if c["rule"]["type"] == "threshold"
        }
        assert thresholds == {median}

    def test_mu_effect_cells_load_no_scipy(self):
        # A fresh interpreter: this test process has imported scipy already.
        script = (
            "import sys\n"
            "from prefqc.cli import _eval_cells\n"
            "assert len(_eval_cells({'preset': 'mu_effect'})) == 16\n"
            "assert 'scipy' not in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=child_env(),
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------- numbers from outside

BAD = "<bad number>"
# Numbers that JSON can hold but no field takes, by their JSON spelling.
BAD_NUMBERS = {"true": True, "NaN": math.nan, "Infinity": math.inf, "string": "1"}
# Where a command reads a number from outside, with BAD in one numeric field:
# (command, config keys, {file the config names: its JSON}, field, output).
NUMBER_ENTRY_POINTS = {
    "simulate_prior": (
        "simulate",
        {"scenario": {**tiny_scenario(), "prior": {"type": "two_point", "q1": BAD,
                                                   "eta_lo": 0.4, "eta_hi": 0.98}}},
        {}, "scenario.prior.q1", "annotations.jsonl",
    ),
    "simulate_per_item_p": (
        "simulate",
        {"scenario": {**tiny_scenario(), "per_item_p_model": {"alpha": 8.0, "beta": BAD}}},
        {}, "scenario.per_item_p_model.beta", "annotations.jsonl",
    ),
    "eval_cell": (
        "eval",
        {"cells": [{"cell": "c", "family": "beta", "mu_variant": "known",
                    "scenario": {**tiny_scenario(), "prior": {"type": "logistic_normal",
                                                              "m": BAD, "s": 1.0}}}]},
        {}, "cells[0].scenario.prior.m", "sweep.csv",
    ),
    "fit": ("fit", {"mu": BAD}, {}, "mu", "fit.json"),
    "fit_init": (
        "fit",
        {"family": "beta",
         "init": {"prior": {"type": "beta", "alpha": BAD, "beta": 2.0}, "mu": 0.8}},
        {}, "init.prior.alpha", "fit.json",
    ),
    "fit_regularizer": (
        "fit",
        {"family": "beta", "mu": None, "mu_mode": "free",
         "regularizer": {"type": "box_on_mu", "lo": 0.6, "hi": BAD}},
        {}, "regularizer.hi", "fit.json",
    ),
    "truth_scenario": (
        "fit",
        {"truth_scenario": "truth.json"},
        {"truth.json": {**tiny_scenario(), "prior": {"type": "two_point", "q1": 0.6,
                                                     "eta_lo": BAD, "eta_hi": 0.98}}},
        "prior.eta_lo", "fit.json",
    ),
    "infer_fit_params": (
        "infer",
        {"fit": "fit.json", "rule": {"type": "top_fraction", "fraction": 0.5}},
        {"fit.json": {"params": {"prior": {"type": "beta", "alpha": 2.0, "beta": BAD},
                                 "mu": 0.8}}},
        "params.prior.beta", "decisions.csv",
    ),
}
# The inputs that ran to exit 0 before each dataclass checked its own
# numbers; a scenario one is given both to simulate and as an eval cell's.
MOTIVATING_INPUTS = {
    "two_point_q1_true": (
        "scenario",
        {"prior": {"type": "two_point", "q1": True, "eta_lo": 0.4, "eta_hi": 0.98}},
        "prior.q1 must be a finite real number, got True",
    ),
    "logistic_normal_m_nan": (
        "scenario",
        {"prior": {"type": "logistic_normal", "m": math.nan, "s": 1.0}},
        "prior.m must be a finite real number, got nan",
    ),
    "beta_alpha_inf": (
        "scenario",
        {"prior": {"type": "beta", "alpha": math.inf, "beta": 5.0}},
        "prior.alpha must be a finite real number, got inf",
    ),
    "per_item_p_inf": (
        "scenario",
        {"per_item_p_model": {"alpha": math.inf, "beta": math.inf}},
        "per_item_p_model.alpha must be a finite real number, got inf",
    ),
    "tol_param_inf": ("fit", {"tol_param": math.inf}, "tolerances must be positive"),
    "log_prior_on_mu_a_inf": (
        "fit",
        {"family": "beta", "mu": None, "mu_mode": "free",
         "regularizer": {"type": "log_prior_on_mu", "a": math.inf, "b": 2.0}},
        "regularizer.a must be a finite real number, got inf",
    ),
}
OUTPUTS = {"simulate": "annotations.jsonl", "eval": "sweep.csv", "fit": "fit.json"}


def with_bad(obj, bad):
    """JSON `obj` with BAD, wherever it stands, replaced by `bad`."""
    if isinstance(obj, dict):
        return {key: with_bad(value, bad) for key, value in obj.items()}
    if isinstance(obj, list):
        return [with_bad(value, bad) for value in obj]
    return bad if obj == BAD else obj


def bad_number_cases():
    """(command, config keys, files, message, output) per entry point and input."""
    for entry, (command, keys, files, field, output) in NUMBER_ENTRY_POINTS.items():
        for spelling, bad in BAD_NUMBERS.items():
            message = f"{field} must be a finite real number, got {bad!r}"
            yield pytest.param(
                command, with_bad(keys, bad), with_bad(files, bad), message, output,
                id=f"{entry}-{spelling}",
            )
    for name, (kind, fields, message) in MOTIVATING_INPUTS.items():
        if kind == "fit":
            yield pytest.param("fit", fields, {}, message, "fit.json", id=f"fit-{name}")
            continue
        # The message names the field's path inside the scenario; the
        # scenario sits at "scenario" in simulate's config and in cell 0 in eval's.
        scenario = {**tiny_scenario(), **fields}
        cell = {"cell": "c", "family": "beta", "mu_variant": "known", "scenario": scenario}
        for command, keys, at in (
            ("simulate", {"scenario": scenario}, "scenario"),
            ("eval", {"cells": [cell]}, "cells[0].scenario"),
        ):
            yield pytest.param(
                command, keys, {}, f"{at}.{message}", OUTPUTS[command],
                id=f"{command}-{name}",
            )


@pytest.mark.parametrize("command, keys, files, message, output", bad_number_cases())
def test_bad_number_exits_2_naming_its_field(
    tmp_path, monkeypatch, capsys, command, keys, files, message, output
):
    """Every command checks a number from outside before it writes a file."""
    monkeypatch.chdir(tmp_path)
    simulate_into(tmp_path)
    for name, obj in files.items():
        Path(name).write_text(json.dumps(obj))
    base = {
        "simulate": {},
        "eval": {"seeds": [1]},
        "fit": {"annotations": "sim/annotations.jsonl", "family": "two_point", "mu": 0.8},
        "infer": {"annotations": "sim/annotations.jsonl"},
    }[command]
    config = write_config(tmp_path / "config.json", **{**base, **keys, "out_dir": "out"})
    capsys.readouterr()
    assert main([command, "--config", config]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / output).exists()


class TestParser:
    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["explode", "--config", "x.json"])

    def test_command_requires_config(self):
        with pytest.raises(SystemExit):
            main(["fit"])

    # simulate alone reads --seed, and fit and eval alone read --strict.
    @pytest.mark.parametrize(
        "command, flag",
        [(name, "--seed=5") for name in ("fit", "infer", "filter", "estimate-mu", "eval")]
        + [(name, "--strict") for name in ("simulate", "infer", "filter", "estimate-mu")],
    )
    def test_flag_the_command_does_not_read_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "x.json", flag])
        assert exc.value.code == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err


def child_env():
    """The environment of a fresh interpreter that imports this prefqc.

    Its stdout is block-buffered, as a pipe makes it: the exit must flush it.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return env


# No command imports a process pool, simulate and eval load numpy.random on
# their first draw, and two rare warnings load logging.
@pytest.mark.parametrize("module", ["concurrent.futures.process", "numpy.random", "logging"])
def test_import_leaves_out(module):
    script = f"import sys\nimport prefqc.cli\nassert {module!r} not in sys.modules\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=child_env(),
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr


def test_filtering_loads_no_file_format():
    # Selection and posteriors only: io formats their reports.
    script = "import sys\nimport prefqc.filtering\nassert 'prefqc.io' not in sys.modules\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=child_env(),
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr


def modules_after(tmp_path, command, **cfg):
    """The prefqc and numpy.ma modules a fresh process has loaded after running
    `command` on a config."""
    config = write_config(tmp_path / f"{command}_modules.json", **cfg)
    script = (
        "import sys\n"
        "from prefqc.cli import main\n"
        f"assert main([{command!r}, '--config', {config!r}]) == 0\n"
        "print(*[m for m in sys.modules if m.startswith(('prefqc.', 'numpy.ma'))])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=child_env(),
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    sim = simulate_into(tmp_path)
    annotations = str(sim / "annotations.jsonl")
    fit_out = tmp_path / "fit"
    fit = modules_after(
        tmp_path, "fit", annotations=annotations, out_dir=str(fit_out),
        family="two_point", mu=0.8,
    )
    assert "prefqc.em" in fit
    assert not fit & {"prefqc.simulate", "prefqc.filtering"}
    infer = modules_after(
        tmp_path, "infer", annotations=annotations, fit=str(fit_out / "fit.json"),
        out_dir=str(tmp_path / "infer"), rule={"type": "top_fraction", "fraction": 0.5},
    )
    assert "prefqc.filtering" in infer and "prefqc.simulate" not in infer
    cells = [
        {
            "cell": "c",
            "family": "two_point",
            "scenario": tiny_scenario(m=30),
            "mu_variant": "known",
            "rule": {"type": "threshold", "value": 0.7},
        }
    ]
    evaluated = modules_after(
        tmp_path, "eval", cells=cells, seeds=[0], out_dir=str(tmp_path / "eval")
    )
    assert {"prefqc.simulate", "prefqc.filtering"} <= evaluated
    assert "numpy.ma" not in evaluated  # recovery_accuracy's quantile avoids it
    assert (tmp_path / "eval" / "sweep.csv").exists()


_spec = importlib.util.spec_from_file_location(
    "gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py"
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


# eval's fits at a known and a free mu, each with a rule, on a small Beta draw.
EVAL_CELLS = [
    {
        "cell": f"c_{variant}",
        "family": "beta",
        "scenario": {
            **tiny_scenario(m=60),
            "prior": {"type": "beta", "alpha": 3.0, "beta": 5.0},
        },
        "mu_variant": variant,
        "rule": {"type": "top_fraction", "fraction": 0.5},
    }
    for variant in ("known", "beta_prior")
]


@pytest.mark.parametrize(
    "fit_keys", [{}, {"mu_mode": "free", "max_iters": 2}], ids=["converged", "capped"]
)
def test_process_writes_what_main_writes(tmp_path, monkeypatch, capsys, fit_keys):
    """`python -m prefqc.cli` exits, prints and writes as main does in-process.

    The process sets malloc's thresholds before the command and freezes the
    collector before it exits; main must do neither, and no output may wait
    on the collection the freeze skips. The commands are those the
    benchmark runs.
    """
    spec = gen.BulkSpec("beta", (3.0, 5.0), 0.8, users=100, n_range=(10, 30), item_pool=200)
    for side in ("main", "process"):
        work = tmp_path / side
        work.mkdir()
        gen.generate(spec, 3, work / "annotations.jsonl")
        # Paths relative to the working directory: both sides print the same.
        write_config(work / "fit.json", annotations="annotations.jsonl", out_dir="out",
                     family="beta", mu=0.8, **fit_keys)
        write_config(work / "infer.json", annotations="annotations.jsonl",
                     fit="out/fit.json", out_dir="out", eta_stars=[0.3, 0.5, 0.7],
                     rule={"type": "tail_probability", "eta_star": 0.5, "level": 0.5})
        write_config(work / "eval.json", cells=EVAL_CELLS, seeds=[0, 1], out_dir="out")
    commands = [[command, "--config", f"{command}.json"] for command in ("fit", "infer", "eval")]

    monkeypatch.chdir(tmp_path / "main")
    frozen = gc.get_freeze_count()
    in_process = []
    for argv in commands:
        code = main(argv)
        in_process.append((code, *capsys.readouterr()))
    assert gc.get_freeze_count() == frozen

    as_process = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "prefqc.cli", *argv],
            cwd=tmp_path / "process",
            env=child_env(),
            capture_output=True,
            text=True,
            check=False,
        )
        as_process.append((proc.returncode, proc.stdout, proc.stderr))
    assert as_process == in_process

    assert [code for code, _, _ in in_process] == [EXIT_OK] * 3
    fit_err, infer_err, eval_err = (err for _, _, err in in_process)
    assert eval_err == ""
    if fit_keys:
        assert fit_err == "warning: EM stopped at the 2-iteration cap without converging\n"
        assert infer_err.startswith("warning: out/fit.json holds a fit that did not converge")
    else:
        assert fit_err == infer_err == ""
    written = sorted(p.name for p in (tmp_path / "main" / "out").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "process" / "out").iterdir())
    assert len(written) == 7
    for name in written:
        assert sha256(tmp_path / "main" / "out" / name) == sha256(
            tmp_path / "process" / "out" / name
        ), name


class FakeLibc:
    """A C library whose `mallopt` records each call in `events` and returns
    `result`; `mallopt` is missing when `result` is None."""

    def __init__(self, events, result=1):
        if result is not None:

            def mallopt(param, value):
                events.append(("mallopt", param, value))
                return result

            self.mallopt = mallopt


def no_libc(name):
    raise OSError("no C library")


class TestRun:
    """`run()`, the process entry point, around `main`."""

    @pytest.fixture
    def events(self, monkeypatch):
        events = []
        monkeypatch.setattr(cli.sys, "platform", "linux")
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        return events

    def run(self, monkeypatch, events, code=EXIT_OK):
        def fake_main():
            events.append("main")
            return code

        monkeypatch.setattr(cli, "main", fake_main)
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        return exit_info.value.code

    def test_run_sets_the_thresholds_once_before_main(self, monkeypatch, events):
        loads = []

        def cdll(name):
            loads.append(name)
            return FakeLibc(events)

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert self.run(monkeypatch, events) == EXIT_OK
        assert loads == [None]
        assert events == [
            ("mallopt", -3, 32 << 20),  # M_MMAP_THRESHOLD
            ("mallopt", -1, 64 << 20),  # M_TRIM_THRESHOLD
            "main",
            "freeze",
        ]

    def test_main_leaves_the_allocator_alone(self, monkeypatch, events, tmp_path):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: FakeLibc(events))
        config = write_config(
            tmp_path / "sim.json", scenario=tiny_scenario(), out_dir=str(tmp_path / "sim")
        )
        assert main(["simulate", "--config", config]) == EXIT_OK
        assert events == []

    @pytest.mark.parametrize(
        "cdll",
        [
            no_libc,
            lambda name: FakeLibc([], result=None),
            lambda name: FakeLibc([], result=0),
        ],
        ids=["no-libc", "no-mallopt", "refused"],
    )
    @pytest.mark.parametrize("code", [EXIT_OK, EXIT_NUMERIC])
    def test_run_exits_with_mains_code_whatever_the_c_library(
        self, monkeypatch, events, cdll, code
    ):
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert self.run(monkeypatch, events, code) == code
        assert events == ["main", "freeze"]

    def test_other_platforms_load_no_c_library(self, monkeypatch, events):
        monkeypatch.setattr(cli.sys, "platform", "darwin")
        monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
        assert self.run(monkeypatch, events) == EXIT_OK
        assert events == ["main", "freeze"]


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the thresholds are glibc's")
def test_glibc_accepts_both_thresholds():
    # mallopt returns 0 for a value it refuses, and run() goes on without
    # it: a threshold above glibc's ceiling would drop the setting silently.
    script = (
        "import ctypes\n"
        "from prefqc import cli\n"
        "libc = ctypes.CDLL(None)\n"
        "print([libc.mallopt(param, value) for param, value in cli._MALLOPTS])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=child_env(), capture_output=True,
        text=True, check=True,
    )
    assert proc.stdout == "[1, 1]\n"
