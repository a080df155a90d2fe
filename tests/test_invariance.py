"""Relations between two command-line runs: outputs depend on the records only
through each user's (sum_z, n) counts and the ids.

Each test runs `fit` then `infer` through `cli.main` on one input and on a
transformed copy of it, and compares the files the two runs write.
"""

import json

import numpy as np
import pytest

from prefqc import io as fio
from prefqc.cli import EXIT_OK, main
from prefqc.model import AnnotationRecord

MU = 0.8

# Prior of the simulated input, by fitted family.
INPUT_PRIORS = {
    "beta": {"type": "beta", "alpha": 3.0, "beta": 2.0},
    "two_point": {"type": "two_point", "q1": 0.4, "eta_lo": 0.2, "eta_hi": 0.95},
}
RULES = {
    "tail": {"type": "tail_probability", "eta_star": 0.5, "level": 0.6},
    "top": {"type": "top_fraction", "fraction": 0.5},
    "threshold": {"type": "threshold", "value": 0.6},
}
# (prior of the simulated input, fitted family, infer rule), each family with each rule
CASES = {
    f"{family}_{rule}": (INPUT_PRIORS[family], family, RULES[rule])
    for family in INPUT_PRIORS
    for rule in RULES
}


def write_config(path, **cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def simulate(tmp_path, prior):
    out = tmp_path / "sim"
    scenario = {"prior": prior, "mu": MU, "num_users": 60, "n_range": [5, 40],
                "seed": 3, "per_item_p_model": None}
    config = write_config(tmp_path / "sim.json", scenario=scenario, out_dir=str(out))
    assert main(["simulate", "--config", config]) == EXIT_OK
    return fio.read_annotations(out / "annotations.jsonl")


def fit_and_infer(tmp_path, name, records, family, rule, mu):
    """The fit and infer output directories of one run on `records`."""
    run = tmp_path / name
    run.mkdir()
    fio.write_annotations(run / "annotations.jsonl", records)
    fit = write_config(run / "fit_config.json", annotations=str(run / "annotations.jsonl"),
                       family=family, mu=mu, out_dir=str(run / "fit"))
    assert main(["fit", "--config", fit]) == EXIT_OK
    infer = write_config(run / "infer_config.json",
                         annotations=str(run / "annotations.jsonl"),
                         fit=str(run / "fit" / "fit.json"), rule=rule,
                         out_dir=str(run / "infer"))
    assert main(["infer", "--config", infer]) == EXIT_OK
    return run / "fit", run / "infer"


def same_lines(a, b):
    """Whether files `a` and `b` hold the same lines, in any order."""
    return sorted(a.read_bytes().splitlines()) == sorted(b.read_bytes().splitlines())


@pytest.mark.parametrize("case", CASES)
def test_record_order_changes_no_fit_and_only_the_order_of_reports(tmp_path, case):
    prior, family, rule = CASES[case]
    records = simulate(tmp_path, prior)
    order = np.random.default_rng(7).permutation(len(records))
    shuffled = [records[i] for i in order]
    assert shuffled != records
    fit_a, infer_a = fit_and_infer(tmp_path, "a", records, family, rule, MU)
    fit_b, infer_b = fit_and_infer(tmp_path, "b", shuffled, family, rule, MU)
    for name in ("fit.json", "trajectory.csv"):
        assert (fit_a / name).read_bytes() == (fit_b / name).read_bytes(), name
    for name in ("posteriors.csv", "decisions.csv", "filtered.jsonl", "pairs.jsonl"):
        assert same_lines(infer_a / name, infer_b / name), name
    for name in ("posteriors.csv", "decisions.csv"):
        header = (infer_a / name).read_bytes().splitlines()[0]
        assert (infer_b / name).read_bytes().splitlines()[0] == header, name


@pytest.mark.parametrize("case", CASES)
def test_label_flip_with_mirrored_mu_changes_only_the_flag(tmp_path, case):
    prior, family, rule = CASES[case]
    records = simulate(tmp_path, prior)
    flipped = [AnnotationRecord(r.user_id, r.item_id, 1 - r.label) for r in records]
    # The flipped run fits at 1 - (1 - MU); for 0.8 that is 0.8 exactly, so both
    # runs fit at the same mu bit for bit.
    assert 1 - (1 - MU) == MU
    fit_a, infer_a = fit_and_infer(tmp_path, "a", records, family, rule, MU)
    fit_b, infer_b = fit_and_infer(tmp_path, "b", flipped, family, rule, 1 - MU)
    fit_json_a = json.loads((fit_a / "fit.json").read_text())
    fit_json_b = json.loads((fit_b / "fit.json").read_text())
    assert fit_json_a.pop("labels_flipped") is False
    assert fit_json_b.pop("labels_flipped") is True
    assert fit_json_a == fit_json_b
    assert (fit_a / "trajectory.csv").read_bytes() == (fit_b / "trajectory.csv").read_bytes()
    for name in ("posteriors.csv", "decisions.csv"):
        assert (infer_a / name).read_bytes() == (infer_b / name).read_bytes(), name
