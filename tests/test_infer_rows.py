"""`infer` per (sum_z, n) row against the per-user reference, byte for byte.

`infer` summarizes, selects and writes `posteriors.csv` and `decisions.csv`
once per distinct (sum_z, n) row and spreads the rows to their users.
`reference.infer` does the same one user at a time, with csv.writer; the four
files must match. The inputs hold users that share rows and user ids that
CSV has to quote, a bare carriage return among them. The
shared tail sweep of `PosteriorRows.tail` is held to one star at a time.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from prefqc import (
    BetaPrior,
    FilterDecision,
    ModelParams,
    PosteriorSummary,
    TailProbability,
    Threshold,
    TopFraction,
    TwoPointPrior,
)
from prefqc.cli import EXIT_OK, main
from prefqc.em import posterior_rows
from prefqc.io import encode_params, encode_rule

import reference as ref

FILES = ("posteriors.csv", "decisions.csv", "filtered.jsonl", "pairs.jsonl")

# Ids that csv.writer quotes (comma, quote, newline, the empty string), one
# that it quotes only when "\r" is in its line terminator (a bare carriage
# return), and non-ASCII text.
ODD_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\ronly", "", "naïve—日本", "\r\n,\""]


def write_annotations(path, rng):
    """Users in groups of one (sum_z, n) row each, records shuffled.

    Each group holds plain ids and odd ones, so a TopFraction cut inside a
    group sorts odd ids against plain ones.
    """
    rows = [(9, 10), (7, 10), (7, 10), (5, 10), (200, 200), (190, 200), (20, 40), (1, 3)]
    users = [f"u{k:02d}" for k in range(28)] + ODD_IDS
    records = []
    for k, user in enumerate(users):
        sum_z, n = rows[k % len(rows)]
        labels = [1] * sum_z + [0] * (n - sum_z)
        records += [(user, f"i{j}", z) for j, z in enumerate(labels)]
    order = rng.permutation(len(records))
    text = "".join(
        json.dumps({"user_id": u, "item_id": i, "label": z}, ensure_ascii=False) + "\n"
        for u, i, z in (records[j] for j in order)
    )
    path.write_text(text, encoding="utf-8")
    return len(users)


PARAMS = {
    "beta": ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8),
    # Rows of 200 labels with few losses put all mass on eta_hi: distinct
    # rows with equal MAP and mean.
    "two_point": ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8),
}
RULES = {
    "top_fraction": TopFraction(0.45),
    "top_fraction_tied_rows": TopFraction(0.1),
    "threshold_minus_zero": Threshold(-0.0),
    "threshold": Threshold(0.5),
    "tail_star_not_evaluated": TailProbability(0.55, level=0.5),
    "tail_star_evaluated": TailProbability(0.7, level=0.2),
}
ETA_STARS = (0.3, 0.7)


def run_infer(tmp_path, annotations, params, rule, name="row"):
    out = tmp_path / name
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({"params": encode_params(params)}), encoding="utf-8")
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({
        "annotations": str(annotations), "fit": str(fit), "out_dir": str(out),
        "rule": encode_rule(rule), "eta_stars": list(ETA_STARS),
    }), encoding="utf-8")
    assert main(["infer", "--config", str(config)]) == EXIT_OK
    return out


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
@pytest.mark.parametrize("family", PARAMS)
def test_infer_files_equal_per_user_reference(tmp_path, rng, family, rule):
    annotations = tmp_path / "annotations.jsonl"
    users = write_annotations(annotations, rng)
    params = PARAMS[family]
    got = run_infer(tmp_path, annotations, params, rule)
    want = tmp_path / "reference"
    want.mkdir()
    ref.infer(annotations, params, rule, ETA_STARS, want)
    for name in FILES:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name
    lines = (got / "decisions.csv").read_bytes().count(b"\n")
    assert lines > users + 1  # ids holding a newline are quoted, not split
    if isinstance(rule, TopFraction) and (family, rule.fraction) != ("beta", 0.1):
        # The cut falls inside a group of users with equal MAP and mean; for
        # two atoms at the smaller fraction the group spans distinct rows.
        histories = ref.histories_from_records(ref.read_annotations(annotations))
        key = {
            h.user_id: (s.map_eta, s.mean_eta)
            for h, s in ((h, ref.summarize_posterior(h, params)) for h in histories)
        }
        kept = {r.user_id for r in ref.read_annotations(got / "filtered.jsonl")}
        cut = max(kept, key=lambda u: (-key[u][0], -key[u][1], u))
        tied = {h.user_id: (h.sum_z, h.n) for h in histories if key[h.user_id] == key[cut]}
        assert not tied.keys() <= kept
        spans = 2 if (family, rule.fraction) == ("two_point", 0.1) else 1
        assert len(set(tied.values())) == spans


def test_bare_carriage_return_is_quoted(tmp_path, rng):
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, rng)
    out = run_infer(tmp_path, annotations, PARAMS["beta"], Threshold(0.5))
    texts = {}
    for name in ("posteriors.csv", "decisions.csv"):
        with open(out / name, encoding="utf-8", newline="") as fh:
            texts[name] = fh.read()
        assert '\n"cr\ronly",' in texts[name]
    text = texts["decisions.csv"]
    assert '\n"two\nlines",' in text and '\n"a,b",' in text and '\n"say ""hi""",' in text
    assert "\n,true," in text or "\n,false," in text  # the empty id
    # filter reads infer's decisions back: every id, the bare carriage return's too.
    config = tmp_path / "filter.json"
    config.write_text(json.dumps({
        "annotations": str(annotations), "decisions": str(out / "decisions.csv"),
        "out_dir": str(tmp_path / "filter"),
    }), encoding="utf-8")
    assert main(["filter", "--config", str(config)]) == EXIT_OK
    for name in ("filtered.jsonl", "pairs.jsonl"):
        assert (tmp_path / "filter" / name).read_bytes() == (out / name).read_bytes()


def test_infer_builds_no_per_user_objects(tmp_path, rng, monkeypatch):
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, rng)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"infer built a {type(self).__name__}")

    monkeypatch.setattr(PosteriorSummary, "__init__", refuse)
    monkeypatch.setattr(FilterDecision, "__init__", refuse)
    for name, rule in RULES.items():
        out = run_infer(tmp_path, annotations, PARAMS["beta"], rule, name=name)
        assert all((out / f).exists() for f in FILES)


# Stars at 0, just above it, on a node, between nodes, in the top segment
# (its lower node and inside it), at and above the top node, and below 0.
SWEEP_STARS = (0.0, 1e-9, 0.123456789, 0.25, 0.3, 0.5, 0.7, 0.999, 0.9990234375,
               0.9995, 1.0, 1.5, -0.25)


def distinct_rows(count):
    """`count` distinct (sum_z, n) rows as float arrays, n from 1 up."""
    pairs = [(s, n) for n in range(1, 60) for s in range(n + 1)][:count]
    sum_z, n = np.array(pairs, dtype=float).T
    return sum_z, n


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 923])
def test_shared_tail_sweep_equals_each_star_alone(rows, grid):
    assert grid.nodes[-2] == 0.9990234375
    params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
    sum_z, n = distinct_rows(rows)
    table = posterior_rows(sum_z, n, params, grid)
    shared = table.tail(SWEEP_STARS)
    assert shared.shape == (rows, len(SWEEP_STARS))
    for k, s in enumerate(SWEEP_STARS):
        assert np.array_equal(shared[:, k], table.tail([s])[:, 0]), s
    # And each row against the per-user reference, on a few rows.
    for r in sorted({0, rows // 2, rows - 1}):
        post = ref.GridPosterior(grid.nodes, table.masses[r], table.density[r])
        assert shared[r].tolist() == [ref.tail_prob(post, s) for s in SWEEP_STARS]


def test_two_point_tails_are_steps(grid):
    params = ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8)
    table = posterior_rows(*distinct_rows(65), params, None)
    shared = table.tail(SWEEP_STARS)
    for k, s in enumerate(SWEEP_STARS):
        assert np.array_equal(shared[:, k], table.tail([s])[:, 0])
        for r in (0, 64):
            post = ref.TwoPointPosterior(0.4, 0.98, *table.masses[r].tolist())
            assert shared[r, k] == ref.tail_prob(post, s)
    assert table.tail([]).shape == (65, 0)
