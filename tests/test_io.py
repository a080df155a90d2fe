"""Serialization: JSONL datasets, CSV reports, JSON configs, fit dumps."""

import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from prefqc import (
    AnnotationRecord,
    BetaMixture,
    BetaPerItemP,
    BetaPrior,
    BoxOnMu,
    DiscreteMasses,
    EmConfig,
    FilterDecision,
    LogPriorOnMu,
    LogisticNormal,
    ModelParams,
    ParseError,
    ScoredPair,
    SimulationScenario,
    TailProbability,
    Threshold,
    TopFraction,
    TwoPointPrior,
    UserHistory,
    em_fit,
    histories_from_records,
    simulate_dataset,
    summarize_posterior,
)
from prefqc.io import (
    atomic_write_text,
    decode_params,
    decode_prior,
    decode_regularizer,
    decode_rule,
    decode_scenario,
    encode_params,
    encode_prior,
    encode_regularizer,
    encode_rule,
    encode_scenario,
    fit_to_dict,
    read_annotations,
    read_decisions,
    read_fit,
    read_json,
    read_pairs,
    read_posteriors,
    read_scored_pairs,
    read_sweep,
    read_trajectory,
    read_truth,
    write_annotations,
    write_decisions,
    write_fit,
    write_json,
    write_pairs,
    write_posteriors,
    write_scored_pairs,
    write_sweep,
    write_trajectory,
    write_truth,
)


def small_fit(family="beta"):
    prior = BetaPrior(3.0, 5.0) if family == "beta" else TwoPointPrior(0.6, 0.4, 0.98)
    scenario = SimulationScenario(
        prior=prior, mu=0.8, num_users=40, n_range=(20, 30), seed=12
    )
    records, _ = simulate_dataset(scenario)
    hists = histories_from_records(records)
    return em_fit(hists, EmConfig(family=family, mu=0.8, max_iters=25))


class TestParseError:
    def test_message_carries_location(self):
        err = ParseError("data/in.jsonl", 17, "bad record")
        assert str(err) == "data/in.jsonl:17: bad record"
        assert err.path == "data/in.jsonl" and err.line_no == 17

    def test_line_free_variant(self):
        err = ParseError("conf.json", None, "invalid JSON")
        assert str(err) == "conf.json: invalid JSON"


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "payload\n")
        assert target.read_text() == "payload\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_mode_matches_a_plain_write(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        target = tmp_path / "out.txt"
        atomic_write_text(target, "x")
        assert target.stat().st_mode == plain.stat().st_mode

    def test_each_write_gets_its_own_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        temps = []
        real_replace = os.replace

        def spy(src, dst):
            temps.append(Path(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert temps[0] != temps[1]
        assert all(t.parent == tmp_path for t in temps)
        assert target.read_text() == "two"

    def test_failed_write_removes_temp_and_keeps_target(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "\ud800")  # lone surrogate: not UTF-8
        assert target.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


class TestAnnotations:
    def test_round_trip(self, tmp_path):
        records = [
            AnnotationRecord("u0", "i0", 1),
            AnnotationRecord("u0", "i1", 0),
            AnnotationRecord("u1", "i0", 1),
        ]
        path = tmp_path / "data.jsonl"
        write_annotations(path, records)
        assert read_annotations(path) == records

    def test_empty_input_gives_empty_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_annotations(path, [])
        assert path.read_text() == ""
        assert read_annotations(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        body = '{"user_id": "u", "item_id": "i", "label": 1}'
        path.write_text(f"\n{body}\n\n")
        assert read_annotations(path) == [AnnotationRecord("u", "i", 1)]

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"user_id": "u", "item_id": "i", "label": 1}\nnot json\n'
        )
        with pytest.raises(ParseError, match=r"data\.jsonl:2"):
            read_annotations(path)

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"user_id": "u", "item_id": "i", "label": 2}\n')
        with pytest.raises(ParseError, match="bad record"):
            read_annotations(path)

    @pytest.mark.parametrize(
        "label", ["0.9", "1.0", "true", "false", '"1"', "null", "[1]"]
    )
    def test_label_must_be_json_integer_0_or_1(self, tmp_path, label):
        path = tmp_path / "data.jsonl"
        good = '{"user_id": "u", "item_id": "i0", "label": 1}'
        bad = '{"user_id": "u", "item_id": "i1", "label": %s}' % label
        path.write_text(f"{good}\n{bad}\n")
        with pytest.raises(ParseError, match=r"data\.jsonl:2: bad record: label"):
            read_annotations(path)

    @pytest.mark.parametrize("key", ["user_id", "item_id"])
    def test_null_id_rejected(self, tmp_path, key):
        path = tmp_path / "data.jsonl"
        record = {"user_id": "u", "item_id": "i", "label": 1, key: None}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=r"data\.jsonl:1: bad record: null"):
            read_annotations(path)

    @pytest.mark.parametrize("key", ["user_id", "item_id"])
    @pytest.mark.parametrize("value", ["5", "5.0", "true", "false", "[1]", '{"x": 1}'])
    def test_id_must_be_json_string(self, tmp_path, key, value):
        path = tmp_path / "data.jsonl"
        good = '{"user_id": "u", "item_id": "i0", "label": 1}'
        bad = {"user_id": '"u"', "item_id": '"i1"', key: value}
        path.write_text(
            f'{good}\n{{"user_id": {bad["user_id"]}, '
            f'"item_id": {bad["item_id"]}, "label": 0}}\n'
        )
        with pytest.raises(
            ParseError,
            match=rf"data\.jsonl:2: bad record: {key} must be a JSON string",
        ):
            read_annotations(path)

    def test_missing_key_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"user_id": "u", "label": 1}\n')
        with pytest.raises(ParseError, match=r"data\.jsonl:1"):
            read_annotations(path)


class TestTruth:
    def test_round_trip_is_float_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        truth = [(f"u{j}", float(rng.random())) for j in range(20)]
        path = tmp_path / "truth.csv"
        write_truth(path, truth)
        assert read_truth(path) == truth

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("user,eta\nu0,0.5\n")
        with pytest.raises(ParseError, match="header"):
            read_truth(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("user_id,eta\nu0,0.5\nu1,zebra\n")
        with pytest.raises(ParseError, match=r"truth\.csv:3"):
            read_truth(path)


class TestPairs:
    def test_labels_map_to_sides(self, tmp_path):
        records = [AnnotationRecord("u", "i0", 1), AnnotationRecord("u", "i1", 0)]
        path = tmp_path / "pairs.jsonl"
        write_pairs(path, records)
        assert read_pairs(path) == [("i0", "A"), ("i1", "B")]

    def test_chosen_side_validated(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"item_id": "i", "chosen": "C"}\n')
        with pytest.raises(ParseError, match="A or B"):
            read_pairs(path)


class TestScoredPairs:
    def test_round_trip(self, tmp_path):
        pairs = [ScoredPair("i0", 1.25, -0.5), ScoredPair("i1", 0.0, 0.0)]
        path = tmp_path / "scores.csv"
        write_scored_pairs(path, pairs)
        assert read_scored_pairs(path) == pairs

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("item,a,b\ni,1,2\n")
        with pytest.raises(ParseError, match="header"):
            read_scored_pairs(path)


PRIORS = [
    TwoPointPrior(0.6, 0.4, 0.98),
    BetaPrior(3.0, 5.0),
    BetaMixture(weights=(0.6, 0.4), components=((4.0, 16.0), (16.0, 4.0))),
    LogisticNormal(m=-0.6, s=0.8),
    DiscreteMasses(atoms=((0.2, 0.2), (0.6, 0.6), (0.2, 0.9))),
]


# The keys are the dataclass field names, so renaming a field would change
# fit.json, decisions.csv and every config; the round trips would not see it.
WIRE_FORMAT = [
    (PRIORS[0], encode_prior,
     {"type": "two_point", "q1": 0.6, "eta_lo": 0.4, "eta_hi": 0.98}),
    (PRIORS[1], encode_prior, {"type": "beta", "alpha": 3.0, "beta": 5.0}),
    (PRIORS[2], encode_prior,
     {"type": "beta_mixture", "weights": [0.6, 0.4],
      "components": [[4.0, 16.0], [16.0, 4.0]]}),
    (PRIORS[3], encode_prior, {"type": "logistic_normal", "m": -0.6, "s": 0.8}),
    (PRIORS[4], encode_prior,
     {"type": "discrete_masses", "atoms": [[0.2, 0.2], [0.6, 0.6], [0.2, 0.9]]}),
    (TopFraction(0.5), encode_rule, {"type": "top_fraction", "fraction": 0.5}),
    (Threshold(0.62), encode_rule, {"type": "threshold", "value": 0.62}),
    (TailProbability(0.5, 0.9), encode_rule,
     {"type": "tail_probability", "eta_star": 0.5, "level": 0.9}),
    (LogPriorOnMu(8.0, 2.0), encode_regularizer,
     {"type": "log_prior_on_mu", "a": 8.0, "b": 2.0}),
    (BoxOnMu(0.5, 0.7), encode_regularizer, {"type": "box_on_mu", "lo": 0.5, "hi": 0.7}),
]


class TestTypedCodecs:
    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: type(p).__name__)
    def test_prior_round_trip(self, prior):
        encoded = encode_prior(prior)
        assert json.loads(json.dumps(encoded)) == encoded  # JSON-safe
        assert decode_prior(encoded) == prior

    def test_unknown_prior_type_rejected(self):
        with pytest.raises(ValueError, match="unknown prior"):
            decode_prior({"type": "cauchy"})
        # The logistic-normal mixture prior was removed; its tag is unknown too.
        mixture = {"type": "logistic_normal_mixture", "weights": [1.0],
                   "means": [0.0], "sigmas": [1.0]}
        with pytest.raises(ValueError, match="^unknown prior type 'logistic_normal_mixture'$"):
            decode_prior(mixture)
        with pytest.raises(TypeError):
            encode_prior(object())

    def test_params_round_trip(self):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.77, mu_mode="free")
        assert decode_params(encode_params(params)) == params

    def test_params_mu_mode_defaults_to_fixed(self):
        obj = {"prior": encode_prior(BetaPrior(3.0, 5.0)), "mu": 0.8}
        assert decode_params(obj).mu_mode == "fixed"

    @pytest.mark.parametrize(
        "rule",
        [TopFraction(0.5), Threshold(0.62), TailProbability(0.5, 0.9)],
        ids=lambda r: type(r).__name__,
    )
    def test_rule_round_trip(self, rule):
        assert decode_rule(encode_rule(rule)) == rule

    def test_tail_level_defaults(self):
        rule = decode_rule({"type": "tail_probability", "eta_star": 0.5})
        assert rule.level == 0.95

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            decode_rule({"type": "coin_flip"})

    @pytest.mark.parametrize(
        "reg", [None, LogPriorOnMu(8.0, 2.0), BoxOnMu(0.5, 0.7)],
        ids=["none", "log_prior", "box"],
    )
    def test_regularizer_round_trip(self, reg):
        assert decode_regularizer(encode_regularizer(reg)) == reg

    def test_unknown_regularizer_rejected(self):
        with pytest.raises(ValueError, match="unknown regularizer"):
            decode_regularizer({"type": "ridge"})

    def test_scenario_round_trip(self):
        scenario = SimulationScenario(
            prior=BetaPrior(3.0, 5.0),
            mu=0.8,
            num_users=40,
            n_range=(20, 30),
            seed=7,
            per_item_p_model=BetaPerItemP(8.0, 2.0),
        )
        decoded = decode_scenario(encode_scenario(scenario))
        assert decoded == scenario

    def test_scenario_without_p_model(self):
        scenario = SimulationScenario(
            prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8, num_users=5, n_range=(2, 4)
        )
        decoded = decode_scenario(encode_scenario(scenario))
        assert decoded.per_item_p_model is None and decoded == scenario

    @pytest.mark.parametrize(
        "value, encode, expected", WIRE_FORMAT, ids=[e["type"] for _, _, e in WIRE_FORMAT]
    )
    def test_wire_format_is_pinned(self, value, encode, expected):
        assert encode(value) == expected  # a tuple is not equal to its list

    @pytest.mark.parametrize("prior", PRIORS[2:3] + PRIORS[4:], ids=lambda p: type(p).__name__)
    def test_decoded_sequence_fields_are_tuples(self, prior):
        decoded = decode_prior(json.loads(json.dumps(encode_prior(prior))))
        for name in decoded.__dataclass_fields__:
            value = getattr(decoded, name)
            assert type(value) is tuple
            assert all(type(v) is tuple for v in value if not isinstance(v, float))
        assert hash(decoded) == hash(prior) and decoded == prior

    def test_a_tag_of_another_kind_is_unknown(self):
        with pytest.raises(ValueError, match="unknown prior type 'threshold'"):
            decode_prior({"type": "threshold", "value": 0.5})
        with pytest.raises(ValueError, match="unknown rule type 'beta'"):
            decode_rule({"type": "beta", "alpha": 2.0, "beta": 2.0})

    def test_missing_required_field_is_named(self):
        with pytest.raises(KeyError, match="eta_hi"):
            decode_prior({"type": "two_point", "q1": 0.5, "eta_lo": 0.2})
        with pytest.raises(KeyError, match="eta_star"):
            decode_rule({"type": "tail_probability", "level": 0.9})

    # Each structural error names the JSON path of the object it is about.
    @pytest.mark.parametrize(
        "obj, message",
        [
            ("top", "cells[0].rule: a rule must be a JSON object, got 'top'"),
            ({"type": "nonsense"}, "cells[0].rule: unknown rule type 'nonsense'"),
            ({"fraction": 0.5}, "cells[0].rule: unknown rule type None"),
            ({"type": "top_fraction"}, "cells[0].rule.fraction is missing"),
        ],
        ids=["not_an_object", "unknown_type", "no_type", "missing_field"],
    )
    def test_structural_errors_name_their_path(self, obj, message):
        with pytest.raises(ValueError) as info:
            decode_rule(obj, "cells[0].rule")
        assert str(info.value) == message

    def test_nested_structural_errors_name_their_path(self):
        with pytest.raises(ValueError, match=r"^init\.prior\.eta_hi is missing$"):
            decode_params({"prior": {"type": "two_point", "q1": 0.5, "eta_lo": 0.2},
                           "mu": 0.8}, "init")
        with pytest.raises(ValueError, match=r"^scenario\.prior: unknown prior type 'x'$"):
            decode_scenario({"prior": {"type": "x"}, "mu": 0.8, "num_users": 3,
                             "n_range": [1, 2]}, "scenario")
        with pytest.raises(ValueError, match=r"^regularizer: a regularizer must be"):
            decode_regularizer([8.0, 2.0], "regularizer")

    @pytest.mark.parametrize("obj", ["beta", ["beta"], 3.0, True])
    def test_a_value_that_is_not_an_object_is_rejected(self, obj):
        for kind, decode in (
            ("prior", decode_prior),
            ("rule", decode_rule),
            ("regularizer", decode_regularizer),
            ("scenario", decode_scenario),
        ):
            with pytest.raises(ValueError, match=f"a {kind} must be a JSON object"):
                decode(obj)


class TestJsonFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "conf.json"
        write_json(path, {"b": 1, "a": [1.5, None]})
        assert read_json(path) == {"b": 1, "a": [1.5, None]}
        # stable key order on disk
        assert path.read_text().index('"a"') < path.read_text().index('"b"')

    def test_bad_json_flags_location(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text("{\n  broken\n}\n")
        with pytest.raises(ParseError, match=r"conf\.json:2"):
            read_json(path)


class TestFitReports:
    def test_dict_shape(self):
        report = small_fit()
        obj = fit_to_dict(report)
        assert set(obj) == {
            "params",
            "converged",
            "stop_reason",
            "iterations",
            "final_loglik",
            "clamp_events",
            "labels_flipped",
            "fallback_rows",
            "newton_steps",
            "score_norm",
        }
        assert obj["labels_flipped"] is False
        assert obj["score_norm"] == report.score_norm and report.score_norm >= 0.0
        # Two-point fits have no score yet: null on disk.
        assert fit_to_dict(small_fit("two_point"))["score_norm"] is None
        # Two-point fits count their fallback rows too.
        assert fit_to_dict(small_fit("two_point"))["fallback_rows"] == 0
        with_delta = fit_to_dict(report, labels_flipped=True, delta=0.12)
        assert with_delta["delta"] == 0.12 and with_delta["labels_flipped"] is True

    def test_file_round_trip(self, tmp_path):
        report = small_fit()
        path = tmp_path / "fit.json"
        write_fit(path, report, delta=0.05)
        loaded = read_fit(path)
        assert loaded["params"] == report.final_params
        assert loaded["final_loglik"] == report.final_loglik
        assert loaded["stop_reason"] == report.stop_reason
        assert loaded["delta"] == 0.05
        assert isinstance(loaded["clamp_events"], list)

    def test_trajectory_round_trip_beta(self, tmp_path):
        report = small_fit("beta")
        path = tmp_path / "trajectory.csv"
        write_trajectory(path, report)
        rows = read_trajectory(path)
        assert len(rows) == len(report.trajectory)
        assert list(rows[0]) == ["iteration", "alpha", "beta", "mu", "loglik"]
        assert rows[-1]["alpha"] == report.final_params.prior.alpha
        assert rows[-1]["loglik"] == report.final_loglik
        assert [r["iteration"] for r in rows] == list(range(len(rows)))

    def test_trajectory_round_trip_two_point(self, tmp_path):
        report = small_fit("two_point")
        path = tmp_path / "trajectory.csv"
        write_trajectory(path, report)
        rows = read_trajectory(path)
        assert list(rows[0]) == [
            "iteration", "q1", "eta_lo", "eta_hi", "mu", "loglik",
        ]
        assert rows[-1]["eta_hi"] == report.final_params.prior.eta_hi


class TestPosteriorsCsv:
    def make_summaries(self):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        hists = [
            UserHistory.from_labels("u0", [1, 1, 1, 0]),
            UserHistory.from_labels("u1", [0, 0, 1, 0]),
        ]
        return [summarize_posterior(h, params, eta_stars=(0.5,)) for h in hists]

    def test_round_trip(self, tmp_path):
        summaries = self.make_summaries()
        path = tmp_path / "posteriors.csv"
        write_posteriors(path, summaries)
        header = path.read_text().splitlines()[0]
        assert header == "user_id,n_labels,map_eta,mean_eta,tail_0.5"
        rows = read_posteriors(path)
        for row, summary in zip(rows, summaries):
            assert row["user_id"] == summary.user_id
            assert row["map_eta"] == summary.map_eta
            assert row["mean_eta"] == summary.mean_eta
            assert row["tail_probs"] == summary.tail_probs

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no summaries"):
            write_posteriors(tmp_path / "posteriors.csv", [])

    def test_mismatched_tail_points_rejected(self, tmp_path):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        a = summarize_posterior(
            UserHistory.from_labels("a", [1]), params, eta_stars=(0.5,)
        )
        b = summarize_posterior(
            UserHistory.from_labels("b", [1]), params, eta_stars=(0.6,)
        )
        with pytest.raises(ValueError, match="disagree"):
            write_posteriors(tmp_path / "posteriors.csv", [a, b])


class TestDecisionsCsv:
    def test_round_trip(self, tmp_path):
        decisions = [
            FilterDecision("u0", True, TopFraction(0.5), 0.91),
            FilterDecision("u1", False, TopFraction(0.5), 0.12),
            FilterDecision("u2", True, TailProbability(0.5, 0.9), 0.97),
        ]
        path = tmp_path / "decisions.csv"
        write_decisions(path, decisions)
        assert read_decisions(path) == decisions

    def test_each_rule_object_keeps_its_own_spelling(self, tmp_path, monkeypatch):
        # Threshold(0.0) == Threshold(-0.0), yet each writes its own value,
        # and each rule object is encoded once however many users share it.
        plus, minus = Threshold(0.0), Threshold(-0.0)
        decisions = [
            FilterDecision(f"u{i}", i % 3 == 0, rule, 0.5)
            for i, rule in enumerate([plus, minus, plus, minus, minus])
        ]
        calls = []

        def counting(rule):
            calls.append(rule)
            return encode_rule(rule)

        monkeypatch.setattr("prefqc.io.encode_rule", counting)
        path = tmp_path / "decisions.csv"
        write_decisions(path, decisions)
        assert [id(rule) for rule in calls] == [id(plus), id(minus)]
        signs = [math.copysign(1.0, d.rule.value) for d in read_decisions(path)]
        assert signs == [1.0, -1.0, 1.0, -1.0, -1.0]

    def test_each_rule_text_is_decoded_once_and_keeps_its_spelling(
        self, tmp_path, monkeypatch
    ):
        # Two texts of equal rules: the cache must key on the text.
        texts = ['{"type": "threshold", "value": 0.0}', '{"type": "threshold", "value": -0.0}']
        cells = [texts[i % 3 == 1] for i in range(7)]
        path = tmp_path / "decisions.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["user_id", "attentive", "rule", "score"])
            writer.writerows([f"u{i}", "true", cell, "0.5"] for i, cell in enumerate(cells))
        calls = []

        def counting(obj):
            calls.append(obj)
            return decode_rule(obj)

        monkeypatch.setattr("prefqc.io.decode_rule", counting)
        rules = [d.rule for d in read_decisions(path)]
        assert len(calls) == 2
        for rule, cell in zip(rules, cells):
            want = decode_rule(json.loads(cell))
            assert rule == want
            assert math.copysign(1.0, rule.value) == math.copysign(1.0, want.value)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "decisions.csv"
        path.write_text("user_id,keep\nu0,yes\n")
        with pytest.raises(ParseError, match="header"):
            read_decisions(path)


class TestSweepCsv:
    def test_round_trip_with_blanks(self, tmp_path):
        rows = [
            {
                "cell": "m400_n100",
                "family": "beta",
                "m": 400,
                "n_min": 100,
                "n_max": 100,
                "mu": 0.8,
                "mu_variant": "known",
                "rule": "top_fraction_0.5",
                "seeds_ok": 10,
                "seeds_failed": 0,
                "converged": 7,
                "iterations_mean": 212.5,
                "delta_mean": 0.031,
                "delta_std": 0.004,
                "accuracy_mean": 0.9,
                "accuracy_std": 0.02,
                "note": None,
            }
        ]
        path = tmp_path / "sweep.csv"
        write_sweep(path, rows)
        loaded = read_sweep(path)
        assert len(loaded) == 1
        assert loaded[0]["cell"] == "m400_n100"
        assert float(loaded[0]["delta_mean"]) == 0.031
        assert int(loaded[0]["converged"]) == 7
        assert float(loaded[0]["iterations_mean"]) == 212.5
        assert loaded[0]["note"] == ""


# Texts that CSV must quote, or that a reader could lose: every writer
# quotes them alike and its reader returns them unchanged.
ODD_TEXTS = {
    "comma": "a,b",
    "quote": 'say "hi"',
    "newline": "two\nlines",
    "bare_cr": "cr\ronly",
    "crlf": "cr\r\nlf",
    "empty": "",
    "non_ascii": "naïve—日本",
}


@pytest.mark.parametrize("text", ODD_TEXTS.values(), ids=ODD_TEXTS.keys())
class TestTextFieldsRoundTrip:
    """A text field, then a plain row: both come back, and no more rows."""

    def test_truth(self, tmp_path, text):
        truth = [(text, 0.5), ("b", 0.25)]
        write_truth(tmp_path / "truth.csv", truth)
        assert read_truth(tmp_path / "truth.csv") == truth

    def test_scored_pairs(self, tmp_path, text):
        pairs = [ScoredPair(text, 1.25, -0.5), ScoredPair("i1", 0.0, 3.0)]
        write_scored_pairs(tmp_path / "scores.csv", pairs)
        assert read_scored_pairs(tmp_path / "scores.csv") == pairs

    def test_sweep(self, tmp_path, text):
        rows = [{"cell": text, "m": 10, "note": text}, {"cell": "c", "mu": 0.8}]
        write_sweep(tmp_path / "sweep.csv", rows)
        loaded = read_sweep(tmp_path / "sweep.csv")
        assert [(r["cell"], r["m"], r["mu"], r["note"]) for r in loaded] == [
            (text, "10", "", text),
            ("c", "", "0.8", ""),
        ]

    def test_posteriors(self, tmp_path, text):
        from prefqc import PosteriorSummary

        summaries = [
            PosteriorSummary(text, 4, 0.75, 0.7, ((0.5, 0.875),), None, 0),
            PosteriorSummary("u1", 2, 0.5, 0.5, ((0.5, 0.5),), None, 1),
        ]
        write_posteriors(tmp_path / "posteriors.csv", summaries)
        rows = read_posteriors(tmp_path / "posteriors.csv")
        assert [(r["user_id"], r["n_labels"], r["tail_probs"]) for r in rows] == [
            (text, 4, ((0.5, 0.875),)),
            ("u1", 2, ((0.5, 0.5),)),
        ]

    def test_decisions(self, tmp_path, text):
        decisions = [
            FilterDecision(text, True, TopFraction(0.5), 0.91),
            FilterDecision("u1", False, TopFraction(0.5), 0.12),
        ]
        write_decisions(tmp_path / "decisions.csv", decisions)
        assert read_decisions(tmp_path / "decisions.csv") == decisions


def test_fit_report_json_is_plain_data(tmp_path):
    # Everything in the dump must be JSON-native so other tools can read it.
    report = small_fit()
    path = tmp_path / "fit.json"
    write_fit(path, report)
    raw = json.loads(path.read_text())
    assert isinstance(raw["final_loglik"], float)
    assert isinstance(raw["params"]["prior"]["alpha"], float)
    assert math.isfinite(raw["final_loglik"])


class TestPairIds:
    @pytest.mark.parametrize("value", ["5", "5.0", "true", "[1]", '{"x": 1}', "null"])
    def test_item_id_must_be_json_string(self, tmp_path, value):
        path = tmp_path / "pairs.jsonl"
        good = '{"item_id": "i0", "chosen": "A"}'
        path.write_text(f'{good}\n{{"item_id": {value}, "chosen": "B"}}\n')
        with pytest.raises(ParseError, match=r"pairs\.jsonl:2: bad pair: "):
            read_pairs(path)

    def test_null_and_number_messages_match_annotations(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"item_id": null, "chosen": "A"}\n')
        with pytest.raises(ParseError, match=r"pairs\.jsonl:1: bad pair: null item_id"):
            read_pairs(path)
        path.write_text('{"item_id": 5, "chosen": "A"}\n')
        with pytest.raises(
            ParseError,
            match=r"pairs\.jsonl:1: bad pair: item_id must be a JSON string, got 5$",
        ):
            read_pairs(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"item_id": "i0", "chosen": "A"}\n\n{"item_id": \n')
        with pytest.raises(ParseError, match=r"pairs\.jsonl:3: invalid JSON \("):
            read_pairs(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('\n{"item_id": "i0", "chosen": "B"}\n\n')
        assert read_pairs(path) == [("i0", "B")]


class TestWriterBytes:
    """Exact file text of every writer, pinned on tiny inputs."""

    def test_annotations(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_annotations(
            path, [AnnotationRecord("u0", "i0", 1), AnnotationRecord("ué", "i,1", 0)]
        )
        assert path.read_text(encoding="utf-8") == (
            '{"user_id": "u0", "item_id": "i0", "label": 1}\n'
            '{"user_id": "u\\u00e9", "item_id": "i,1", "label": 0}\n'
        )

    def test_pairs(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs(
            path, [AnnotationRecord("u0", "i0", 1), AnnotationRecord("u0", "i\"1", 0)]
        )
        assert path.read_text(encoding="utf-8") == (
            '{"item_id": "i0", "chosen": "A"}\n'
            '{"item_id": "i\\"1", "chosen": "B"}\n'
        )

    def test_truth(self, tmp_path):
        path = tmp_path / "truth.csv"
        write_truth(path, [("u0", 0.1), ("u,1", 1), ("u2", 1e-20)])
        assert path.read_text(encoding="utf-8") == (
            'user_id,eta\nu0,0.1\n"u,1",1.0\nu2,1e-20\n'
        )

    def test_scored_pairs(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scored_pairs(path, [ScoredPair("i0", 1.25, -0.5), ScoredPair("i1", 3, 0.0)])
        assert path.read_text(encoding="utf-8") == (
            "item_id,score_a,score_b\ni0,1.25,-0.5\ni1,3.0,0.0\n"
        )

    def test_trajectory(self, tmp_path):
        from prefqc import FitReport, TrajectoryPoint

        points = (
            TrajectoryPoint(0, ModelParams(BetaPrior(2.0, 2.0), 0.8), -12.5),
            TrajectoryPoint(1, ModelParams(BetaPrior(2.5, 3.25), 0.8), -10.125),
        )
        path = tmp_path / "trajectory.csv"
        write_trajectory(path, FitReport(points, True, "param_tol"))
        assert path.read_text(encoding="utf-8") == (
            "iteration,alpha,beta,mu,loglik\n"
            "0,2.0,2.0,0.8,-12.5\n"
            "1,2.5,3.25,0.8,-10.125\n"
        )

    def test_posteriors(self, tmp_path):
        from prefqc import PosteriorSummary

        summaries = [
            PosteriorSummary("u0", 4, 0.75, 0.7, ((0.5, 0.875), (0.9, 0.0)), None, 0),
            PosteriorSummary("u,1", 2, 0.5, 0.5, ((0.5, 0.5), (0.9, 1e-05)), None, 1),
        ]
        path = tmp_path / "posteriors.csv"
        write_posteriors(path, summaries)
        assert path.read_text(encoding="utf-8") == (
            "user_id,n_labels,map_eta,mean_eta,tail_0.5,tail_0.9\n"
            "u0,4,0.75,0.7,0.875,0.0\n"
            '"u,1",2,0.5,0.5,0.5,1e-05\n'
        )

    def test_decisions(self, tmp_path):
        path = tmp_path / "decisions.csv"
        write_decisions(
            path,
            [
                FilterDecision("u0", True, TopFraction(0.5), 0.91),
                FilterDecision("u1", False, TailProbability(0.5, 0.9), 0.125),
            ],
        )
        assert path.read_text(encoding="utf-8") == (
            "user_id,attentive,rule,score\n"
            'u0,true,"{""fraction"": 0.5, ""type"": ""top_fraction""}",0.91\n'
            'u1,false,"{""eta_star"": 0.5, ""level"": 0.9, '
            '""type"": ""tail_probability""}",0.125\n'
        )

    def test_sweep(self, tmp_path):
        row = {
            "cell": "c,1",
            "family": "beta",
            "m": 400,
            "n_min": 50,
            "n_max": 100,
            "mu": 0.8,
            "mu_variant": "known",
            "rule": "top_fraction",
            "seeds_ok": 2,
            "seeds_failed": 0,
            "converged": 1,
            "iterations_mean": 250.5,
            "delta_mean": 0.1,
            "delta_std": float("nan"),
            "accuracy_mean": None,
            "note": "",
        }
        path = tmp_path / "sweep.csv"
        write_sweep(path, [row])
        assert path.read_text(encoding="utf-8") == (
            "cell,family,m,n_min,n_max,mu,mu_variant,rule,seeds_ok,seeds_failed,"
            "converged,iterations_mean,delta_mean,delta_std,accuracy_mean,"
            "accuracy_std,note\n"
            '"c,1",beta,400,50,100,0.8,known,top_fraction,2,0,1,250.5,0.1,nan,,,\n'
        )


class TestCsvBadRows:
    """A bad row after a good one names its own line (3)."""

    def test_scored_pairs(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("item_id,score_a,score_b\ni0,1,2\ni1,one,2\n")
        with pytest.raises(ParseError, match=r"scores\.csv:3: bad row"):
            read_scored_pairs(path)

    def test_trajectory(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        path.write_text(
            "iteration,alpha,beta,mu,loglik\n0,2.0,2.0,0.8,-1.5\n1.5,2.0,2.0,0.8,-1.0\n"
        )
        with pytest.raises(ParseError, match=r"trajectory\.csv:3: bad row"):
            read_trajectory(path)

    def test_posteriors(self, tmp_path):
        path = tmp_path / "posteriors.csv"
        path.write_text(
            "user_id,n_labels,map_eta,mean_eta,tail_0.5\n"
            "u0,4,0.75,0.7,0.875\nu1,four,0.5,0.5,0.5\n"
        )
        with pytest.raises(ParseError, match=r"posteriors\.csv:3: bad row"):
            read_posteriors(path)

    def test_blank_line_counts_toward_the_line_number(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("user_id,eta\nu0,0.5\n\nu1,zebra\n")
        with pytest.raises(ParseError, match=r"truth\.csv:4: bad row"):
            read_truth(path)

    def test_decisions(self, tmp_path):
        path = tmp_path / "decisions.csv"
        rule = '"{""fraction"": 0.5, ""type"": ""top_fraction""}"'
        path.write_text(
            "user_id,attentive,rule,score\n"
            f"u0,true,{rule},0.91\nu1,maybe,{rule},0.12\n"
        )
        with pytest.raises(ParseError, match=r"decisions\.csv:3: bad row"):
            read_decisions(path)
