"""Synthetic data generation: scenario specs, sampling laws, and presets."""

import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

import prefqc
from prefqc import (
    BetaMixture,
    BetaPerItemP,
    BetaPrior,
    DiscreteMasses,
    LogisticNormal,
    ScoredPair,
    SimulationScenario,
    TwoPointPrior,
    UserHistory,
    estimate_mu,
    list_presets,
    misspecification_suite,
    prior_mean,
    prior_quantile,
    sample_eta,
    scenario_preset,
    simulate_dataset,
)
from prefqc import io as fio
from prefqc.cli import EXIT_OK, main
from prefqc.model import user_counts
from prefqc.simulate import simulate_columns

import reference as ref

BETA_3_5_MEDIAN = 0.3641160864480826
# Wilson 95% interval for 80 successes out of 100, z = 1.959963984540054.
WILSON_80_100 = (0.7111708344068411, 0.8666330666689674)


class TestTruePriorSpecs:
    def test_beta_mixture_validation(self):
        with pytest.raises(ValueError):
            BetaMixture(weights=(0.5,), components=((2.0, 2.0), (3.0, 3.0)))
        with pytest.raises(ValueError):
            BetaMixture(weights=(0.7, 0.7), components=((2.0, 2.0), (3.0, 3.0)))
        with pytest.raises(ValueError):
            BetaMixture(weights=(0.5, 0.5), components=((2.0, -1.0), (3.0, 3.0)))
        with pytest.raises(ValueError):
            BetaMixture(weights=(), components=())

    def test_logistic_normal_needs_positive_spread(self):
        with pytest.raises(ValueError):
            LogisticNormal(m=0.0, s=0.0)

    def test_discrete_masses_validation(self):
        with pytest.raises(ValueError):
            DiscreteMasses(atoms=())
        with pytest.raises(ValueError):
            DiscreteMasses(atoms=((0.5, 0.2), (0.4, 0.9)))
        with pytest.raises(ValueError):
            DiscreteMasses(atoms=((0.5, 0.2), (0.5, 1.3)))

    def test_per_item_p_model(self):
        model = BetaPerItemP(8.0, 2.0)
        assert model.mean == pytest.approx(0.8)
        with pytest.raises(ValueError):
            BetaPerItemP(0.0, 2.0)


    # Numbers that JSON can hold but no field takes: true, NaN, Infinity, a string.
    @pytest.mark.parametrize("bad", [True, math.nan, math.inf, "1"], ids=repr)
    @pytest.mark.parametrize(
        "name, build",
        [
            ("weights entry", lambda x: BetaMixture((0.5, x), ((2, 2), (3, 3)))),
            ("components entry", lambda x: BetaMixture((0.5, 0.5), ((2, 2), (3, x)))),
            ("m", lambda x: LogisticNormal(x, 1.0)),
            ("s", lambda x: LogisticNormal(0.0, x)),
            ("atoms entry", lambda x: DiscreteMasses(((0.5, 0.2), (x, 0.9)))),
            ("atoms entry", lambda x: DiscreteMasses(((0.5, 0.2), (0.5, x)))),
            ("alpha", lambda x: BetaPerItemP(x, 2.0)),
            ("beta", lambda x: BetaPerItemP(8.0, x)),
            ("mu", lambda x: SimulationScenario(BetaPrior(3, 5), x, 5, (3, 3))),
        ],
    )
    def test_a_number_that_is_not_finite_is_named(self, name, build, bad):
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == f"{name} must be a finite real number, got {bad!r}"


class TestScenarioValidation:
    def prior(self):
        return BetaPrior(3.0, 5.0)

    def test_mu_must_be_strictly_inside(self):
        for mu in (0.5, 1.0, 0.3):
            with pytest.raises(ValueError):
                SimulationScenario(prior=self.prior(), mu=mu, num_users=5, n_range=(3, 3))

    def test_num_users_positive(self):
        with pytest.raises(ValueError):
            SimulationScenario(prior=self.prior(), mu=0.8, num_users=0, n_range=(3, 3))

    def test_n_range_checks(self):
        for bad in ((0, 3), (5, 3), (2.0, 3), (True, 3), (3, 3, 4)):
            with pytest.raises(ValueError):
                SimulationScenario(prior=self.prior(), mu=0.8, num_users=5, n_range=bad)

    @pytest.mark.parametrize(
        "fields",
        [
            {"num_users": True},
            {"num_users": 5.0},
            {"seed": 2.9},
            {"seed": False},
        ],
        ids=["bool_users", "float_users", "float_seed", "bool_seed"],
    )
    def test_num_users_and_seed_must_be_integers(self, fields):
        base = {"prior": self.prior(), "mu": 0.8, "num_users": 5, "n_range": (3, 3)}
        with pytest.raises(ValueError, match="must be an integer"):
            SimulationScenario(**{**base, **fields})

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence, which every draw starts from, rejects it too.
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SimulationScenario(
                prior=self.prior(), mu=0.8, num_users=5, n_range=(3, 3), seed=-1
            )

    def test_numpy_integers_pass(self):
        scenario = SimulationScenario(
            prior=self.prior(), mu=0.8, num_users=np.int64(5),
            n_range=(np.int32(3), np.int64(4)), seed=np.uint32(7),
        )
        assert scenario.num_users == 5 and scenario.seed == 7

    def test_per_item_p_mean_must_match_mu(self):
        ok = SimulationScenario(
            prior=self.prior(), mu=0.8, num_users=5, n_range=(3, 3),
            per_item_p_model=BetaPerItemP(8.0, 2.0),
        )
        assert ok.per_item_p_model is not None
        with pytest.raises(ValueError):
            SimulationScenario(
                prior=self.prior(), mu=0.75, num_users=5, n_range=(3, 3),
                per_item_p_model=BetaPerItemP(8.0, 2.0),
            )


class TestPriorMean:
    def test_closed_forms(self):
        assert prior_mean(TwoPointPrior(0.6, 0.4, 0.98)) == pytest.approx(
            0.6 * 0.4 + 0.4 * 0.98, abs=1e-12
        )
        assert prior_mean(BetaPrior(3.0, 5.0)) == pytest.approx(0.375, abs=1e-12)
        mix = BetaMixture(weights=(0.6, 0.4), components=((4.0, 16.0), (16.0, 4.0)))
        assert prior_mean(mix) == pytest.approx(0.6 * 0.2 + 0.4 * 0.8, abs=1e-12)
        masses = DiscreteMasses(atoms=((0.2, 0.2), (0.6, 0.6), (0.2, 0.9)))
        assert prior_mean(masses) == pytest.approx(0.58, abs=1e-12)

    def test_logistic_normal_matches_quadrature(self):
        spec = LogisticNormal(m=-0.6, s=0.8)
        ref, _ = scipy.integrate.quad(
            lambda z: scipy.special.expit(-0.6 + 0.8 * z) * scipy.stats.norm.pdf(z),
            -np.inf,
            np.inf,
        )
        assert prior_mean(spec) == pytest.approx(ref, abs=1e-9)


class TestPriorQuantile:
    def test_beta_median_frozen(self):
        assert prior_quantile(BetaPrior(3.0, 5.0), 0.5) == pytest.approx(
            BETA_3_5_MEDIAN, abs=1e-12
        )

    def test_logistic_normal_transforms_exactly(self):
        spec = LogisticNormal(m=-0.6, s=0.8)
        for q in (0.1, 0.5, 0.9):
            expected = scipy.special.expit(-0.6 + 0.8 * scipy.stats.norm.ppf(q))
            assert prior_quantile(spec, q) == pytest.approx(expected, abs=1e-12)

    def test_two_point_steps(self):
        spec = TwoPointPrior(0.6, 0.4, 0.98)
        assert prior_quantile(spec, 0.3) == 0.4
        assert prior_quantile(spec, 0.6) == 0.4  # boundary sits on the low atom
        assert prior_quantile(spec, 0.61) == 0.98

    def test_discrete_steps_ignore_atom_order(self):
        spec = DiscreteMasses(atoms=((0.2, 0.9), (0.2, 0.2), (0.6, 0.6)))
        assert prior_quantile(spec, 0.1) == 0.2
        assert prior_quantile(spec, 0.5) == 0.6
        assert prior_quantile(spec, 0.95) == 0.9

    def test_mixture_round_trips_through_cdf(self):
        mix = BetaMixture(weights=(0.6, 0.4), components=((4.0, 16.0), (16.0, 4.0)))
        for q in (0.05, 0.4, 0.6, 0.95):
            x = prior_quantile(mix, q)
            cdf = 0.6 * scipy.stats.beta.cdf(x, 4, 16) + 0.4 * scipy.stats.beta.cdf(
                x, 16, 4
            )
            assert cdf == pytest.approx(q, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            prior_quantile(BetaPrior(3.0, 5.0), 0.0)
        with pytest.raises(ValueError):
            prior_quantile(BetaPrior(3.0, 5.0), 1.0)


def test_import_leaves_scipy_out_until_a_quantile_needs_it():
    # A fresh interpreter: this test process has imported scipy already.
    script = (
        "import sys\n"
        "import prefqc.cli\n"
        "assert 'scipy' not in sys.modules, 'import prefqc.cli pulled in scipy'\n"
        "from prefqc import BetaPrior, prior_quantile\n"
        "print(repr(prior_quantile(BetaPrior(3.0, 5.0), 0.5)))\n"
    )
    src = str(Path(prefqc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0.3641160864480825"


class TestSampleEta:
    SIZE = 20_000

    def test_two_point_support_and_frequency(self, rng):
        spec = TwoPointPrior(0.6, 0.4, 0.98)
        draws = sample_eta(spec, self.SIZE, rng)
        assert set(np.unique(draws)) == {0.4, 0.98}
        freq_lo = float(np.mean(draws == 0.4))
        assert freq_lo == pytest.approx(0.6, abs=3 * 0.5 / math.sqrt(self.SIZE))

    def test_discrete_frequencies(self, rng):
        spec = DiscreteMasses(atoms=((0.2, 0.2), (0.6, 0.6), (0.2, 0.9)))
        draws = sample_eta(spec, self.SIZE, rng)
        for weight, eta in spec.atoms:
            freq = float(np.mean(draws == eta))
            assert freq == pytest.approx(weight, abs=3 * 0.5 / math.sqrt(self.SIZE))

    def test_beta_matches_law(self, rng):
        draws = sample_eta(BetaPrior(3.0, 5.0), self.SIZE, rng)
        stat = scipy.stats.kstest(draws, lambda x: scipy.stats.beta.cdf(x, 3, 5))
        assert stat.pvalue > 0.01

    def test_logistic_normal_matches_law(self, rng):
        draws = sample_eta(LogisticNormal(m=-0.6, s=0.8), self.SIZE, rng)
        logits = scipy.special.logit(draws)
        stat = scipy.stats.kstest(logits, lambda x: scipy.stats.norm.cdf(x, -0.6, 0.8))
        assert stat.pvalue > 0.01

    def test_beta_mixture_matches_law(self, rng):
        mix = BetaMixture(weights=(0.6, 0.4), components=((4.0, 16.0), (16.0, 4.0)))
        draws = sample_eta(mix, self.SIZE, rng)

        def cdf(x):
            return 0.6 * scipy.stats.beta.cdf(x, 4, 16) + 0.4 * scipy.stats.beta.cdf(
                x, 16, 4
            )

        stat = scipy.stats.kstest(draws, cdf)
        assert stat.pvalue > 0.01


def scenario(prior, mu=0.8, m=50, n_range=(10, 20), seed=11, **kw):
    return SimulationScenario(
        prior=prior, mu=mu, num_users=m, n_range=n_range, seed=seed, **kw
    )


class TestSimulateDataset:
    def test_deterministic_replay(self):
        sc = scenario(BetaPrior(3.0, 5.0))
        first = simulate_dataset(sc)
        second = simulate_dataset(scenario(BetaPrior(3.0, 5.0)))
        assert first == second

    def test_seed_changes_output(self):
        base = simulate_dataset(scenario(BetaPrior(3.0, 5.0), seed=1))
        other = simulate_dataset(scenario(BetaPrior(3.0, 5.0), seed=2))
        assert base != other

    def test_id_formats_and_counts(self):
        records, truth = simulate_dataset(
            scenario(BetaPrior(3.0, 5.0), m=12, n_range=(3, 7))
        )
        assert [uid for uid, _ in truth] == [f"u{j:04d}" for j in range(12)]
        counts = {}
        for rec in records:
            counts[rec.user_id] = counts.get(rec.user_id, 0) + 1
            prefix, idx = rec.item_id.rsplit("-", 1)
            assert prefix == rec.user_id and len(idx) == 4
        assert set(counts) == {uid for uid, _ in truth}
        assert all(3 <= c <= 7 for c in counts.values())

    def test_wide_user_ids_when_needed(self):
        _, truth = simulate_dataset(
            scenario(DiscreteMasses(atoms=((1.0, 1.0),)), m=10_001, n_range=(1, 1))
        )
        assert truth[0][0] == "u00000" and truth[-1][0] == "u10000"

    def test_truth_etas_live_in_prior_support(self):
        records, truth = simulate_dataset(
            scenario(TwoPointPrior(0.6, 0.4, 0.98), m=200)
        )
        assert {eta for _, eta in truth} <= {0.4, 0.98}
        assert all(rec.label in (0, 1) for rec in records)

    def test_fully_attentive_pooled_frequency_hits_mu(self):
        # Point mass at eta = 1: every label is Bernoulli(mu), N = 10^6.
        sc = scenario(
            DiscreteMasses(atoms=((1.0, 1.0),)),
            m=100,
            n_range=(10_000, 10_000),
            seed=3,
        )
        records, _ = simulate_dataset(sc)
        freq = sum(r.label for r in records) / len(records)
        assert abs(freq - 0.8) < 3 * math.sqrt(0.8 * 0.2 / 1e6)  # 0.0012

    def test_beta_prior_pooled_frequency(self):
        # E[label] = 1/2 + E[eta] (mu - 1/2) = 0.6125 for Beta(3,5), mu=0.8.
        sc = scenario(BetaPrior(3.0, 5.0), m=10_000, n_range=(100, 100), seed=4)
        records, _ = simulate_dataset(sc)
        freq = sum(r.label for r in records) / len(records)
        n_total = len(records)
        bound = 3 * math.sqrt(0.25 / n_total + 0.1 / 10_000)
        assert abs(freq - 0.6125) < bound

    @pytest.mark.parametrize(
        "prior",
        [
            TwoPointPrior(0.6, 0.4, 0.98),
            BetaPrior(3.0, 5.0),
            BetaMixture(weights=(0.6, 0.4), components=((4.0, 16.0), (16.0, 4.0))),
            LogisticNormal(m=-0.6, s=0.8),
            DiscreteMasses(atoms=((0.2, 0.2), (0.6, 0.6), (0.2, 0.9))),
        ],
        ids=["two_point", "beta", "beta_mixture", "logistic_normal", "discrete"],
    )
    def test_marginal_calibration(self, prior):
        # Conditional on the drawn etas, labels are independent with win
        # probability g(eta_j); the pooled frequency must match the
        # eta-weighted average of g within 3 sigma.
        sc = scenario(prior, m=300, n_range=(40, 60), seed=8)
        records, truth = simulate_dataset(sc)
        eta = dict(truth)
        expected = sum(
            0.5 + eta[r.user_id] * 0.3 for r in records
        ) / len(records)
        freq = sum(r.label for r in records) / len(records)
        assert abs(freq - expected) < 3 * math.sqrt(0.25 / len(records))
        mean_eta = float(np.mean([e for _, e in truth]))
        assert abs(mean_eta - prior_mean(prior)) < 4 * 0.5 / math.sqrt(300)

    def test_per_item_p_keeps_binomial_law(self):
        # With a fresh p_i ~ Beta(8,2) per item, an attentive user's label
        # count stays exactly Binomial(n, mu); spread in p must not show up.
        sc = scenario(
            DiscreteMasses(atoms=((1.0, 1.0),)),
            m=40_000,
            n_range=(5, 5),
            seed=6,
            per_item_p_model=BetaPerItemP(8.0, 2.0),
        )
        records, _ = simulate_dataset(sc)
        sums = {}
        for rec in records:
            sums[rec.user_id] = sums.get(rec.user_id, 0) + rec.label
        observed = np.bincount(list(sums.values()), minlength=6)
        expected = 40_000 * scipy.stats.binom.pmf(np.arange(6), 5, 0.8)
        stat = scipy.stats.chisquare(observed, expected)
        assert stat.pvalue > 0.01


COLUMN_SCENARIOS = {
    "beta_default": scenario_preset("beta_default"),
    "per_item_p": SimulationScenario(
        prior=BetaPrior(3.0, 5.0),
        mu=0.8,
        num_users=120,
        n_range=(5, 40),
        seed=3,
        per_item_p_model=BetaPerItemP(8.0, 2.0),
    ),
    "two_point": SimulationScenario(
        prior=TwoPointPrior(0.6, 0.4, 0.98),
        mu=0.9,
        num_users=1001,
        n_range=(1, 12),
        seed=7,
    ),
}


class TestSimulateColumns:
    """The columnar simulation against the per-record loop it replaced."""

    @pytest.mark.parametrize("n_range", [(1, 12), (9_998, 10_001)])
    def test_item_ids_are_the_user_id_and_a_padded_index(self, n_range):
        # Item index widths 4 and 5: max(4, digits of n_max - 1).
        sc = scenario(BetaPrior(3.0, 5.0), m=3, n_range=n_range)
        columns, truth = simulate_columns(sc)
        width = max(4, len(str(n_range[1] - 1)))
        counts = np.bincount(columns.users).tolist()
        assert columns.item_ids == [
            f"{user_id}-{i:0{width}d}"
            for user_id, n in zip(columns.user_ids, counts)
            for i in range(n)
        ]
        want_records, want_truth = ref.simulate_dataset(sc)
        assert truth == want_truth
        assert columns.to_records() == want_records

    @pytest.mark.parametrize("name", sorted(COLUMN_SCENARIOS))
    def test_same_records_truth_and_histories(self, name):
        scenario = COLUMN_SCENARIOS[name]
        want_records, want_truth = ref.simulate_dataset(scenario)
        columns, truth = simulate_columns(scenario)
        assert truth == want_truth
        assert columns.to_records() == want_records
        assert simulate_dataset(scenario) == (want_records, want_truth)
        codes, sum_z, n = user_counts(columns)
        counts = zip([columns.user_ids[c] for c in codes], sum_z.tolist(), n.tolist())
        assert [UserHistory(*c) for c in counts] == ref.histories_from_records(
            want_records
        )

    @pytest.mark.parametrize("name", sorted(COLUMN_SCENARIOS))
    def test_cli_files_are_byte_identical(self, name, tmp_path):
        scenario = COLUMN_SCENARIOS[name]
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"scenario": fio.encode_scenario(scenario), "out_dir": str(tmp_path / "out")}
            )
        )
        assert main(["simulate", "--config", str(config)]) == EXIT_OK
        records, truth = ref.simulate_dataset(scenario)
        ref.write_annotations(tmp_path / "annotations.jsonl", records)
        fio.write_truth(tmp_path / "truth.csv", truth)
        for file in ("annotations.jsonl", "truth.csv"):
            assert (tmp_path / "out" / file).read_bytes() == (tmp_path / file).read_bytes()


class TestEstimateMu:
    def test_all_wins(self):
        pairs = [ScoredPair(f"i{k}", 2.0, 1.0) for k in range(50)]
        est = estimate_mu(pairs)
        assert est.mu_hat == 1.0
        assert est.ci[0] < 1.0 <= est.ci[1] + 1e-12

    def test_even_split(self):
        pairs = [ScoredPair("a", 2.0, 1.0), ScoredPair("b", 1.0, 2.0)]
        assert estimate_mu(pairs).mu_hat == 0.5

    def test_ties_count_half_and_warn(self, caplog):
        pairs = [ScoredPair("a", 2.0, 1.0), ScoredPair("b", 1.5, 1.5)]
        with caplog.at_level(logging.WARNING, logger="prefqc.simulate"):
            est = estimate_mu(pairs)
        assert est.mu_hat == pytest.approx(0.75, abs=1e-12)
        assert any("tie" in rec.message for rec in caplog.records)

    def test_wilson_interval_frozen(self):
        pairs = [ScoredPair(f"i{k}", 1.0, 0.0) for k in range(80)]
        pairs += [ScoredPair(f"j{k}", 0.0, 1.0) for k in range(20)]
        est = estimate_mu(pairs)
        assert est.mu_hat == pytest.approx(0.8, abs=1e-12)
        assert est.ci[0] == pytest.approx(WILSON_80_100[0], abs=1e-12)
        assert est.ci[1] == pytest.approx(WILSON_80_100[1], abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_mu([])

    def test_scores_must_be_finite(self):
        with pytest.raises(ValueError):
            ScoredPair("a", math.inf, 0.0)


class TestNamedScenarios:
    def test_misspecification_suite_members(self):
        fig4 = misspecification_suite("beta_mixture_fig4")
        assert isinstance(fig4.prior, BetaMixture)
        assert fig4.prior.weights == (0.6, 0.4)
        assert fig4.num_users == 400 and fig4.n_range == (50, 100)

        masses = misspecification_suite("three_mass_d2")
        assert isinstance(masses.prior, DiscreteMasses)
        assert masses.prior.atoms == ((0.2, 0.2), (0.6, 0.6), (0.2, 0.9))
        assert masses.num_users == 4000 and masses.n_range == (500, 500)

        assert isinstance(misspecification_suite("logistic_normal_fig4").prior, LogisticNormal)
        assert isinstance(misspecification_suite("three_beta_d2").prior, BetaMixture)

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(ValueError, match="three_mass_d2"):
            misspecification_suite("nope")

    def test_preset_inventory(self):
        names = list_presets()
        assert len(names) == 19
        assert names == sorted(names)
        assert "table3_beta_800_200" in names
        assert "twopoint_default" in names

    def test_preset_spot_checks(self):
        sweep = scenario_preset("table3_beta_800_200")
        assert isinstance(sweep.prior, BetaPrior)
        assert (sweep.prior.alpha, sweep.prior.beta) == (3.0, 5.0)
        assert sweep.num_users == 800 and sweep.n_range == (200, 200)

        default = scenario_preset("twopoint_default")
        assert isinstance(default.prior, TwoPointPrior)
        assert default.prior.eta_hi == 0.98 and default.n_range == (50, 100)

        uf = scenario_preset("ultrafeedback_qwen7b_qwen05b")
        assert uf.mu == 0.98

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="known"):
            scenario_preset("missing_preset")
