"""Posterior summaries, selection rules, dataset filtering, and error metrics."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prefqc import (
    AnnotationRecord,
    BetaPrior,
    FilterDecision,
    LogisticNormalMixturePrior,
    MissingDecisionError,
    ModelParams,
    TailProbability,
    Threshold,
    TopFraction,
    TwoPointPrior,
    UserHistory,
    filter_dataset,
    recovery_accuracy,
    relative_error,
    select_users,
    summarize_histories,
    summarize_posterior,
)
from prefqc.em import PosteriorRows
from prefqc import filtering
from prefqc.filtering import PosteriorSummary

# Posterior mass on the low atom for TwoPoint{0.6, 0.4, 0.98}, mu=0.8,
# sum_z=8, n=10 (same instance as in the EM tests).
GAMMA_LO_WORKED = 0.41365972253685374
# Median of Beta(3, 5), solved to 50 digits.
BETA_3_5_MEDIAN = 0.3641160864480826

TWO_POINT_PARAMS = ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8)
BETA_PARAMS = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)


def hist_counts(user_id, sum_z, n):
    return UserHistory.from_labels(user_id, [1] * sum_z + [0] * (n - sum_z))


def fake_summary(user_id, map_eta, mean_eta=None, tail=None):
    """Hand-built summary for rule tests; its table is a two-atom stand-in."""
    g_hi = tail if tail is not None else map_eta
    table = PosteriorRows(np.array([0.0, 0.9]), np.array([[1.0 - g_hi, g_hi]]))
    return PosteriorSummary(
        user_id=user_id,
        n_labels=10,
        map_eta=map_eta,
        mean_eta=map_eta if mean_eta is None else mean_eta,
        tail_probs=(),
        table=table,
        row=0,
    )


def tail_prob(summary, eta_star):
    """P(eta >= eta_star) of the summary's posterior."""
    return float(summary.table.tail([eta_star])[summary.row, 0])


class TestSummarizePosterior:
    def test_two_point_worked_instance(self):
        summary = summarize_posterior(
            hist_counts("u", 8, 10), TWO_POINT_PARAMS, eta_stars=(0.5,)
        )
        g_hi = 1.0 - GAMMA_LO_WORKED
        assert summary.map_eta == 0.98
        assert summary.mean_eta == pytest.approx(
            GAMMA_LO_WORKED * 0.4 + g_hi * 0.98, abs=1e-12
        )
        # Tail is a step function over the two atoms.
        assert summary.tail_probs == ((0.5, pytest.approx(g_hi, abs=1e-12)),)
        assert tail_prob(summary, 0.4) == pytest.approx(1.0, abs=1e-12)
        assert tail_prob(summary, 0.98) == pytest.approx(g_hi, abs=1e-12)
        assert tail_prob(summary, 0.981) == 0.0
        assert summary.n_labels == 10

    def test_beta_no_data_tail_at_median_is_half(self):
        summary = summarize_posterior(
            UserHistory.from_labels("u", []), BETA_PARAMS
        )
        assert tail_prob(summary, BETA_3_5_MEDIAN) == pytest.approx(0.5, abs=1e-3)
        assert summary.mean_eta == pytest.approx(3.0 / 8.0, abs=1e-6)

    def test_mixture_prior_uses_grid(self):
        prior = LogisticNormalMixturePrior((1.0,), (0.0,), (0.8,))
        params = ModelParams(prior=prior, mu=0.8)
        summary = summarize_posterior(hist_counts("u", 15, 20), params)
        assert 0.0 <= summary.map_eta <= 1.0
        assert 0.0 < summary.mean_eta < 1.0

    def test_requested_tail_points_are_recorded_in_order(self):
        summary = summarize_posterior(
            hist_counts("u", 8, 10), BETA_PARAMS, eta_stars=(0.7, 0.2)
        )
        stars = [s for s, _ in summary.tail_probs]
        assert stars == [0.7, 0.2]
        tails = [t for _, t in summary.tail_probs]
        assert tails[0] <= tails[1]


    @pytest.mark.parametrize("stars", [(0.5, 0.5), (0.3, 0.7, 0.3), (0.0, -0.0)])
    def test_repeated_eta_star_is_rejected(self, stars):
        # posteriors.csv holds one tail column per star: a repeat would
        # write two columns of one name, which read back as one.
        with pytest.raises(ValueError, match=f"eta_stars repeats {stars[-1]!r}"):
            summarize_histories([hist_counts("u", 8, 10)], BETA_PARAMS, eta_stars=stars)


class TestTailDecision:
    def test_threshold_on_tail_mass(self):
        summary = summarize_posterior(hist_counts("u", 8, 10), TWO_POINT_PARAMS)
        # tail at 0.5 is gamma_hi, about 0.586
        assert select_users([summary], TailProbability(0.5, level=0.5))[0].attentive
        assert not select_users([summary], TailProbability(0.5, level=0.6))[0].attentive

    def test_boundary_level_is_kept(self):
        # exactly-representable tail mass so >= at the boundary is exact
        summary = fake_summary("u", map_eta=0.9, tail=0.75)
        assert select_users([summary], TailProbability(0.5, level=0.75))[0].attentive
        rule = TailProbability(0.5, level=0.7500000001)
        assert not select_users([summary], rule)[0].attentive

    @pytest.mark.parametrize("params", [TWO_POINT_PARAMS, BETA_PARAMS], ids=["two_point", "beta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eta_star_is_rejected(self, params, bad):
        # PosteriorRows.tail takes only stars that its callers have checked.
        message = f"eta_stars entry must be a finite real number, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            summarize_histories([hist_counts("u", 8, 10)], params, eta_stars=[bad])
        with pytest.raises(ValueError, match=f"eta_star must be a finite real number, got {bad!r}"):
            TailProbability(eta_star=bad)


class TestSelectUsers:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_users([], TopFraction(0.5))

    def test_top_fraction_keeps_ceiling(self):
        summaries = [fake_summary(f"u{i}", map_eta=i / 10) for i in range(7)]
        decisions = select_users(summaries, TopFraction(0.5))
        assert sum(d.attentive for d in decisions) == math.ceil(0.5 * 7)
        # decisions come back in input order, one per summary
        assert [d.user_id for d in decisions] == [s.user_id for s in summaries]
        kept = {d.user_id for d in decisions if d.attentive}
        assert kept == {"u6", "u5", "u4", "u3"}

    def test_top_fraction_tie_breaks(self):
        # Equal MAP: higher mean wins; equal mean too: lexicographic id.
        summaries = [
            fake_summary("b", map_eta=0.9, mean_eta=0.5),
            fake_summary("a", map_eta=0.9, mean_eta=0.5),
            fake_summary("c", map_eta=0.9, mean_eta=0.7),
        ]
        decisions = select_users(summaries, TopFraction(1 / 3))
        kept = [d.user_id for d in decisions if d.attentive]
        assert kept == ["c"]
        decisions = select_users(summaries, TopFraction(2 / 3))
        kept = {d.user_id for d in decisions if d.attentive}
        assert kept == {"c", "a"}

    def test_top_fraction_one_keeps_everyone(self):
        summaries = [fake_summary(f"u{i}", map_eta=i / 5) for i in range(5)]
        decisions = select_users(summaries, TopFraction(1.0))
        assert all(d.attentive for d in decisions)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            TopFraction(0.0)
        with pytest.raises(ValueError):
            TopFraction(1.2)

    def test_threshold_rule(self):
        summaries = [fake_summary(f"u{i}", map_eta=i / 4) for i in range(5)]
        decisions = select_users(summaries, Threshold(0.5))
        kept = {d.user_id for d in decisions if d.attentive}
        assert kept == {"u2", "u3", "u4"}  # boundary value 0.5 is kept
        assert all(d.score == s.map_eta for d, s in zip(decisions, summaries))

    def test_tail_probability_rule(self):
        summaries = [
            fake_summary("lo", map_eta=0.9, tail=0.3),
            fake_summary("edge", map_eta=0.9, tail=0.95),
            fake_summary("hi", map_eta=0.9, tail=0.99),
        ]
        decisions = select_users(summaries, TailProbability(eta_star=0.5, level=0.95))
        kept = {d.user_id for d in decisions if d.attentive}
        assert kept == {"edge", "hi"}
        assert decisions[0].score == pytest.approx(0.3, abs=1e-12)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            TailProbability(eta_star=0.5, level=1.5)

    # A bool passes every range check as 1 or 0, so it is refused by type.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.5", None, True, False])
    def test_rule_values_must_be_finite_reals(self, bad):
        with pytest.raises(ValueError, match="eta_star must be a finite real number"):
            TailProbability(eta_star=bad)
        with pytest.raises(ValueError, match="level must be a finite real number"):
            TailProbability(eta_star=0.5, level=bad)
        with pytest.raises(ValueError, match="threshold value must be a finite real number"):
            Threshold(bad)
        with pytest.raises(ValueError, match="fraction must be a finite real number"):
            TopFraction(bad)
        with pytest.raises(ValueError, match="eta_stars entry"):
            summarize_posterior(hist_counts("u", 3, 5), BETA_PARAMS, eta_stars=(0.5, bad))

    @given(st.integers(1, 40), st.floats(0.01, 1.0))
    def test_top_fraction_count_always_ceiling(self, m, fraction):
        summaries = [fake_summary(f"u{i:02d}", map_eta=(i % 7) / 7) for i in range(m)]
        decisions = select_users(summaries, TopFraction(fraction))
        assert sum(d.attentive for d in decisions) == math.ceil(fraction * m)


def record(user, item, label):
    return AnnotationRecord(user_id=user, item_id=item, label=label)


def decision(user, attentive):
    return FilterDecision(user_id=user, attentive=attentive, rule=Threshold(0.5), score=0.0)


class TestFilterDataset:
    def test_keeps_attentive_records_in_order(self):
        records = [
            record("a", "i1", 1),
            record("b", "i1", 0),
            record("a", "i2", 0),
            record("c", "i1", 1),
            record("b", "i2", 1),
        ]
        decisions = [decision("a", True), decision("b", False), decision("c", True)]
        filtered = filter_dataset(records, decisions)
        assert [(r.user_id, r.item_id) for r in filtered.records] == [
            ("a", "i1"),
            ("a", "i2"),
            ("c", "i1"),
        ]
        assert filtered.kept_user_ids == ("a", "c")
        assert filtered.users_kept == 2 and filtered.records_kept == 3

    def test_output_is_subsequence_of_input(self):
        rng = np.random.default_rng(7)
        records = [
            record(f"u{rng.integers(0, 6)}", f"i{k}", int(rng.integers(0, 2)))
            for k in range(60)
        ]
        decisions = [decision(f"u{j}", j % 2 == 0) for j in range(6)]
        filtered = filter_dataset(records, decisions)
        it = iter(records)
        assert all(rec in it for rec in filtered.records)

    def test_orphan_records_raise(self):
        records = [record("a", "i1", 1), record("ghost", "i1", 0)]
        with pytest.raises(MissingDecisionError, match="ghost"):
            filter_dataset(records, [decision("a", True)])

    def test_nobody_kept_gives_empty_dataset(self):
        records = [record("a", "i1", 1)]
        filtered = filter_dataset(records, [decision("a", False)])
        assert filtered.records == () and filtered.kept_user_ids == ()


class TestRecoveryAccuracy:
    def test_perfect_filter_scores_one(self):
        decisions = [decision(f"u{i}", i >= 5) for i in range(10)]
        true_etas = {f"u{i}": i / 10 for i in range(10)}
        assert recovery_accuracy(decisions, true_etas) == 1.0

    def test_counts_fraction_of_truly_high_kept(self):
        # truly high (eta > median of {0..0.9} = 0.45): u5..u9; kept: u7..u9
        decisions = [decision(f"u{i}", i >= 7) for i in range(10)]
        true_etas = {f"u{i}": i / 10 for i in range(10)}
        assert recovery_accuracy(decisions, true_etas) == pytest.approx(3 / 5)

    def test_explicit_threshold_overrides_quantile(self):
        decisions = [decision(f"u{i}", i >= 8) for i in range(10)]
        true_etas = {f"u{i}": i / 10 for i in range(10)}
        acc = recovery_accuracy(decisions, true_etas, threshold=0.75)
        assert acc == pytest.approx(1.0)  # truly high = u8, u9, both kept

    def test_decision_order_is_irrelevant(self):
        decisions = [decision(f"u{i}", i % 3 == 0) for i in range(9)]
        true_etas = {f"u{i}": (i * 7 % 9) / 9 for i in range(9)}
        forward = recovery_accuracy(decisions, true_etas)
        backward = recovery_accuracy(list(reversed(decisions)), true_etas)
        assert forward == backward

    def test_nobody_above_threshold_raises(self):
        decisions = [decision("a", True), decision("b", False)]
        with pytest.raises(ValueError, match="above"):
            recovery_accuracy(decisions, {"a": 0.5, "b": 0.5}, threshold=0.9)

    def test_missing_truth_raises(self):
        decisions = [decision("a", True), decision("b", True)]
        with pytest.raises(MissingDecisionError, match="b"):
            recovery_accuracy(decisions, {"a": 0.5})

    def test_accepts_pair_iterable(self):
        decisions = [decision("a", True), decision("b", False)]
        acc = recovery_accuracy(decisions, [("a", 0.9), ("b", 0.1)], threshold=0.5)
        assert acc == 1.0


def _recovery_by_id_sets(decisions, true_etas, quantile, threshold):
    """recovery_accuracy's rules over sets of ids: the quantile of every
    decision's eta, and a user kept when one of its decisions keeps it.
    None when no user's eta lies above the threshold."""
    if threshold is None:
        threshold = float(np.quantile([true_etas[d.user_id] for d in decisions], quantile))
    above = {d.user_id for d in decisions if true_etas[d.user_id] > threshold}
    kept = {d.user_id for d in decisions if d.attentive}
    return len(kept & above) / len(above) if above else None


@given(
    picks=st.lists(st.tuples(st.integers(0, 7), st.booleans()), min_size=1, max_size=30),
    etas=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
        min_size=8, max_size=8,
    ),
    # An explicit threshold: none, any number, or one of the etas (a tie).
    threshold=st.one_of(st.none(), st.floats(-0.5, 1.5), st.integers(0, 7)),
    quantile=st.floats(0.0, 1.0),
)
def test_recovery_accuracy_equals_its_array_core(picks, etas, threshold, quantile):
    decisions = [decision(f"u{k}", keep) for k, keep in picks]  # ids repeat
    true_etas = {f"u{k}": eta for k, eta in enumerate(etas)}
    if isinstance(threshold, int):
        threshold = etas[threshold]
    want = _recovery_by_id_sets(decisions, true_etas, quantile, threshold)
    users = list(dict.fromkeys(d.user_id for d in decisions))
    user_etas = np.array([true_etas[u] for u in users])
    keep = np.array([any(d.attentive for d in decisions if d.user_id == u) for u in users])
    cut = threshold
    if cut is None:
        cut = filtering._quantile([true_etas[d.user_id] for d in decisions], quantile)
    calls = [
        lambda: recovery_accuracy(decisions, true_etas, quantile, threshold=threshold),
        lambda: filtering.recovery_of(user_etas, keep, threshold=cut),
    ]
    if threshold is None and len(users) == len(decisions):
        calls.append(lambda: filtering.recovery_of(user_etas, keep, quantile))
    for call in calls:
        if want is None:
            with pytest.raises(ValueError, match="no user's true eta lies above"):
                call()
        else:
            assert call() == want


# recovery_accuracy's empirical quantile must equal np.quantile's bits:
# values with ties, a single value, the ends and the middle, and any q.
_quantile_values = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=40),
)


@given(
    values=_quantile_values,
    q=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
# Interpolating from the wrong side of 0.5 misses these by one bit.
@example(values=[0.062, 0.641], q=0.85)
@example(values=[0.055, 0.188], q=0.27)
def test_empirical_quantile_equals_numpy_bit_for_bit(values, q):
    got = filtering._quantile(values, q)
    assert got.hex() == float(np.quantile(values, q)).hex()


def test_empirical_quantile_of_one_value_is_that_value():
    for q in (0.0, 0.3, 0.5, 1.0):
        assert filtering._quantile([0.7], q) == 0.7


class TestRelativeError:
    def test_beta_worked_example(self):
        est = ModelParams(prior=BetaPrior(3.61, 5.50), mu=0.8)
        true = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        # max(0.61/3, 0.50/5)
        assert relative_error(est, true) == pytest.approx(0.61 / 3.0, abs=5e-5)

    def test_two_point_worked_example(self):
        est = ModelParams(prior=TwoPointPrior(0.6, 0.45, 0.98), mu=0.8)
        true = ModelParams(prior=TwoPointPrior(0.6, 0.40, 0.98), mu=0.8)
        assert relative_error(est, true) == pytest.approx(0.125, abs=1e-12)

    def test_zero_true_value_uses_absolute_error(self):
        est = ModelParams(prior=TwoPointPrior(0.5, 0.03, 0.9), mu=0.8)
        true = ModelParams(prior=TwoPointPrior(0.5, 0.0, 0.9), mu=0.8)
        assert relative_error(est, true) == pytest.approx(0.03, abs=1e-12)

    def test_free_mu_enters_the_maximum(self):
        est = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.9, mu_mode="free")
        true = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.6, mu_mode="free")
        assert relative_error(est, true) == pytest.approx(0.3 / 0.6, abs=1e-12)

    def test_fixed_mu_ignored(self):
        est = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.9)
        true = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.6)
        assert relative_error(est, true) == 0.0

    def test_identical_params_score_zero(self):
        params = ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8)
        assert relative_error(params, params) == 0.0

    def test_family_mismatch_raises(self):
        est = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        true = ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8)
        with pytest.raises(ValueError, match="family"):
            relative_error(est, true)

    def test_mu_mode_mismatch_raises(self):
        est = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8, mu_mode="free")
        true = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        with pytest.raises(ValueError, match="mu_mode"):
            relative_error(est, true)

    def test_mixture_prior_unsupported(self):
        mix = LogisticNormalMixturePrior((1.0,), (0.0,), (1.0,))
        est = ModelParams(prior=mix, mu=0.8)
        with pytest.raises(ValueError, match="parameterizations"):
            relative_error(est, est)
