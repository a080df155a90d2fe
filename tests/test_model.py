"""Data model and likelihood arithmetic."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

from prefqc import (
    AnnotationRecord,
    BetaMixture,
    BetaPerItemP,
    BetaPrior,
    DiscreteMasses,
    LogisticNormal,
    ModelParams,
    QuadratureGrid,
    SimulationScenario,
    TwoPointPrior,
    UserHistory,
    bernoulli_response_prob,
    histories_from_records,
    loglik_from_counts,
    observed_loglik,
    prior_log_masses,
    simulate_dataset,
    suff_stats,
)
from prefqc.model import first_seen

# Hand-checked reference values for the worked single-user instance:
# TwoPoint{q1=0.6, eta_lo=0.4, eta_hi=0.98}, mu=0.8, sum_z=8, n=10.
L_AT_04 = -5.75945446006741
L_AT_098 = -5.005132762265122
OBSERVED_MIX = -5.387568514470521

labels_strategy = st.lists(st.integers(min_value=0, max_value=1), max_size=60)

# Numbers that JSON can hold but no field takes: true, NaN, Infinity, a string.
BAD_NUMBERS = [True, math.nan, math.inf, "1"]


class TestResponseProb:
    def test_worked_values(self):
        assert bernoulli_response_prob(0.0, 0.8) == 0.5
        assert bernoulli_response_prob(1.0, 0.8) == pytest.approx(0.8, abs=1e-15)
        assert bernoulli_response_prob(0.5, 0.8) == pytest.approx(0.65, abs=1e-15)

    def test_vectorized(self):
        out = bernoulli_response_prob(np.array([0.0, 1.0]), 0.9)
        np.testing.assert_allclose(out, [0.5, 0.9])

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.501, max_value=0.999),
    )
    def test_affine_in_eta(self, e1, e2, t, mu):
        # g is affine: g(t*e1 + (1-t)*e2) == t*g(e1) + (1-t)*g(e2).
        blend = bernoulli_response_prob(t * e1 + (1.0 - t) * e2, mu)
        parts = t * bernoulli_response_prob(e1, mu) + (1.0 - t) * bernoulli_response_prob(e2, mu)
        assert blend == pytest.approx(parts, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=0.501, max_value=0.999),
    )
    def test_strictly_increasing_above_half(self, eta, bump, mu):
        hi = min(eta + bump, 1.0)
        if hi > eta:
            assert bernoulli_response_prob(hi, mu) > bernoulli_response_prob(eta, mu)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bernoulli_response_prob(-0.1, 0.8)
        with pytest.raises(ValueError):
            bernoulli_response_prob(1.1, 0.8)
        with pytest.raises(ValueError):
            bernoulli_response_prob(0.5, 1.0)
        with pytest.raises(ValueError):
            bernoulli_response_prob(0.5, 0.0)


def label_loglik(z, mu, eta):
    """Log-probability of one label: the counts (z, 1)."""
    return float(loglik_from_counts(z, 1, mu, eta))


class TestPerLabelLoglik:
    def test_worked_values(self):
        assert label_loglik(1, 0.8, 1.0) == pytest.approx(math.log(0.8), abs=1e-15)
        assert label_loglik(1, 0.8, 0.0) == pytest.approx(math.log(0.5), abs=1e-15)
        assert label_loglik(0, 0.8, 0.0) == pytest.approx(math.log(0.5), abs=1e-15)
        assert label_loglik(1, 0.8, 0.5) == pytest.approx(-0.4307829160924542, abs=1e-14)
        assert label_loglik(0, 0.8, 0.5) == pytest.approx(math.log(0.35), abs=1e-14)

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            label_loglik(2, 0.8, 0.5)

    @given(
        labels_strategy,
        st.floats(min_value=0.501, max_value=0.999),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sufficient_statistic_equals_naive_sum(self, labels, mu, eta):
        naive = sum(label_loglik(z, mu, eta) for z in labels)
        hist = UserHistory.from_labels("u", labels)
        got = loglik_from_counts(hist.sum_z, hist.n, mu, eta)
        assert got == pytest.approx(naive, abs=1e-12)

    def test_counts_form_worked_values(self):
        assert loglik_from_counts(10, 10, 0.8, 1.0) == pytest.approx(
            10 * math.log(0.8), abs=1e-12
        )
        assert loglik_from_counts(8, 10, 0.8, 0.4) == pytest.approx(L_AT_04, abs=1e-12)

    def test_counts_form_vectorizes_over_eta(self):
        etas = np.array([0.0, 0.4, 0.98])
        out = loglik_from_counts(8, 10, 0.8, etas)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(L_AT_04, abs=1e-12)
        assert out[2] == pytest.approx(L_AT_098, abs=1e-12)
        assert np.all(np.isfinite(out))

    def test_counts_form_broadcasts_to_rows_by_support_bitwise(self, grid, rng):
        n = rng.integers(0, 300, size=60).astype(float)
        sum_z = np.floor(rng.uniform(0.0, 1.0, size=60) * (n + 1.0))
        for support in (grid.nodes, np.array([0.25, 0.9])):
            g = bernoulli_response_prob(support, 0.8)
            outer = np.outer(sum_z, np.log(g)) + np.outer(n - sum_z, np.log1p(-g))
            got = loglik_from_counts(sum_z[:, None], n[:, None], 0.8, support)
            assert got.shape == outer.shape
            assert np.array_equal(got, outer)

    def test_counts_form_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            loglik_from_counts(11, 10, 0.8, 0.5)
        with pytest.raises(ValueError):
            loglik_from_counts(-1, 10, 0.8, 0.5)


class TestHistories:
    def test_from_labels_caches_sum(self):
        h = UserHistory.from_labels("a", [1, 0, 1, 1])
        assert h.sum_z == 3 and h.n == 4

    def test_rejects_counts_outside_zero_to_n_and_bad_labels(self):
        for sum_z, n in ((-1, 4), (5, 4), (1, 0)):
            with pytest.raises(ValueError, match="0 <= sum_z <= n"):
                UserHistory("a", sum_z, n)
        assert UserHistory("a", 4, 4).sum_z == 4
        with pytest.raises(ValueError):
            UserHistory.from_labels("a", [1, 2])

    def test_grouping_keeps_first_seen_order(self):
        records = [
            AnnotationRecord("b", "i1", 1),
            AnnotationRecord("a", "i1", 0),
            AnnotationRecord("b", "i2", 0),
        ]
        hists = histories_from_records(records)
        assert hists == [UserHistory("b", 1, 2), UserHistory("a", 0, 1)]

    @given(st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=80))
    @example([])
    @example([(3, True), (3, False), (0, True), (7, True), (0, False)])
    def test_first_seen_equals_the_unique_definition(self, pairs):
        # The kept codes of a mask, as take() leaves them: gaps included.
        codes = np.array([c for c, _ in pairs], dtype=np.intp)
        kept = codes[np.array([k for _, k in pairs], dtype=bool)]
        for sample in (codes, kept):
            uniq, first = np.unique(sample, return_index=True)
            got = first_seen(sample)
            assert got.dtype == np.intp
            assert got.tolist() == uniq[np.argsort(first)].tolist()

    def test_duplicate_pair_rejected(self):
        records = [AnnotationRecord("a", "i1", 1), AnnotationRecord("a", "i1", 0)]
        with pytest.raises(ValueError, match="duplicate"):
            histories_from_records(records)

    def test_record_label_validation(self):
        with pytest.raises(ValueError):
            AnnotationRecord("a", "i", 2)

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 1)),
            min_size=1,
            max_size=40,
        )
    )
    def test_suff_stats_reconstruction(self, spec_rows):
        hists = [
            UserHistory.from_labels(f"u{i}", [z] * n)
            for i, (n, z) in enumerate(spec_rows)
        ]
        sz_u, n_u, counts, inverse = suff_stats(hists)
        assert counts.sum() == len(hists)
        for h, row in zip(hists, inverse):
            assert sz_u[row] == h.sum_z and n_u[row] == h.n
        # unique rows really are unique
        assert len({(s, n) for s, n in zip(sz_u, n_u)}) == len(sz_u)

    @given(
        st.lists(
            st.integers(0, 80).flatmap(
                lambda n: st.tuples(st.integers(0, n), st.just(n))
            ),
            max_size=60,
        )
    )
    def test_suff_stats_equals_two_column_unique(self, pairs):
        hists = [UserHistory(f"u{i}", s, n) for i, (s, n) in enumerate(pairs)]
        stats = np.array(pairs, dtype=float).reshape(-1, 2)
        uniq, inverse, counts = np.unique(
            stats, axis=0, return_inverse=True, return_counts=True
        )
        sz_u, n_u, count_u, inv = suff_stats(hists)
        for got, want in [
            (sz_u, uniq[:, 0]),
            (n_u, uniq[:, 1]),
            (count_u, counts.astype(float)),
            (inv, inverse.reshape(-1)),
        ]:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_suff_stats_of_no_histories_is_empty(self):
        out = suff_stats([])
        assert len(out) == 4
        assert all(isinstance(a, np.ndarray) and a.shape == (0,) for a in out)


class TestPriors:
    def test_two_point_validation(self):
        with pytest.raises(ValueError):
            TwoPointPrior(q1=-0.01, eta_lo=0.2, eta_hi=0.8)
        with pytest.raises(ValueError):
            TwoPointPrior(q1=0.5, eta_lo=0.9, eta_hi=0.2)
        assert TwoPointPrior(0.3, 0.2, 0.8).q2 == pytest.approx(0.7)

    def test_beta_validation_and_density(self):
        with pytest.raises(ValueError):
            BetaPrior(alpha=1.0, beta=2.0)
        with pytest.raises(ValueError):
            BetaPrior(alpha=2.0, beta=0.5)
        prior = BetaPrior(3.0, 5.0)
        x = np.linspace(0.01, 0.99, 23)
        np.testing.assert_allclose(
            prior.log_density(x), scipy.stats.beta.logpdf(x, 3.0, 5.0), atol=1e-12
        )

    def test_beta_density_finite_at_endpoints(self):
        # The eta clip keeps endpoint nodes usable for quadrature.
        vals = BetaPrior(2.5, 4.0).log_density(np.array([0.0, 1.0]))
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
    @pytest.mark.parametrize(
        "name, build",
        [
            ("q1", lambda x: TwoPointPrior(x, 0.2, 0.8)),
            ("eta_lo", lambda x: TwoPointPrior(0.5, x, 0.8)),
            ("eta_hi", lambda x: TwoPointPrior(0.5, 0.2, x)),
            ("alpha", lambda x: BetaPrior(x, 2.0)),
            ("beta", lambda x: BetaPrior(2.0, x)),
            ("mu", lambda x: ModelParams(BetaPrior(2.0, 2.0), x)),
        ],
    )
    def test_a_number_that_is_not_finite_is_named(self, name, build, bad):
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == f"{name} must be a finite real number, got {bad!r}"

    # EM fits two families; a simulation-only truth, or no prior at all, is
    # named in the refusal.
    @pytest.mark.parametrize(
        "prior",
        [
            BetaMixture(weights=(0.5, 0.5), components=((2.0, 5.0), (5.0, 2.0))),
            LogisticNormal(m=-0.6, s=0.8),
            DiscreteMasses(atoms=((0.4, 0.2), (0.6, 0.9))),
            None,
        ],
        ids=lambda p: type(p).__name__,
    )
    def test_params_take_only_a_fitted_family(self, prior):
        with pytest.raises(ValueError) as info:
            ModelParams(prior, 0.8)
        assert str(info.value) == (
            f"ModelParams takes a two-point or Beta prior, not {type(prior).__name__}"
        )

    def test_params_mu_domain(self):
        prior = BetaPrior(2.0, 2.0)
        with pytest.raises(ValueError):
            ModelParams(prior=prior, mu=0.5)
        with pytest.raises(ValueError):
            ModelParams(prior=prior, mu=1.0)
        with pytest.raises(ValueError):
            ModelParams(prior=prior, mu=0.8, mu_mode="auto")


class TestPriorLogMasses:
    def test_two_point_atoms(self, grid):
        prior = TwoPointPrior(0.25, 0.1, 0.9)
        support, log_mass = prior_log_masses(prior, grid)
        np.testing.assert_allclose(support, [0.1, 0.9])
        np.testing.assert_allclose(np.exp(log_mass), [0.25, 0.75])

    def test_degenerate_atom_gets_minus_inf(self, grid):
        support, log_mass = prior_log_masses(TwoPointPrior(0.0, 0.1, 0.9), grid)
        assert log_mass[0] == -math.inf and log_mass[1] == pytest.approx(0.0)

    def test_continuous_masses_sum_to_one(self, grid):
        _, log_mass = prior_log_masses(BetaPrior(3.0, 5.0), grid)
        assert float(np.exp(log_mass).sum()) == pytest.approx(1.0, abs=1e-6)


class TestObservedLoglik:
    def test_empty_history_gives_zero(self, grid):
        params = ModelParams(prior=TwoPointPrior(0.5, 0.2, 0.9), mu=0.8)
        hist = UserHistory.from_labels("u", [])
        assert observed_loglik([hist], params, grid) == pytest.approx(0.0, abs=1e-12)

    def test_all_mass_on_fair_coin(self, grid):
        params = ModelParams(prior=TwoPointPrior(1.0, 0.0, 0.7), mu=0.8)
        hist = UserHistory.from_labels("u", [1, 0, 1, 1, 0])
        assert observed_loglik([hist], params, grid) == pytest.approx(
            5 * math.log(0.5), abs=1e-12
        )

    def test_worked_two_point_marginal(self, grid):
        params = ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8)
        hist = UserHistory.from_labels("u", [1] * 8 + [0] * 2)
        assert observed_loglik([hist], params, grid) == pytest.approx(
            OBSERVED_MIX, abs=1e-12
        )

    def test_sums_over_users(self, grid):
        params = ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8)
        hist = UserHistory.from_labels("u", [1] * 8 + [0] * 2)
        both = observed_loglik(
            [hist, UserHistory.from_labels("v", [1] * 8 + [0] * 2)], params, grid
        )
        assert both == pytest.approx(2 * OBSERVED_MIX, abs=1e-12)

    @given(st.floats(min_value=0.55, max_value=0.95))
    def test_never_positive(self, mu):
        params = ModelParams(prior=TwoPointPrior(0.4, 0.3, 0.9), mu=mu)
        hist = UserHistory.from_labels("u", [1, 1, 0])
        assert observed_loglik([hist], params, QuadratureGrid.uniform(65)) <= 0.0

    def test_two_point_matches_concentrated_mixture(self, grid):
        # Cross-path check: the exact atom sum and the quadrature path fed a
        # sharply concentrated density must nearly agree. Both atoms sit at
        # 0.4, and Beta(4000, 6000) puts its mass there with sd 0.005, wide
        # enough for the default grid to resolve.
        hist = UserHistory.from_labels("u", [1] * 8 + [0] * 2)
        atoms = ModelParams(prior=TwoPointPrior(0.5, 0.4, 0.4), mu=0.8)
        smooth = ModelParams(prior=BetaPrior(4000.0, 6000.0), mu=0.8)
        exact = observed_loglik([hist], atoms, grid)
        quad = observed_loglik([hist], smooth, grid)
        assert quad == pytest.approx(exact, abs=5e-3)

    # The same cross-path check at other points and histories: a point mass at
    # eta against Beta(10000 eta, 10000 (1 - eta)), whose sd is at most 0.005.
    @pytest.mark.parametrize(
        "eta, ones, zeros", [(0.1, 3, 5), (0.7, 14, 6), (0.9, 40, 2)]
    )
    def test_point_mass_matches_concentrated_beta(self, grid, eta, ones, zeros):
        hist = UserHistory.from_labels("u", [1] * ones + [0] * zeros)
        atoms = ModelParams(prior=TwoPointPrior(0.5, eta, eta), mu=0.8)
        smooth = ModelParams(prior=BetaPrior(1e4 * eta, 1e4 * (1.0 - eta)), mu=0.8)
        exact = observed_loglik([hist], atoms, grid)
        quad = observed_loglik([hist], smooth, grid)
        assert quad == pytest.approx(exact, abs=5e-3)

    def test_long_history_stays_finite(self, grid):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        hist = UserHistory.from_labels("u", [1] * 7000 + [0] * 3000)
        val = observed_loglik([hist], params, grid)
        assert math.isfinite(val) and val < 0


class TestLemmaOneIndifference:
    def test_label_frequency_tracks_response_curve(self):
        # One user with known eta, per-item preference probabilities drawn
        # from a Beta with mean mu: the label frequency must land within
        # 3 standard errors of 1/2 + eta*(mu - 1/2).
        eta0, mu = 0.7, 0.8
        scenario = SimulationScenario(
            prior=TwoPointPrior(q1=0.0, eta_lo=0.0, eta_hi=eta0),
            mu=mu,
            num_users=1,
            n_range=(20000, 20000),
            seed=11,
            per_item_p_model=BetaPerItemP(8.0, 2.0),
        )
        records, truth = simulate_dataset(scenario)
        assert truth[0][1] == eta0
        g = bernoulli_response_prob(eta0, mu)
        freq = np.mean([r.label for r in records])
        se = math.sqrt(g * (1.0 - g) / len(records))
        assert abs(freq - g) <= 3.0 * se
