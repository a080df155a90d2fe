"""EM engine: E-steps, M-steps, the full fit loop, and the mixture fit."""

import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from prefqc import (
    BetaPrior,
    BoxOnMu,
    DegenerateComponentError,
    EmConfig,
    LogPriorOnMu,
    LogisticNormalMixturePrior,
    ModelParams,
    QuadratureGrid,
    SimulationScenario,
    TwoPointPrior,
    UserHistory,
    em_fit,
    fit_logistic_normal_mixture,
    histories_from_records,
    m_step_beta,
    m_step_mu,
    m_step_two_point,
    observed_loglik,
    posterior_grid,
    posterior_two_point,
    simulate_dataset,
)

# Worked single-user instance (same as in test_model): TwoPoint{0.6, 0.4,
# 0.98}, mu=0.8, sum_z=8, n=10. gamma_lo follows from the atom likelihoods.
GAMMA_LO_WORKED = 0.41365972253685374

# Grid posterior moments for Beta(3,5), mu=0.8, sum_z=8, n=10, computed from
# the exact (closed-form) integrals at 50-digit precision.
POST_MEAN_WORKED = 0.4335634010782529
POST_E_LOG_WORKED = -0.9215031449696002
POST_E_LOG1M_WORKED = -0.616093506166196


def sim_histories(prior, mu, m, n_range, seed):
    scenario = SimulationScenario(
        prior=prior, mu=mu, num_users=m, n_range=n_range, seed=seed
    )
    records, truth = simulate_dataset(scenario)
    return histories_from_records(records), dict(truth)


def hist_counts(user_id, sum_z, n):
    return UserHistory.from_labels(user_id, [1] * sum_z + [0] * (n - sum_z))


class TestPosteriorTwoPoint:
    def test_empty_history_returns_prior(self):
        params = ModelParams(prior=TwoPointPrior(0.35, 0.2, 0.9), mu=0.8)
        g_lo, g_hi = posterior_two_point(UserHistory.from_labels("u", []), params)
        assert g_lo == pytest.approx(0.35, abs=1e-12)
        assert g_hi == pytest.approx(0.65, abs=1e-12)

    def test_equal_atoms_cancel_likelihood(self):
        params = ModelParams(prior=TwoPointPrior(0.3, 0.6, 0.6), mu=0.8)
        g_lo, g_hi = posterior_two_point(hist_counts("u", 7, 10), params)
        assert g_lo == pytest.approx(0.3, abs=1e-12)
        assert g_hi == pytest.approx(0.7, abs=1e-12)

    def test_worked_instance(self):
        params = ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8)
        g_lo, _ = posterior_two_point(hist_counts("u", 8, 10), params)
        assert g_lo == pytest.approx(GAMMA_LO_WORKED, abs=1e-12)

    def test_degenerate_prior_mass(self):
        params = ModelParams(prior=TwoPointPrior(0.0, 0.2, 0.9), mu=0.8)
        g_lo, g_hi = posterior_two_point(hist_counts("u", 3, 5), params)
        assert g_lo == 0.0 and g_hi == 1.0

    def test_long_history_no_underflow(self):
        params = ModelParams(prior=TwoPointPrior(0.5, 0.2, 0.9), mu=0.8)
        hist = hist_counts("u", 75000, 100000)
        g_lo, g_hi = posterior_two_point(hist, params)
        assert math.isfinite(g_lo) and 0.0 <= g_lo <= 1.0
        # frequency 0.75 sits far closer to g(0.9)=0.77 than g(0.2)=0.56
        assert g_hi > 1.0 - 1e-10

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_sums_to_one(self, sum_z, extra):
        n = sum_z + extra
        params = ModelParams(prior=TwoPointPrior(0.4, 0.3, 0.85), mu=0.75)
        g_lo, g_hi = posterior_two_point(hist_counts("u", sum_z, n), params)
        assert g_lo + g_hi == 1.0
        assert 0.0 <= g_lo <= 1.0

    def test_rejects_continuous_prior(self):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        with pytest.raises(ValueError):
            posterior_two_point(hist_counts("u", 3, 5), params)


class TestPosteriorGrid:
    def test_empty_history_recovers_prior(self, grid):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        post = posterior_grid(UserHistory.from_labels("u", []), params, grid)
        from prefqc import prior_log_masses

        _, log_mass = prior_log_masses(params.prior, grid)
        prior_masses = np.exp(log_mass)
        prior_masses = prior_masses / prior_masses.sum()
        np.testing.assert_allclose(post.masses, prior_masses, atol=1e-12)

    def test_monotone_likelihood_puts_map_at_one(self, grid):
        # Near-uniform prior, every label a win, high mu: the posterior is
        # increasing in eta, so the MAP lands on the last node exactly.
        params = ModelParams(prior=BetaPrior(1.001, 1.001), mu=0.95)
        post = posterior_grid(hist_counts("u", 200, 200), params, grid)
        assert post.map_eta == 1.0

    def test_worked_moments_match_fine_reference(self, grid):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        post = posterior_grid(hist_counts("u", 8, 10), params, grid)

        # Brute-force reference on a 10^6-node trapezoid grid.
        nodes = np.linspace(0.0, 1.0, 1_000_001)
        g = 0.5 + nodes * 0.3
        logpost = scipy.stats.beta.logpdf(nodes, 3.0, 5.0)
        logpost += 8.0 * np.log(g) + 2.0 * np.log1p(-g)
        w = np.exp(logpost - logpost.max())
        ref_mean = float(np.trapezoid(w * nodes, nodes) / np.trapezoid(w, nodes))

        assert post.mean_eta == pytest.approx(ref_mean, abs=1e-4)
        assert post.mean_eta == pytest.approx(POST_MEAN_WORKED, abs=1e-4)
        assert post.e_log_eta == pytest.approx(POST_E_LOG_WORKED, abs=1e-4)
        assert post.e_log_1meta == pytest.approx(POST_E_LOG1M_WORKED, abs=1e-4)

    def test_masses_normalized(self, grid):
        params = ModelParams(prior=BetaPrior(2.0, 4.0), mu=0.7)
        post = posterior_grid(hist_counts("u", 30, 40), params, grid)
        assert float(post.masses.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(post.masses >= 0.0)

    def test_tail_prob_behavior(self, grid):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        post = posterior_grid(hist_counts("u", 8, 10), params, grid)
        assert post.tail_prob(0.0) == pytest.approx(1.0, abs=1e-9)
        assert post.tail_prob(1.0) == 0.0
        # non-increasing in the threshold, even between nodes
        points = np.linspace(0.0, 1.0, 517)
        tails = np.array([post.tail_prob(float(s)) for s in points])
        assert np.all(np.diff(tails) <= 1e-12)
        # interpolated value is bracketed by the neighboring node tails
        mid = 0.5 * (grid.nodes[500] + grid.nodes[501])
        assert post.tail_prob(float(grid.nodes[501])) <= post.tail_prob(mid)
        assert post.tail_prob(mid) <= post.tail_prob(float(grid.nodes[500]))

    def test_rejects_two_point_prior(self, grid):
        params = ModelParams(prior=TwoPointPrior(0.5, 0.2, 0.9), mu=0.8)
        with pytest.raises(ValueError):
            posterior_grid(hist_counts("u", 3, 5), params, grid)

    def test_long_history_concentrates(self, grid):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        post = posterior_grid(hist_counts("u", 7700, 10000), params, grid)
        # frequency 0.77 inverts to eta = (0.77 - 0.5) / 0.3 = 0.9
        assert post.map_eta == pytest.approx(0.9, abs=0.01)
        assert post.tail_prob(0.85) > 0.99


def q_two_point(gammas, hists, mu, q1, eta_1, eta_2):
    """Surrogate objective for a (q1, eta_1, eta_2) probe, labels as given."""
    sz = np.array([h.sum_z for h in hists], dtype=float)
    n = np.array([h.n for h in hists], dtype=float)
    gam = np.asarray(gammas, dtype=float)

    def comp(eta, g_col, logq):
        g = 0.5 + eta * (mu - 0.5)
        return float(np.dot(g_col, logq + sz * math.log(g) + (n - sz) * math.log1p(-g)))

    return comp(eta_1, gam[:, 0], math.log(q1)) + comp(eta_2, gam[:, 1], math.log(1.0 - q1))


class TestMStepTwoPoint:
    def test_uniform_responsibilities_average(self):
        hists = [hist_counts("a", 5, 10), hist_counts("b", 9, 10)]
        prior = m_step_two_point([(0.5, 0.5), (0.5, 0.5)], hists, mu=0.8)
        assert prior.q1 == pytest.approx(0.5, abs=1e-12)

    def test_raw_update_above_one_clips(self):
        # Second component: (2*10 - 10) / (0.6 * 10) = 1.667, clipped to 1.
        hists = [hist_counts("a", 5, 10), hist_counts("b", 10, 10)]
        prior = m_step_two_point([(1.0, 0.0), (0.0, 1.0)], hists, mu=0.8)
        assert prior.eta_hi == 1.0
        assert prior.eta_lo == pytest.approx(0.0, abs=1e-12)
        assert prior.q1 == pytest.approx(0.5, abs=1e-12)

    def test_crossed_update_swaps_and_flips_q1(self):
        # Component 1 carries the high-frequency users, so its raw eta comes
        # out above component 2's; canonicalization must swap and flip q1.
        hists = [
            hist_counts("a", 10, 10),
            hist_counts("b", 10, 10),
            hist_counts("c", 5, 10),
        ]
        gam = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        prior = m_step_two_point(gam, hists, mu=0.8)
        assert prior.eta_lo <= prior.eta_hi
        assert prior.eta_lo == pytest.approx(0.0, abs=1e-12)
        assert prior.eta_hi == 1.0
        assert prior.q1 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_mass_component_raises(self):
        hists = [hist_counts("a", 5, 10)]
        with pytest.raises(DegenerateComponentError):
            m_step_two_point([(0.0, 1.0)], hists, mu=0.8)

    def test_matches_per_coordinate_numeric_maximizer(self, rng):
        # Each atom solves a weighted Bernoulli problem; a bounded 1-D
        # numeric search over the same coordinate must land within 1e-6.
        for _ in range(10):
            m = int(rng.integers(3, 12))
            hists = [
                hist_counts(f"u{i}", int(rng.integers(0, 21)), 20) for i in range(m)
            ]
            g1 = rng.uniform(0.05, 0.95, size=m)
            gam = np.stack([g1, 1.0 - g1], axis=1)
            mu = float(rng.uniform(0.6, 0.95))
            prior = m_step_two_point([tuple(row) for row in gam], hists, mu)

            sz = np.array([h.sum_z for h in hists], dtype=float)
            n = np.array([h.n for h in hists], dtype=float)
            for eta_hat, col in ((prior.eta_lo, gam[:, 0]), (prior.eta_hi, gam[:, 1])):
                if prior.q1 not in (0.0, 1.0) and not math.isclose(
                    prior.eta_lo, prior.eta_hi
                ):
                    def neg(eta, col=col):
                        g = 0.5 + eta * (mu - 0.5)
                        return -float(
                            np.dot(col, sz * math.log(g) + (n - sz) * math.log1p(-g))
                        )

                    res = scipy.optimize.minimize_scalar(
                        neg, bounds=(0.0, 1.0), method="bounded",
                        options={"xatol": 1e-9},
                    )
                    # canonicalization may have swapped the columns; accept
                    # a match against either returned atom
                    assert min(
                        abs(res.x - prior.eta_lo), abs(res.x - prior.eta_hi)
                    ) <= 1e-6

    def test_beats_random_probes(self, rng):
        m = 15
        hists = [hist_counts(f"u{i}", int(rng.integers(0, 31)), 30) for i in range(m)]
        g1 = rng.uniform(0.1, 0.9, size=m)
        gam = np.stack([g1, 1.0 - g1], axis=1)
        mu = 0.8
        prior = m_step_two_point([tuple(r) for r in gam], hists, mu)
        # Canonical atom ordering may relabel the responsibility columns,
        # so read the returned optimum under both pairings.
        ours = max(
            q_two_point(gam, hists, mu, prior.q1, prior.eta_lo, prior.eta_hi),
            q_two_point(gam, hists, mu, 1.0 - prior.q1, prior.eta_hi, prior.eta_lo),
        )
        for _ in range(2000):
            probe = rng.uniform(1e-3, 1.0 - 1e-3, size=3)
            assert q_two_point(gam, hists, mu, *probe) <= ours + 1e-8


class TestMStepBeta:
    def test_exact_moments_recover_shapes(self):
        psi = scipy.special.digamma
        stub = SimpleNamespace(
            e_log_eta=float(psi(3.0) - psi(8.0)),
            e_log_1meta=float(psi(5.0) - psi(8.0)),
        )
        prior, clamped = m_step_beta([stub, stub, stub])
        assert prior.alpha == pytest.approx(3.0, abs=1e-6)
        assert prior.beta == pytest.approx(5.0, abs=1e-6)
        assert not clamped

    def test_symmetric_moments_give_equal_shapes(self):
        psi = scipy.special.digamma
        rhs = float(psi(2.5) - psi(5.0))
        stub = SimpleNamespace(e_log_eta=rhs, e_log_1meta=rhs)
        prior, _ = m_step_beta([stub])
        assert prior.alpha == pytest.approx(prior.beta, rel=1e-8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            m_step_beta([])

    def test_beats_random_probes(self, grid, rng):
        params = ModelParams(prior=BetaPrior(2.0, 3.0), mu=0.8)
        posteriors = [
            posterior_grid(hist_counts(f"u{i}", int(rng.integers(2, 28)), 30), params, grid)
            for i in range(12)
        ]
        prior, clamped = m_step_beta(posteriors)
        assert not clamped
        s1 = sum(p.e_log_eta for p in posteriors)
        s2 = sum(p.e_log_1meta for p in posteriors)
        m = len(posteriors)

        def q_beta(a, b):
            return (a - 1.0) * s1 + (b - 1.0) * s2 - m * float(
                scipy.special.betaln(a, b)
            )

        ours = q_beta(prior.alpha, prior.beta)
        probes = rng.uniform(1.001, 30.0, size=(2000, 2))
        vals = np.array([q_beta(a, b) for a, b in probes])
        assert np.all(vals <= ours + 1e-8)


class TestMStepMu:
    def test_fully_attentive_users_recover_frequency(self):
        # Point-mass-at-1 posteriors reduce the objective to a plain
        # Bernoulli MLE in mu; frequency 0.8 means mu-hat 0.8.
        hists = [hist_counts(f"u{i}", 16, 20) for i in range(5)]
        posteriors = [(0.0, 1.0)] * 5
        prior = TwoPointPrior(0.5, 0.0, 1.0)
        mu = m_step_mu(posteriors, hists, prior)
        assert mu == pytest.approx(0.8, abs=1e-6)

    def test_box_projects_to_boundary(self, caplog):
        hists = [hist_counts(f"u{i}", 16, 20) for i in range(5)]
        posteriors = [(0.0, 1.0)] * 5
        prior = TwoPointPrior(0.5, 0.0, 1.0)
        with caplog.at_level(logging.WARNING, logger="prefqc.em"):
            mu = m_step_mu(posteriors, hists, prior, BoxOnMu(lo=0.5, hi=0.7))
        assert mu == 0.7
        assert any("boundary" in rec.message for rec in caplog.records)

    def test_no_data_returns_regularizer_mode(self):
        prior = TwoPointPrior(0.5, 0.0, 1.0)
        mu = m_step_mu([], [], prior, LogPriorOnMu(a=8.0, b=2.0))
        assert mu == pytest.approx(7.0 / 8.0, abs=1e-6)

    def test_beats_random_probes(self, rng):
        hists = [hist_counts(f"u{i}", int(rng.integers(0, 26)), 25) for i in range(8)]
        g1 = rng.uniform(0.1, 0.9, size=8)
        posteriors = [(float(g), float(1.0 - g)) for g in g1]
        prior = TwoPointPrior(0.5, 0.15, 0.85)
        reg = LogPriorOnMu(a=8.0, b=2.0)
        mu_hat = m_step_mu(posteriors, hists, prior, reg)

        sz = np.array([h.sum_z for h in hists], dtype=float)
        n = np.array([h.n for h in hists], dtype=float)
        gam = np.array(posteriors)
        support = np.array([prior.eta_lo, prior.eta_hi])
        wins = gam.T @ sz
        losses = gam.T @ (n - sz)

        def objective(mu):
            g = 0.5 + support * (mu - 0.5)
            val = float(np.dot(wins, np.log(g)) + np.dot(losses, np.log1p(-g)))
            return val + 7.0 * math.log(mu) + math.log1p(-mu)

        ours = objective(mu_hat)
        probes = rng.uniform(0.5 + 1e-4, 1.0 - 1e-4, size=10_000)
        vals = np.array([objective(p) for p in probes])
        assert np.all(vals <= ours + 1e-8)


def param_vec(params):
    prior = params.prior
    if isinstance(prior, TwoPointPrior):
        vec = [prior.q1, prior.eta_lo, prior.eta_hi]
    else:
        vec = [prior.alpha, prior.beta]
    if params.mu_mode == "free":
        vec.append(params.mu)
    return np.array(vec)


def assert_monotone(report):
    lls = np.array([pt.loglik for pt in report.trajectory])
    drops = np.diff(lls)
    assert np.all(drops >= -1e-9), f"log-likelihood fell by {-drops.min():.3e}"


class TestEmFit:
    def test_init_at_truth_barely_moves(self):
        for prior in (TwoPointPrior(0.6, 0.4, 0.98), BetaPrior(3.0, 5.0)):
            hists, _ = sim_histories(prior, 0.8, 2000, (50, 100), seed=0)
            cfg = EmConfig(
                init=ModelParams(prior=prior, mu=0.8, mu_mode="fixed"), max_iters=2
            )
            report = em_fit(hists, cfg)
            change = np.max(
                np.abs(
                    param_vec(report.trajectory[1].params)
                    - param_vec(report.trajectory[0].params)
                )
            )
            assert change < 0.05

    def test_two_point_recovery_and_monotonicity(self):
        truth = TwoPointPrior(0.6, 0.4, 0.98)
        hists, _ = sim_histories(truth, 0.8, 400, (100, 100), seed=3)
        report = em_fit(hists, EmConfig(family="two_point", mu=0.8))
        assert_monotone(report)
        assert report.converged and report.stop_reason == "param_tol"
        fitted = report.final_params.prior
        assert fitted.q1 == pytest.approx(0.6, abs=0.1)
        assert fitted.eta_lo == pytest.approx(0.4, abs=0.1)
        assert fitted.eta_hi == pytest.approx(0.98, abs=0.05)

    def test_beta_recovery_and_monotonicity(self):
        hists, _ = sim_histories(BetaPrior(3.0, 5.0), 0.8, 400, (100, 100), seed=3)
        report = em_fit(hists, EmConfig(family="beta", mu=0.8))
        assert_monotone(report)
        fitted = report.final_params.prior
        assert fitted.alpha == pytest.approx(3.0, rel=0.4)
        assert fitted.beta == pytest.approx(5.0, rel=0.4)

    def test_free_mu_matches_identifiable_win_rate(self):
        # With a Beta prior, (prior mean, mu) trade off along a soft ridge,
        # so mu itself is not pinned down at this sample size. What the
        # likelihood does identify is the implied marginal win rate
        # 1/2 + E[eta] (mu - 1/2), which must track the pooled frequency.
        hists, _ = sim_histories(BetaPrior(3.0, 5.0), 0.8, 800, (50, 100), seed=5)
        cfg = EmConfig(
            family="beta", mu_mode="free", regularizer=LogPriorOnMu(8.0, 2.0),
            max_iters=200,
        )
        report = em_fit(hists, cfg)
        assert_monotone(report)
        params = report.final_params
        assert params.mu_mode == "free"
        assert 0.5 < params.mu < 1.0
        prior_mean = params.prior.alpha / (params.prior.alpha + params.prior.beta)
        implied = 0.5 + prior_mean * (params.mu - 0.5)
        pooled = sum(h.sum_z for h in hists) / sum(h.n for h in hists)
        assert implied == pytest.approx(pooled, abs=1e-3)

    def test_canonical_ordering_every_iteration(self):
        # Start with the atoms backwards relative to the data clusters so
        # the first update has to cross; the trajectory must stay ordered.
        truth = TwoPointPrior(0.5, 0.2, 0.95)
        hists, _ = sim_histories(truth, 0.8, 300, (60, 60), seed=9)
        init = ModelParams(
            prior=TwoPointPrior(0.9, 0.55, 0.6), mu=0.8, mu_mode="fixed"
        )
        report = em_fit(hists, EmConfig(init=init))
        assert_monotone(report)
        for point in report.trajectory:
            assert point.params.prior.eta_lo <= point.params.prior.eta_hi

    def test_free_mu_counts_follow_crossed_atoms(self):
        # The first update crosses the atoms, so the mu step must count each
        # user's wins and losses against the atom its mass moved to.
        hists = [hist_counts("a", 16, 29), hist_counts("b", 1, 3)]
        init = ModelParams(TwoPointPrior(0.54, 0.84, 0.93), mu=0.94, mu_mode="free")
        report = em_fit(hists, EmConfig(init=init, max_iters=1))
        gammas = [posterior_two_point(h, init) for h in hists]
        new_prior = report.trajectory[1].params.prior
        assert new_prior.q1 == pytest.approx(1.0 - np.mean([g[0] for g in gammas]))
        expected = m_step_mu([(hi, lo) for lo, hi in gammas], hists, new_prior)
        assert report.trajectory[1].params.mu == pytest.approx(expected, abs=1e-6)

    def test_user_order_is_irrelevant(self):
        hists, _ = sim_histories(TwoPointPrior(0.6, 0.4, 0.98), 0.8, 120, (30, 60), 2)
        cfg = EmConfig(family="two_point", mu=0.8)
        fwd = em_fit(hists, cfg)
        rev = em_fit(list(reversed(hists)), cfg)
        np.testing.assert_allclose(
            param_vec(fwd.final_params), param_vec(rev.final_params), atol=1e-12
        )
        assert fwd.final_loglik == pytest.approx(rev.final_loglik, abs=1e-9)

    def test_ridge_without_regularizer_still_terminates(self):
        # All users fully attentive at mu=0.6: (prior mass, mu) trade off
        # along a ridge. The fit must end at a valid point without error.
        hists, _ = sim_histories(
            TwoPointPrior(0.0, 0.0, 1.0), 0.6, 200, (100, 100), seed=4
        )
        cfg = EmConfig(family="two_point", mu_mode="free", max_iters=120)
        report = em_fit(hists, cfg)
        assert_monotone(report)
        assert 0.5 < report.final_params.mu < 1.0
        assert report.stop_reason in ("param_tol", "max_iters")

    def test_ridge_with_box_keeps_mu_inside(self):
        hists, _ = sim_histories(
            TwoPointPrior(0.0, 0.0, 1.0), 0.6, 200, (100, 100), seed=4
        )
        cfg = EmConfig(
            family="two_point", mu_mode="free",
            regularizer=BoxOnMu(lo=0.5, hi=0.7), max_iters=120,
        )
        report = em_fit(hists, cfg)
        assert_monotone(report)
        assert report.final_params.mu <= 0.7 + 1e-12
        for point in report.trajectory:
            assert point.params.mu <= 0.7 + 1e-12

    def test_max_iters_budget_respected(self):
        hists, _ = sim_histories(BetaPrior(3.0, 5.0), 0.8, 50, (20, 20), seed=1)
        report = em_fit(hists, EmConfig(family="beta", mu=0.8, max_iters=1))
        assert report.iterations == 1
        assert len(report.trajectory) == 2
        assert report.stop_reason == "max_iters" and not report.converged

    def test_validation_errors(self):
        hists, _ = sim_histories(BetaPrior(3.0, 5.0), 0.8, 10, (10, 10), seed=0)
        with pytest.raises(ValueError):
            em_fit([], EmConfig(family="beta", mu=0.8))
        with pytest.raises(ValueError):
            EmConfig(family="elastic", mu=0.8)
        with pytest.raises(ValueError):
            EmConfig(
                family="beta",
                init=ModelParams(prior=TwoPointPrior(0.5, 0.2, 0.9), mu=0.8),
            )
        mix = LogisticNormalMixturePrior((1.0,), (0.0,), (1.0,))
        with pytest.raises(ValueError):
            em_fit(hists, EmConfig(init=ModelParams(prior=mix, mu=0.8)))

    @pytest.mark.parametrize("mu_mode", ["fixed", "free"])
    @pytest.mark.parametrize(
        "truth",
        [TwoPointPrior(0.6, 0.4, 0.98), BetaPrior(3.0, 5.0)],
        ids=["two_point", "beta"],
    )
    def test_trajectory_loglik_is_observed_loglik(self, grid, truth, mu_mode):
        hists, _ = sim_histories(truth, 0.8, 80, (20, 40), seed=5)
        family = "two_point" if isinstance(truth, TwoPointPrior) else "beta"
        mu = 0.8 if mu_mode == "fixed" else None
        cfg = EmConfig(family=family, mu=mu, mu_mode=mu_mode, max_iters=60)
        report = em_fit(hists, cfg)
        assert len(report.trajectory) > 2
        for point in report.trajectory:
            assert observed_loglik(hists, point.params, grid) == point.loglik

    def test_trajectory_records_every_iteration(self):
        hists, _ = sim_histories(BetaPrior(3.0, 5.0), 0.8, 60, (20, 40), seed=6)
        report = em_fit(hists, EmConfig(family="beta", mu=0.8))
        iters = [pt.iteration for pt in report.trajectory]
        assert iters == list(range(len(iters)))
        assert report.final_loglik == report.trajectory[-1].loglik


class TestMixtureFit:
    def test_constant_input_collapses_to_floor(self):
        fitted = fit_logistic_normal_mixture([0.5] * 40, 1)
        assert fitted.weights == (1.0,)
        assert fitted.means[0] == pytest.approx(0.0, abs=1e-12)
        assert fitted.sigmas[0] == pytest.approx(1e-3, abs=1e-12)

    def test_recovers_logistic_normal_parameters(self, rng):
        draws = scipy.special.expit(-0.6 + 0.8 * rng.standard_normal(100_000))
        fitted = fit_logistic_normal_mixture(draws, 1)
        assert fitted.means[0] == pytest.approx(-0.6, abs=0.05)
        assert fitted.sigmas[0] == pytest.approx(0.8, abs=0.05)

    def test_three_mass_pipeline_recovers_modes(self):
        # Full route: three-point ground truth, Beta fit, per-user grid MAP
        # estimates, then a 3-component mixture on the logit line. The
        # fitted means must sit near the logits of 0.2, 0.6 and 0.9.
        from prefqc import misspecification_suite

        scenario = misspecification_suite("three_mass_d2")
        records, _ = simulate_dataset(scenario)
        hists = histories_from_records(records)
        del records
        report = em_fit(hists, EmConfig(family="beta", mu=0.8))
        params = report.final_params
        grid = QuadratureGrid.uniform()
        maps = [posterior_grid(h, params, grid).map_eta for h in hists]
        fitted = fit_logistic_normal_mixture(np.asarray(maps), 3)
        targets = [math.log(0.2 / 0.8), math.log(0.6 / 0.4), math.log(0.9 / 0.1)]
        for mean, target in zip(fitted.means, targets):
            assert mean == pytest.approx(target, abs=0.3)
        assert sum(fitted.weights) == pytest.approx(1.0, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_logistic_normal_mixture([], 1)
        with pytest.raises(ValueError):
            fit_logistic_normal_mixture([0.5, 0.6], 3)
        with pytest.raises(ValueError):
            fit_logistic_normal_mixture([0.5, 0.6], 0)

    def test_out_of_range_inputs_clipped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="prefqc.em"):
            fitted = fit_logistic_normal_mixture([0.0, 0.5, 1.0, 0.5], 1)
        assert any("clip" in rec.message for rec in caplog.records)
        assert math.isfinite(fitted.means[0])

    def test_components_sorted_by_mean(self, rng):
        draws = np.concatenate(
            [
                scipy.special.expit(-2.0 + 0.3 * rng.standard_normal(500)),
                scipy.special.expit(2.0 + 0.3 * rng.standard_normal(500)),
            ]
        )
        fitted = fit_logistic_normal_mixture(draws, 2)
        assert fitted.means[0] < fitted.means[1]
