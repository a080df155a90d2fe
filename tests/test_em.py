"""EM engine: E-steps, M-steps and the full fit loop."""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from prefqc import (
    BetaMixture,
    BetaPrior,
    BoxOnMu,
    DegenerateComponentError,
    DiscreteMasses,
    EmConfig,
    LogPriorOnMu,
    LogisticNormal,
    ModelParams,
    SimulationScenario,
    TwoPointPrior,
    UserHistory,
    em_fit,
    histories_from_records,
    m_step,
    observed_loglik,
    posterior_rows,
    simulate_dataset,
)
from prefqc import em
from prefqc.em import _maximize_mu
from prefqc.model import ScaledKernel, suff_stats
from prefqc.numerics import BETA_SHAPE_FLOOR

import reference as ref

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


def one_row(history, params, grid=None):
    """The one-row posterior table of a single history."""
    return posterior_rows(*suff_stats([history])[:2], params, grid)


def responsibilities(history, params):
    """(gamma_lo, gamma_hi): a history's two-point responsibilities."""
    return tuple(one_row(history, params).masses[0].tolist())


class TestPosteriorTwoPoint:
    def test_empty_history_returns_prior(self):
        params = ModelParams(prior=TwoPointPrior(0.35, 0.2, 0.9), mu=0.8)
        g_lo, g_hi = responsibilities(UserHistory.from_labels("u", []), params)
        assert g_lo == pytest.approx(0.35, abs=1e-12)
        assert g_hi == pytest.approx(0.65, abs=1e-12)

    def test_equal_atoms_cancel_likelihood(self):
        params = ModelParams(prior=TwoPointPrior(0.3, 0.6, 0.6), mu=0.8)
        g_lo, g_hi = responsibilities(hist_counts("u", 7, 10), params)
        assert g_lo == pytest.approx(0.3, abs=1e-12)
        assert g_hi == pytest.approx(0.7, abs=1e-12)

    def test_worked_instance(self):
        params = ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8)
        g_lo, _ = responsibilities(hist_counts("u", 8, 10), params)
        assert g_lo == pytest.approx(GAMMA_LO_WORKED, abs=1e-12)

    def test_degenerate_prior_mass(self):
        params = ModelParams(prior=TwoPointPrior(0.0, 0.2, 0.9), mu=0.8)
        g_lo, g_hi = responsibilities(hist_counts("u", 3, 5), params)
        assert g_lo == 0.0 and g_hi == 1.0

    def test_long_history_no_underflow(self):
        params = ModelParams(prior=TwoPointPrior(0.5, 0.2, 0.9), mu=0.8)
        hist = hist_counts("u", 75000, 100000)
        g_lo, g_hi = responsibilities(hist, params)
        assert math.isfinite(g_lo) and 0.0 <= g_lo <= 1.0
        # frequency 0.75 sits far closer to g(0.9)=0.77 than g(0.2)=0.56
        assert g_hi > 1.0 - 1e-10

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_sums_to_one(self, sum_z, extra):
        n = sum_z + extra
        params = ModelParams(prior=TwoPointPrior(0.4, 0.3, 0.85), mu=0.75)
        g_lo, g_hi = responsibilities(hist_counts("u", sum_z, n), params)
        assert g_lo + g_hi == 1.0
        assert 0.0 <= g_lo <= 1.0


class TestPosteriorGrid:
    def test_empty_history_recovers_prior(self, grid):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        post = one_row(UserHistory.from_labels("u", []), params, grid)
        from prefqc import prior_log_masses

        _, log_mass = prior_log_masses(params.prior, grid)
        prior_masses = np.exp(log_mass)
        prior_masses = prior_masses / prior_masses.sum()
        np.testing.assert_allclose(post.masses[0], prior_masses, atol=1e-12)

    def test_monotone_likelihood_puts_map_at_one(self, grid):
        # Near-uniform prior, every label a win, high mu: the posterior is
        # increasing in eta, so the MAP lands on the last node exactly.
        params = ModelParams(prior=BetaPrior(1.001, 1.001), mu=0.95)
        post = one_row(hist_counts("u", 200, 200), params, grid)
        assert post.map_eta()[0] == 1.0

    def test_worked_moments_match_fine_reference(self, grid):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        post = one_row(hist_counts("u", 8, 10), params, grid)

        # Brute-force reference on a 10^6-node trapezoid grid.
        nodes = np.linspace(0.0, 1.0, 1_000_001)
        g = 0.5 + nodes * 0.3
        logpost = scipy.stats.beta.logpdf(nodes, 3.0, 5.0)
        logpost += 8.0 * np.log(g) + 2.0 * np.log1p(-g)
        w = np.exp(logpost - logpost.max())
        ref_mean = float(np.trapezoid(w * nodes, nodes) / np.trapezoid(w, nodes))

        assert post.mean_eta()[0] == pytest.approx(ref_mean, abs=1e-4)
        assert post.mean_eta()[0] == pytest.approx(POST_MEAN_WORKED, abs=1e-4)
        log_eta, log_1meta = em._node_logs(post.support)
        assert post.masses[0] @ log_eta == pytest.approx(POST_E_LOG_WORKED, abs=1e-4)
        assert post.masses[0] @ log_1meta == pytest.approx(POST_E_LOG1M_WORKED, abs=1e-4)

    def test_masses_normalized(self, grid):
        params = ModelParams(prior=BetaPrior(2.0, 4.0), mu=0.7)
        post = one_row(hist_counts("u", 30, 40), params, grid)
        assert float(post.masses[0].sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(post.masses >= 0.0)

    def test_tail_prob_behavior(self, grid):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        post = one_row(hist_counts("u", 8, 10), params, grid)
        assert post.tail([0.0])[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert post.tail([1.0])[0, 0] == 0.0
        # non-increasing in the threshold, even between nodes
        points = np.linspace(0.0, 1.0, 517)
        tails = np.array([post.tail([float(s)])[0, 0] for s in points])
        assert np.all(np.diff(tails) <= 1e-12)
        # interpolated value is bracketed by the neighboring node tails
        mid = 0.5 * (grid.nodes[500] + grid.nodes[501])
        assert post.tail([float(grid.nodes[501])])[0, 0] <= post.tail([mid])[0, 0]
        assert post.tail([mid])[0, 0] <= post.tail([float(grid.nodes[500])])[0, 0]

    def test_long_history_concentrates(self, grid):
        params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
        post = one_row(hist_counts("u", 7700, 10000), params, grid)
        # frequency 0.77 inverts to eta = (0.77 - 0.5) / 0.3 = 0.9
        assert post.map_eta()[0] == pytest.approx(0.9, abs=0.01)
        assert post.tail([0.85])[0, 0] > 0.99


def em_totals(masses, hists):
    """E-step totals of per-user posterior masses, weighed as em_fit weighs them."""
    sz = np.array([h.sum_z for h in hists], dtype=float)
    n = np.array([h.n for h in hists], dtype=float)
    return em._em_weights(sz, n, np.ones_like(sz)) @ np.asarray(masses, dtype=float)


def two_point_step(gammas, hists, mu, mu_mode="fixed", regularizer=None):
    """`m_step` of a two-point fit from per-user responsibilities.

    The current atoms do not enter the update, so any two will do.
    """
    params = ModelParams(TwoPointPrior(0.5, 0.25, 0.75), mu, mu_mode)
    return m_step(params, em_totals(gammas, hists), len(hists), None, regularizer)


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
        params, _ = two_point_step([(0.5, 0.5), (0.5, 0.5)], hists, mu=0.8)
        assert params.prior.q1 == pytest.approx(0.5, abs=1e-12)

    def test_raw_update_above_one_clips(self):
        # Second component: (2*10 - 10) / (0.6 * 10) = 1.667, clipped to 1.
        hists = [hist_counts("a", 5, 10), hist_counts("b", 10, 10)]
        params, clamps = two_point_step([(1.0, 0.0), (0.0, 1.0)], hists, mu=0.8)
        prior = params.prior
        assert prior.eta_hi == 1.0
        assert prior.eta_lo == pytest.approx(0.0, abs=1e-12)
        assert prior.q1 == pytest.approx(0.5, abs=1e-12)
        assert clamps == [("eta_hi", 1.0)]

    def test_crossed_update_swaps_and_flips_q1(self):
        # Component 1 carries the high-frequency users, so its raw eta comes
        # out above component 2's; canonicalization must swap and flip q1.
        hists = [
            hist_counts("a", 10, 10),
            hist_counts("b", 10, 10),
            hist_counts("c", 5, 10),
        ]
        gam = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        prior = two_point_step(gam, hists, mu=0.8)[0].prior
        assert prior.eta_lo <= prior.eta_hi
        assert prior.eta_lo == pytest.approx(0.0, abs=1e-12)
        assert prior.eta_hi == 1.0
        assert prior.q1 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_mass_component_raises(self):
        hists = [hist_counts("a", 5, 10)]
        with pytest.raises(DegenerateComponentError):
            two_point_step([(0.0, 1.0)], hists, mu=0.8)

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
            prior = two_point_step(gam, hists, mu)[0].prior

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
        prior = two_point_step(gam, hists, mu)[0].prior
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
    def test_beats_random_probes(self, grid, rng):
        params = ModelParams(prior=BetaPrior(2.0, 3.0), mu=0.8)
        hists = [hist_counts(f"u{i}", int(rng.integers(2, 28)), 30) for i in range(12)]
        masses = [one_row(h, params, grid).masses[0] for h in hists]
        totals = em_totals(masses, hists)[:1]
        new, clamps = m_step(params, totals, len(hists), grid)
        assert clamps == [] and new.mu == params.mu
        log_eta, log_1meta = em._node_logs(grid.nodes)
        s1, s2 = float(totals[0] @ log_eta), float(totals[0] @ log_1meta)
        m = len(hists)

        def q_beta(a, b):
            return (a - 1.0) * s1 + (b - 1.0) * s2 - m * float(
                scipy.special.betaln(a, b)
            )

        ours = q_beta(new.prior.alpha, new.prior.beta)
        probes = rng.uniform(1.001, 30.0, size=(2000, 2))
        vals = np.array([q_beta(a, b) for a, b in probes])
        assert np.all(vals <= ours + 1e-8)


class TestMStepMu:
    # Five users with 16 wins in 20 labels, half their mass on each atom:
    # from mu = 0.6 or 0.7 both atoms invert to eta above 1 and clip to 1.
    HISTS = [hist_counts(f"u{i}", 16, 20) for i in range(5)]
    GAMMAS = [(0.5, 0.5)] * 5

    def test_fully_attentive_users_recover_frequency(self):
        # Atoms at eta = 1 reduce the objective to a plain Bernoulli MLE in
        # mu; frequency 0.8 means mu-hat 0.8.
        params, clamps = two_point_step(self.GAMMAS, self.HISTS, 0.7, "free")
        assert (params.prior.eta_lo, params.prior.eta_hi) == (1.0, 1.0)
        assert params.mu == pytest.approx(0.8, abs=1e-6)
        assert clamps == [("eta_lo", 1.0), ("eta_hi", 1.0)]

    def test_box_projects_to_boundary(self):
        box = BoxOnMu(lo=0.5, hi=0.7)
        params, clamps = two_point_step(self.GAMMAS, self.HISTS, 0.6, "free", box)
        assert params.mu == 0.7
        assert clamps[-1] == ("mu", 0.7)

    def test_no_data_returns_regularizer_mode(self):
        empty = np.zeros(1)
        mu, _, _ = _maximize_mu(empty, empty, empty, LogPriorOnMu(a=8.0, b=2.0))
        assert mu == pytest.approx(7.0 / 8.0, abs=1e-6)

    def test_beats_random_probes(self, rng):
        hists = [hist_counts(f"u{i}", int(rng.integers(0, 26)), 25) for i in range(8)]
        g1 = rng.uniform(0.1, 0.9, size=8)
        gam = np.stack([g1, 1.0 - g1], axis=1)
        reg = LogPriorOnMu(a=8.0, b=2.0)
        params, _ = two_point_step(gam, hists, 0.8, "free", reg)

        sz = np.array([h.sum_z for h in hists], dtype=float)
        n = np.array([h.n for h in hists], dtype=float)
        wins = gam.T @ sz
        losses = gam.T @ (n - sz)
        # The mu step scores the updated atoms, each with its own column's
        # labels; the column with the higher win rate got the higher atom.
        order = np.argsort(wins / (wins + losses))
        wins, losses = wins[order], losses[order]
        support = np.array([params.prior.eta_lo, params.prior.eta_hi])

        def objective(mu):
            g = 0.5 + support * (mu - 0.5)
            val = float(np.dot(wins, np.log(g)) + np.dot(losses, np.log1p(-g)))
            return val + 7.0 * math.log(mu) + math.log1p(-mu)

        ours = objective(params.mu)
        probes = rng.uniform(0.5 + 1e-4, 1.0 - 1e-4, size=10_000)
        vals = np.array([objective(p) for p in probes])
        assert np.all(vals <= ours + 1e-8)


MU_REGULARIZERS = [None, LogPriorOnMu(8.0, 2.0), BoxOnMu(0.6, 0.85)]


def grid_mu_inputs(grid, rng):
    """Per-node wins and losses shaped like a Beta fit's E-step totals."""
    shapes = rng.uniform(1.5, 12.0, size=4)
    nodes = np.clip(grid.nodes, 1e-12, 1.0 - 1e-12)
    win_mass = scipy.stats.beta.pdf(nodes, shapes[0], shapes[1]) * grid.weights
    loss_mass = scipy.stats.beta.pdf(nodes, shapes[2], shapes[3]) * grid.weights
    labels = rng.uniform(1e3, 5e4)
    share = rng.uniform(0.55, 0.9)
    wins = labels * share * win_mass / win_mass.sum()
    losses = labels * (1.0 - share) * loss_mass / loss_mass.sum()
    return grid.nodes, wins, losses


def two_point_mu_inputs(rng):
    support = np.sort(rng.uniform(0.0, 1.0, size=2))
    return support, rng.uniform(1.0, 500.0, size=2), rng.uniform(1.0, 200.0, size=2)


def mu_cases(grid, seed, count=6):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield grid_mu_inputs(grid, rng)
        yield two_point_mu_inputs(rng)


class TestMaximizeMu:
    """The Newton mu step against the fsum bisection reference."""

    @pytest.mark.parametrize("regularizer", MU_REGULARIZERS)
    def test_matches_bisection_reference(self, grid, regularizer):
        for k, (support, wins, losses) in enumerate(mu_cases(grid, 11)):
            want_mu, want_edge = ref.mu_argmax(support, wins, losses, regularizer)
            for start in (None, 0.5 + 1e-4, 0.75, 1.0 - 1e-4):
                mu, at_boundary, _ = _maximize_mu(
                    support, wins, losses, regularizer, start
                )
                assert at_boundary == want_edge, (k, start)
                if want_edge:
                    assert mu == want_mu, (k, start)
                else:
                    assert abs(mu - want_mu) <= 1e-10, (k, start)

    @pytest.mark.parametrize("regularizer", MU_REGULARIZERS)
    def test_scores_at_least_golden_section(self, grid, regularizer):
        for support, wins, losses in mu_cases(grid, 12):
            mu, _, _ = _maximize_mu(support, wins, losses, regularizer, 0.7)
            gold, _ = ref.golden_section_mu(support, wins, losses, regularizer)
            ours = ref.mu_objective(mu, support, wins, losses, regularizer)
            theirs = ref.mu_objective(gold, support, wins, losses, regularizer)
            # Slack of a few rounding units of the objective's value.
            assert ours >= theirs - 4e-16 * abs(theirs)

    @pytest.mark.parametrize(
        "box,edge", [(BoxOnMu(0.5, 0.7), 0.7), (BoxOnMu(0.85, 0.95), 0.85)]
    )
    def test_box_edges_are_exact(self, box, edge):
        # Fully attentive users winning 80% of labels: the unconstrained
        # optimum is 0.8, outside both boxes.
        support = np.array([0.0, 1.0])
        wins, losses = np.array([0.0, 80.0]), np.array([0.0, 20.0])
        for start in (None, box.lo, 0.8, box.hi):
            mu, at_boundary, objective = _maximize_mu(support, wins, losses, box, start)
            assert (mu, at_boundary) == (edge, True)
            assert objective(mu) == pytest.approx(
                ref.mu_objective(mu, support, wins, losses, box), rel=1e-12
            )


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
        # Two-point fits run plain EM, whose first step from the truth is
        # small.
        prior = TwoPointPrior(0.6, 0.4, 0.98)
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

    def test_init_at_truth_steps_to_the_optimum_without_overshoot(self):
        # A Beta fit's first step from the truth is a Newton step: it moves
        # about 0.27, just past this sample's optimum, Beta(2.853, 4.753).
        # It must end nearer the optimum than it started and overshoot it
        # by less than EM's 0.05 first-step limit, and the optimum must lie
        # within criterion 2's information bound.
        from test_acceptance import _label_count_information

        prior = BetaPrior(3.0, 5.0)
        hists, _ = sim_histories(prior, 0.8, 2000, (50, 100), seed=0)
        cfg = EmConfig(init=ModelParams(prior=prior, mu=0.8, mu_mode="fixed"))
        report = em_fit(hists, cfg)
        assert report.stop_reason == "param_tol"
        truth, first, optimum = (
            param_vec(report.trajectory[i].params) for i in (0, 1, -1)
        )
        assert np.all(np.abs(first - optimum) < np.abs(truth - optimum))
        assert np.max(np.abs(first - optimum)) < 0.05
        # The sample's Fisher information: one label-count term per user.
        n, users = np.unique([h.n for h in hists], return_counts=True)
        info = sum(
            k * _label_count_information(3.0, 5.0, 0.8, int(n_j))
            for n_j, k in zip(n, users)
        )
        err = optimum - truth
        assert float(err @ info @ err) <= scipy.stats.chi2.ppf(0.999, 2)

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
        # Under a log-prior on mu the penalized objective is the monotone one.
        # The raw log-likelihood is not: plain EM run to its param_tol stop
        # here (7190 iterations) lowers it from iteration 741 on, by 0.059 in
        # all, so it rose throughout only while the fit stopped at the cap.
        assert np.all(np.diff(penalized(report, cfg.regularizer)) >= -1e-9)
        # Without the log-prior the raw log-likelihood is the objective.
        assert_monotone(
            em_fit(hists, EmConfig(family="beta", mu_mode="free", max_iters=200))
        )
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
        gammas = [responsibilities(h, init) for h in hists]
        stepped = report.trajectory[1].params
        new_prior = stepped.prior
        assert new_prior.q1 == pytest.approx(1.0 - np.mean([g[0] for g in gammas]))
        # em_fit's step is m_step on the totals of the same responsibilities...
        want, _ = m_step(init, em_totals(gammas, hists), len(hists), None)
        np.testing.assert_allclose(param_vec(stepped), param_vec(want), atol=1e-9)
        # ...whose mu step counts each user against the atom its mass moved to.
        crossed = em_totals([(hi, lo) for lo, hi in gammas], hists)
        support = np.array([new_prior.eta_lo, new_prior.eta_hi])
        expected, _, _ = _maximize_mu(support, crossed[1], crossed[2], None)
        assert stepped.mu == pytest.approx(expected, abs=1e-6)

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
        with pytest.raises(ValueError, match="tolerances"):
            EmConfig(family="beta", mu=0.8, tol_param=math.nan)
        # An init fixes mu and its mode; a conflicting mu or a free mode for a
        # fixed init is an error, not a silently fixed fit.
        fixed = ModelParams(prior=BetaPrior(2.0, 2.0), mu=0.6, mu_mode="fixed")
        free = ModelParams(prior=BetaPrior(2.0, 2.0), mu=0.6, mu_mode="free")
        with pytest.raises(ValueError, match="conflicts with init mu"):
            EmConfig(init=fixed, mu=0.8, mu_mode="free")
        with pytest.raises(ValueError, match="conflicts with init mu"):
            EmConfig(init=free, mu=0.8)
        with pytest.raises(ValueError, match="fixed-mu init"):
            EmConfig(init=fixed, mu_mode="free")
        with pytest.raises(ValueError, match="fixed-mu init"):
            EmConfig(init=fixed, mu=0.6, mu_mode="free")
        # The default mode cannot be told apart from an explicit "fixed": init wins.
        assert EmConfig(init=free, mu=0.6, mu_mode="fixed").init.mu_mode == "free"

    # Numbers that JSON can hold but no field takes: true, NaN, Infinity, a string.
    @pytest.mark.parametrize("bad", [True, math.nan, math.inf, "1"], ids=repr)
    @pytest.mark.parametrize(
        "name, build",
        [
            ("mu", lambda x: EmConfig(family="beta", mu=x)),
            ("max_iters", lambda x: EmConfig(family="beta", mu=0.8, max_iters=x)),
            ("tol_param", lambda x: EmConfig(family="beta", mu=0.8, tol_param=x)),
            ("tol_loglik", lambda x: EmConfig(family="beta", mu=0.8, tol_loglik=x)),
            ("a", lambda x: LogPriorOnMu(x, 2.0)),
            ("b", lambda x: LogPriorOnMu(8.0, x)),
            ("lo", lambda x: BoxOnMu(x, 0.9)),
            ("hi", lambda x: BoxOnMu(0.6, x)),
        ],
    )
    def test_a_number_that_is_not_finite_is_named(self, name, build, bad):
        if name == "max_iters":
            expected = f"max_iters must be an integer, got {bad!r}"
        elif name.startswith("tol_") and isinstance(bad, float):
            expected = "tolerances must be positive"  # as for a negative one
        else:
            expected = f"{name} must be a finite real number, got {bad!r}"
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == expected

    def test_family_of_names_each_start_and_nothing_else(self):
        for name, start in em.FAMILIES.items():
            assert em.family_of(start) == name
            assert em.default_init(name, [], 0.8, "fixed").prior == start
        truth = BetaMixture(weights=(0.5, 0.5), components=((2.0, 5.0), (5.0, 2.0)))
        assert em.family_of(truth) is None

    # The CLI screens a simulation-only truth by its family: there is none.
    @pytest.mark.parametrize(
        "truth",
        [
            BetaMixture(weights=(1.0,), components=((2.0, 3.0),)),
            LogisticNormal(m=0.0, s=1.0),
            DiscreteMasses(atoms=((1.0, 0.5),)),
        ],
        ids=lambda p: type(p).__name__,
    )
    def test_a_simulation_only_truth_has_no_family(self, truth):
        assert em.family_of(truth) is None

    # Each user's frequency lies in [0.55, 0.95], so the start is not clipped.
    @given(counts=st.lists(
        st.integers(20, 3000).flatmap(
            lambda n: st.tuples(st.integers(math.ceil(0.55 * n), int(0.95 * n)), st.just(n))
        ),
        min_size=1, max_size=60,
    ))
    def test_free_mu_start_is_the_label_frequency_of_python_sums(self, counts):
        rows = suff_stats([UserHistory(f"u{k}", s, n) for k, (s, n) in enumerate(counts)])
        total_n = sum(n for _, n in counts)
        freq = sum(s for s, _ in counts) / total_n if total_n else 0.75
        start = em.default_init("beta", rows, None, "free")
        assert start.mu == min(max(freq, 0.55), 0.95)

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


def beta_derivatives(rows, params, regularizer, grid):
    """`em`'s gradient and Hessian of the penalized objective at `params`.

    `rows` is a list of (sum_z, n, count), as `reference.penalized_loglik`
    takes them. The mu row and column are there only for a free mu.
    """
    sz, n, cnt = (np.array(col, dtype=float) for col in zip(*rows))
    kernel = ScaledKernel(sz, n, grid)
    _, totals, _ = kernel.e_step(params, em._em_weights(sz, n, cnt))
    terms = em._regularizer_terms(regularizer)
    return em._score_and_hessian(params, kernel, totals, cnt, terms)


def stat_rows(histories):
    sz, n, cnt, _ = suff_stats(histories)
    return list(zip(sz.tolist(), n.tolist(), cnt.tolist()))


def beta_params(vec, mu_mode="free") -> ModelParams:
    return ModelParams(BetaPrior(vec[0], vec[1]), vec[2], mu_mode)


def penalized(report, regularizer):
    """The penalized objective at every point of a free-mu trajectory."""
    pa, pb, _, _ = em._regularizer_terms(regularizer)
    return np.array(
        [pt.loglik + em._mu_log_prior(pa, pb, pt.params.mu) for pt in report.trajectory]
    )


# The eval scenario's fit at mu = 0.8, seed 1 (Beta(3, 5), 250 users, 50-100
# labels, LogPriorOnMu(8, 2)), run by plain EM to param_tol: 3010 iterations.
LONG_EM_OPTIMUM = (3.064514330563569, 8.136448265613422, 0.866162391796955)

# Penalized objectives of the robustness fits (Beta(3, 5) truth, 250 users,
# 50-100 labels, LogPriorOnMu(8, 2)), each run by plain EM to param_tol in
# 1842-8299 iterations, and the iterations the hybrid fit may take. The
# (0.6, 5) optimum lies on the alpha floor. At (0.7, 3) the step scaled to
# the full trust region fails to raise the objective from iteration 15 on;
# with a region that did not shrink after such a step, Newton sat out ever
# longer stretches and the fit took 178 iterations.
LONG_EM_OBJECTIVES = {
    (0.6, 1): (-12988.959143251128, 40),
    (0.6, 2): (-13007.826174490507, 200),
    (0.6, 3): (-13073.548714235676, 200),
    (0.6, 4): (-12702.958305653094, 200),
    (0.6, 5): (-13207.137296185767, 200),
    (0.7, 1): (-12854.986114950136, 60),
    (0.7, 2): (-12853.34646381045, 60),
    (0.7, 3): (-12907.367253758859, 40),
    (0.7, 4): (-12530.103236743687, 40),
    (0.7, 5): (-13035.483065070752, 40),
}


class TestNewtonStep:
    CASES = [
        (0.6, (2.5, 4.0, 0.62), LogPriorOnMu(8.0, 2.0)),
        (0.6, (2.5, 4.0, 0.62), None),
        (0.9, (3.0, 5.0, 0.88), LogPriorOnMu(8.0, 2.0)),
        (0.9, (3.0, 5.0, 0.88), None),
    ]

    # A fixed mu is a constant of the objective: its derivatives are the
    # (alpha, beta) block, and the mu log-prior adds nothing to them.
    @pytest.mark.parametrize("mu_mode", ["free", "fixed"])
    @pytest.mark.parametrize("true_mu, at, regularizer", CASES)
    def test_gradient_is_the_derivative_of_the_objective(
        self, grid, true_mu, at, regularizer, mu_mode
    ):
        hists, _ = sim_histories(BetaPrior(3.0, 5.0), true_mu, 40, (10, 30), seed=3)
        rows = stat_rows(hists)
        grad, _ = beta_derivatives(rows, beta_params(at, mu_mode), regularizer, grid)
        assert grad.shape == ((3,) if mu_mode == "free" else (2,))
        h = 1e-5
        central = []
        for j in range(grad.size):
            step = np.eye(3)[j] * h
            up = ref.penalized_loglik(
                rows, beta_params(at + step, mu_mode), grid, regularizer
            )
            down = ref.penalized_loglik(
                rows, beta_params(at - step, mu_mode), grid, regularizer
            )
            central.append((up - down) / (2.0 * h))
        assert np.max(np.abs(grad - central)) <= 1e-6 * np.max(np.abs(grad))

    @pytest.mark.parametrize("mu_mode", ["free", "fixed"])
    @pytest.mark.parametrize("true_mu, at, regularizer", CASES)
    def test_louis_hessian_is_the_derivative_of_the_gradient(
        self, grid, true_mu, at, regularizer, mu_mode
    ):
        hists, _ = sim_histories(BetaPrior(3.0, 5.0), true_mu, 40, (10, 30), seed=3)
        rows = stat_rows(hists)
        params = beta_params(at, mu_mode)
        grad, hess = beta_derivatives(rows, params, regularizer, grid)
        h = 1e-5
        columns = []
        for j in range(grad.size):
            step = np.eye(3)[j] * h
            up, _ = beta_derivatives(
                rows, beta_params(at + step, mu_mode), regularizer, grid
            )
            down, _ = beta_derivatives(
                rows, beta_params(at - step, mu_mode), regularizer, grid
            )
            columns.append((up - down) / (2.0 * h))
        central = np.array(columns).T
        assert np.array_equal(hess, hess.T)
        if mu_mode == "fixed":
            # The fixed-mu block is the free-mu Hessian's (alpha, beta) block,
            # whose raw entries the free-mu case checks.
            _, full = beta_derivatives(rows, beta_params(at), regularizer, grid)
            np.testing.assert_allclose(hess, full[:2, :2], rtol=1e-12, atol=0)
            # Without the mu entry to set the scale, the finite-difference
            # trigammas of the complete-data term -m J(a, b) show: 1.2e-7 off
            # at a = 3 or b = 4 (`test_numerics.TestBetaMomentJacobian` bounds
            # them). Swap in scipy's, so that the rest of the block is held to
            # the bound on its own.
            a, b = at[0], at[1]
            tri = scipy.special.polygamma(1, [a, b, a + b])
            exact_j = np.array([[tri[0] - tri[2], -tri[2]], [-tri[2], tri[1] - tri[2]]])
            m = sum(count for _, _, count in rows)
            hess = hess + m * (np.array(em.beta_moment_jacobian(a, b)) - exact_j)
        assert np.max(np.abs(hess - central)) <= 1e-6 * np.max(np.abs(hess))

    def test_converged_fit_is_stationary_at_the_long_em_optimum(self, grid):
        regularizer = LogPriorOnMu(8.0, 2.0)
        hists, _ = sim_histories(BetaPrior(3.0, 5.0), 0.8, 250, (50, 100), seed=1)
        cfg = EmConfig(family="beta", mu_mode="free", regularizer=regularizer)
        report = em_fit(hists, cfg)
        assert report.stop_reason == "param_tol" and report.converged
        assert 0 < report.newton_steps <= report.iterations <= 30
        params = report.final_params
        grad, _ = beta_derivatives(stat_rows(hists), params, regularizer, grid)
        assert np.max(np.abs(grad)) <= 1e-6
        np.testing.assert_allclose(param_vec(params), LONG_EM_OPTIMUM, rtol=0, atol=1e-3)
        assert np.all(np.diff(penalized(report, regularizer)) > 0.0)

    @pytest.mark.parametrize("true_mu, seed", sorted(LONG_EM_OBJECTIVES))
    def test_weakly_identified_fits_stay_safe_and_reach_em_optimum(
        self, grid, true_mu, seed
    ):
        # Below the benchmark's mu range the likelihood has a ridge and a
        # local maximum on the alpha floor; (0.6, 2) walks a plain Newton
        # method to alpha -> 1.
        regularizer = LogPriorOnMu(8.0, 2.0)
        hists, _ = sim_histories(BetaPrior(3.0, 5.0), true_mu, 250, (50, 100), seed)
        cfg = EmConfig(family="beta", mu_mode="free", regularizer=regularizer)
        report = em_fit(hists, cfg)
        objective = penalized(report, regularizer)
        assert np.all(np.diff(objective) >= -cfg.tol_loglik)
        spacing = float(np.max(np.diff(grid.nodes)))
        for point in report.trajectory:
            a, b = point.params.prior.alpha, point.params.prior.beta
            sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
            assert sd >= 8.0 * spacing, f"Beta({a}, {b}) is narrower than the grid"
        long_em, max_iterations = LONG_EM_OBJECTIVES[true_mu, seed]
        assert report.stop_reason == "param_tol" and report.newton_steps > 0
        assert report.iterations <= max_iterations
        assert objective[-1] >= long_em - 1e-6
        # Stationary in every coordinate not held on the alpha floor.
        params = report.final_params
        grad, _ = beta_derivatives(stat_rows(hists), params, regularizer, grid)
        if params.prior.alpha <= BETA_SHAPE_FLOOR:
            assert grad[0] < 0.0
            grad = grad[1:]
        assert np.max(np.abs(grad)) <= 1e-4

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fixed_mu_fit_stops_stationary_without_a_drop(self, grid, seed):
        # beta_bulk's shape: Beta(3, 5), mu = 0.8, 2000 users, 50-100 labels.
        # The param_tol stop must sit on the stationary point, not merely
        # follow a small step: EM steps alone can stop such a fit at a
        # gradient of 6e-5.
        hists, _ = sim_histories(BetaPrior(3.0, 5.0), 0.8, 2000, (50, 100), seed)
        cfg = EmConfig(family="beta", mu=0.8)
        report = em_fit(hists, cfg)
        assert report.stop_reason == "param_tol" and report.converged
        assert 0 < report.newton_steps <= report.iterations <= 15
        lls = np.array([pt.loglik for pt in report.trajectory])
        assert np.all(np.diff(lls) >= 0.0)
        params = report.final_params
        grad, hess = beta_derivatives(stat_rows(hists), params, None, grid)
        assert grad.shape == (2,) and np.max(np.abs(grad)) <= 1e-6
        assert report.score_norm == np.max(np.abs(grad)) / len(hists)
        # The Newton step to the stationary point is shorter than tol_param.
        assert np.max(np.abs(np.linalg.solve(hess, grad))) < cfg.tol_param

    def test_fixed_mu_step_holds_mu_and_a_shape_on_the_floor(self):
        params = ModelParams(BetaPrior(BETA_SHAPE_FLOOR, 3.0), 0.8)
        terms = em._regularizer_terms(None)
        grad = np.array([-5.0, 2.0])
        hess = np.array([[-4.0, 1.0], [1.0, -2.0]])
        assert em._held(params, grad, terms).tolist() == [True, False]
        cand = em._newton_step(params, grad, hess, terms, 1.0)
        # Only beta moves: by 2 / 2, inside its trust region of 1.5.
        assert cand.prior.alpha == BETA_SHAPE_FLOOR and cand.prior.beta == 4.0
        assert cand.mu == 0.8 and cand.mu_mode == "fixed"
        # Nothing is free once beta is on the floor too.
        on_floor = ModelParams(BetaPrior(BETA_SHAPE_FLOOR, BETA_SHAPE_FLOOR), 0.8)
        assert em._newton_step(on_floor, -np.abs(grad), hess, terms, 1.0) is None

    @pytest.mark.parametrize("mu_mode", ["fixed", "free"])
    def test_a_newton_try_makes_three_passes_over_the_kernel(self, monkeypatch, mu_mode):
        # Each product with the rows x nodes matrix P is a pass over it. An
        # E-step makes two (s = P @ w and the totals), and a try's Hessian
        # one more: its posterior means reuse the s of the E-step at the
        # same params instead of forming it again.
        passes = {"e_step": 0, "posterior_means": 0}
        calls = dict.fromkeys(passes, 0)
        counting = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                if ufunc is np.matmul:
                    passes[counting[-1]] += 1
                plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
                if out is not None:
                    kwargs["out"] = tuple(
                        x.view(np.ndarray) if isinstance(x, Counted) else x for x in out
                    )
                return getattr(ufunc, method)(*plain, **kwargs)

        build = ScaledKernel._build

        def counted_build(kernel, mu, support):
            build(kernel, mu, support)
            kernel.p = kernel.p.view(Counted)

        def counted(name):
            method = getattr(ScaledKernel, name)

            def wrapper(kernel, *args):
                calls[name] += 1
                counting.append(name)
                try:
                    return method(kernel, *args)
                finally:
                    counting.pop()

            return wrapper

        monkeypatch.setattr(ScaledKernel, "_build", counted_build)
        for name in passes:
            monkeypatch.setattr(ScaledKernel, name, counted(name))
        hists, _ = sim_histories(BetaPrior(3.0, 5.0), 0.8, 250, (50, 100), seed=1)
        mu = 0.8 if mu_mode == "fixed" else None
        report = em_fit(hists, EmConfig(family="beta", mu=mu, mu_mode=mu_mode))
        assert report.converged and report.newton_steps > 0
        assert calls["posterior_means"] >= report.newton_steps
        assert passes == {
            "e_step": 2 * calls["e_step"],
            "posterior_means": calls["posterior_means"],
        }
        # The view changed no arithmetic: the counts are those of the real fit.
        monkeypatch.undo()
        assert em_fit(hists, EmConfig(family="beta", mu=mu, mu_mode=mu_mode)) == report

    @pytest.mark.parametrize("mu_mode", ["fixed", "free"])
    def test_two_point_fits_take_no_newton_steps(self, mu_mode):
        hists, _ = sim_histories(TwoPointPrior(0.6, 0.4, 0.98), 0.8, 80, (20, 40), 5)
        mu = 0.8 if mu_mode == "fixed" else None
        cfg = EmConfig(family="two_point", mu=mu, mu_mode=mu_mode, max_iters=60)
        report = em_fit(hists, cfg)
        assert report.newton_steps == 0 and report.score_norm is None
