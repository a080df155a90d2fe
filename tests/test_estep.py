"""The probability-domain E-step against the math.fsum references.

`ScaledKernel.e_step` must meet the tolerance contract written in
`tests/reference.py`: on the grid, each row's log marginal, the Beta M-step
moments and the per-node expected wins and losses; over two atoms, each
row's log marginal, the per-atom expected users, wins and losses, and the
parameters of one EM step. Rows whose probability-domain sum underflows
take the log-domain fallback, which is tested on its own.
"""

import json

import numpy as np
import pytest

from prefqc import (
    BetaPrior,
    EmConfig,
    ModelParams,
    QuadratureGrid,
    TwoPointPrior,
    UserHistory,
    em_fit,
    observed_loglik,
)
from prefqc.io import read_fit, write_fit
from prefqc.model import (
    ETA_DENSITY_CLIP,
    ScaledKernel,
    log_joint,
    prior_log_masses,
    suff_stats,
)

import reference as ref

# (alpha, beta, mu) pairs of (mu at the first E-step, mu after a move).
PARAMS = [
    (3.0, 5.0, 0.8, 0.83),
    (1.5, 1.2, 0.6, 0.55),
    (8.0, 2.0, 0.95, 0.9),
    (2.0, 9.0, 0.7, 0.99),
]


def random_histories(seed, users=40, max_n=60):
    rng = np.random.default_rng(seed)
    n = rng.integers(0, max_n + 1, size=users)
    sum_z = rng.integers(0, n + 1)
    return [UserHistory(f"u{i}", s, k) for i, (s, k) in enumerate(zip(sum_z, n))]


def random_rows(seed, users=40, max_n=60):
    return suff_stats(random_histories(seed, users, max_n))


def long_histories(seed, users=200):
    """Label counts shaped like the two-point benchmark's: 500 to 1500 each."""
    rng = np.random.default_rng(seed)
    n = rng.integers(500, 1501, size=users)
    sum_z = rng.binomial(n, rng.uniform(0.45, 0.8, size=users))
    return [UserHistory(f"u{i}", s, k) for i, (s, k) in enumerate(zip(sum_z, n))]


def em_weights(sz, n, cnt):
    return np.stack([cnt, cnt * sz, cnt * (n - sz)])


def assert_meets_contract(kernel, params, sz, n, cnt, grid):
    per_row, totals, _ = kernel.e_step(params, em_weights(sz, n, cnt))
    for got, s, k in zip(per_row.tolist(), sz.tolist(), n.tolist()):
        want = ref.row_log_marginal(s, k, params, grid)
        assert abs(got - want) <= 1e-12 * abs(want)
    rows = list(zip(sz.tolist(), n.tolist(), cnt.tolist()))
    r1, r2, wins, losses = ref.beta_em_moments(rows, params, grid)
    # The moments as em_fit forms them from the node totals.
    e = np.clip(grid.nodes, ETA_DENSITY_CLIP, 1.0 - ETA_DENSITY_CLIP)
    m = cnt.sum()
    assert abs(totals[0] @ np.log(e) / m - r1) <= 1e-12
    assert abs(totals[0] @ np.log1p(-e) / m - r2) <= 1e-12
    labels = float(np.dot(cnt, n))
    np.testing.assert_allclose(totals[1], wins, rtol=0, atol=1e-12 * labels)
    np.testing.assert_allclose(totals[2], losses, rtol=0, atol=1e-12 * labels)
    return per_row


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("alpha, beta, mu, moved_mu", PARAMS)
def test_e_step_meets_contract_at_fixed_and_moved_mu(
    grid, seed, alpha, beta, mu, moved_mu
):
    sz, n, cnt, _ = random_rows(seed)
    kernel = ScaledKernel(sz, n, grid)
    prior = BetaPrior(alpha, beta)
    # Fixed mu: the kernel is built once and reused by a second E-step.
    fixed = ModelParams(prior, mu)
    first = assert_meets_contract(kernel, fixed, sz, n, cnt, grid)
    assert np.array_equal(kernel.e_step(fixed, cnt[None, :])[0], first)
    # Free mu: the same buffer is rebuilt in place when mu moves.
    buffer = kernel.p
    assert_meets_contract(kernel, ModelParams(prior, moved_mu), sz, n, cnt, grid)
    assert kernel.p is buffer


def fallback_case(grid):
    """A row whose likelihood peak sits where Beta(1000, 2) has no mass."""
    params = ModelParams(BetaPrior(1000.0, 2.0), 0.9)
    sz, n = np.array([0.0, 30.0]), np.array([2000.0, 40.0])
    return params, sz, n


def test_underflowing_row_falls_back_to_log_joint(grid):
    params, sz, n = fallback_case(grid)
    kernel = ScaledKernel(sz, n, grid)
    cnt = np.ones(2)
    per_row, _, fallbacks = kernel.e_step(params, em_weights(sz, n, cnt))
    assert fallbacks == 1
    # The probability-domain sum of the first row is exactly zero.
    _, log_mass = prior_log_masses(params.prior, grid)
    assert (kernel.p @ np.exp(log_mass - log_mass.max()))[0] == 0.0
    _, want = log_joint(sz[:, None], n[:, None], params, grid)
    assert np.all(np.isfinite(per_row))
    assert per_row[0] == pytest.approx(-3062.153, abs=1e-3)
    np.testing.assert_allclose(per_row, want, rtol=1e-12, atol=0)
    assert_meets_contract(kernel, params, sz, n, cnt, grid)


def test_posterior_means_are_those_of_the_params_given(grid):
    # The kernel last ran at another mu and prior; one row underflows.
    params, sz, n = fallback_case(grid)
    kernel = ScaledKernel(sz, n, grid)
    kernel.e_step(ModelParams(BetaPrior(2.0, 3.0), 0.7), np.ones((1, 2)))
    columns = np.stack([grid.nodes, grid.nodes**2], axis=1)
    joint, norm = log_joint(sz[:, None], n[:, None], params, grid)
    want = np.exp(joint - norm[:, None]) @ columns
    got = kernel.posterior_means(params, columns)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert kernel.mu == params.mu


def test_fit_report_and_fit_json_count_fallback_rows(grid, tmp_path):
    params, _, _ = fallback_case(grid)
    hists = [UserHistory("far", 0, 2000)]
    hists += [UserHistory(f"u{i}", 30 + i % 8, 40) for i in range(20)]
    report = em_fit(hists, EmConfig(init=params, max_iters=1))
    # The first E-step falls back for the far row; the step moves the prior
    # onto the data, and the second E-step needs no fallback.
    assert report.fallback_rows == 1
    path = tmp_path / "fit.json"
    write_fit(path, report)
    assert read_fit(path)["fallback_rows"] == report.fallback_rows
    assert json.loads(path.read_text())["fallback_rows"] == report.fallback_rows


def test_ordinary_fits_take_no_fallback():
    hists = [UserHistory(f"u{i}", 20 + i % 15, 40 + i % 20) for i in range(60)]
    report = em_fit(hists, EmConfig(family="beta", mu=0.8))
    assert report.fallback_rows == 0
    two_point = em_fit(hists, EmConfig(family="two_point", mu=0.8))
    assert two_point.fallback_rows == 0


# (prior, mu) at the first E-step, then after the atoms (and mu) move.
TWO_POINT = [
    (TwoPointPrior(0.6, 0.4, 0.98), 0.8, TwoPointPrior(0.55, 0.35, 0.9), 0.85),
    (TwoPointPrior(0.5, 0.25, 0.75), 0.6, TwoPointPrior(0.3, 0.0, 1.0), 0.6),
    (TwoPointPrior(0.9, 0.05, 0.5), 0.95, TwoPointPrior(0.2, 0.1, 0.6), 0.7),
]


def assert_two_point_meets_contract(kernel, params, hists, grid):
    sz, n, cnt, _ = suff_stats(hists)
    per_row, totals, _ = kernel.e_step(params, em_weights(sz, n, cnt))
    rows = list(zip(sz.tolist(), n.tolist(), cnt.tolist()))
    want_rows, users, wins, losses, prior = ref.two_point_em_step(rows, params)
    np.testing.assert_allclose(per_row, want_rows, rtol=1e-12, atol=0)
    labels = float(np.dot(cnt, n))
    for got, want in zip(totals, (users, wins, losses)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * labels)
    # The parameters em_fit's first M-step forms from the same totals.
    step = em_fit(hists, EmConfig(init=params, grid=grid, max_iters=1))
    got = step.trajectory[1].params.prior
    np.testing.assert_allclose(
        [got.q1, got.eta_lo, got.eta_hi],
        [prior.q1, prior.eta_lo, prior.eta_hi],
        rtol=0,
        atol=1e-12,
    )


@pytest.mark.parametrize(
    "hists",
    [random_histories(1), random_histories(2), long_histories(3), long_histories(4)],
    ids=["short-1", "short-2", "long-3", "long-4"],
)
@pytest.mark.parametrize("prior, mu, moved_prior, moved_mu", TWO_POINT)
def test_two_point_e_step_meets_contract_as_the_atoms_move(
    grid, hists, prior, mu, moved_prior, moved_mu
):
    sz, n, _, _ = suff_stats(hists)
    kernel = ScaledKernel(sz, n, grid)
    assert_two_point_meets_contract(kernel, ModelParams(prior, mu), hists, grid)
    # The rows x 2 buffer is rebuilt in place at the moved atoms and mu.
    buffer = kernel.p
    moved = ModelParams(moved_prior, moved_mu)
    assert_two_point_meets_contract(kernel, moved, hists, grid)
    assert kernel.p is buffer and buffer.shape == (sz.size, 2)


def test_two_point_underflowing_row_falls_back_to_log_joint(grid):
    # The low atom's mass, 1e-300, leaves P @ w at 1e-300 for this row.
    params = ModelParams(TwoPointPrior(1e-300, 0.1, 0.95), 0.8)
    sz, n, cnt = np.array([0.0]), np.array([1500.0]), np.ones(1)
    kernel = ScaledKernel(sz, n, grid)
    per_row, totals, fallbacks = kernel.e_step(params, em_weights(sz, n, cnt))
    assert fallbacks == 1
    _, want = log_joint(sz[:, None], n[:, None], params, grid)
    assert np.array_equal(per_row, want)
    want_rows, *want_totals, _ = ref.two_point_em_step([(0.0, 1500.0, 1.0)], params)
    np.testing.assert_allclose(per_row, want_rows, rtol=1e-12, atol=0)
    for got, want_total in zip(totals, want_totals):
        np.testing.assert_allclose(got, want_total, rtol=0, atol=1e-12 * 1500)


def test_fit_from_a_far_beta_start_completes(grid):
    # The first M-step starts Newton at Beta(1000, 2), far from its root;
    # the solver must still converge or restart, not fail.
    params, _, _ = fallback_case(grid)
    hists = [UserHistory("far", 0, 2000), UserHistory("near", 30, 40)]
    report = em_fit(hists, EmConfig(init=params, grid=grid))
    assert report.stop_reason == "param_tol"
    assert report.fallback_rows >= 1


def test_observed_loglik_meets_contract(grid):
    sz, n, cnt, _ = random_rows(3)
    hists = [
        UserHistory(f"u{j}-{i}", int(s), int(k))
        for i, (s, k, c) in enumerate(zip(sz, n, cnt))
        for j in range(int(c))
    ]
    params = ModelParams(BetaPrior(3.0, 5.0), 0.8)
    want = sum(
        c * ref.row_log_marginal(s, k, params, grid) for s, k, c in zip(sz, n, cnt)
    )
    assert observed_loglik(hists, params, grid) == pytest.approx(want, rel=1e-12)


def test_long_rows_on_a_coarse_grid_agree_with_log_sum_exp():
    grid = QuadratureGrid.uniform(65)
    params = ModelParams(BetaPrior(2.0, 3.0), 0.75)
    sz, n = np.array([0.0, 4000.0, 2500.0]), np.array([5000.0, 5000.0, 5000.0])
    per_row, _, _ = ScaledKernel(sz, n, grid).e_step(params, np.ones((1, 3)))
    _, want = log_joint(sz[:, None], n[:, None], params, grid)
    np.testing.assert_allclose(per_row, want, rtol=1e-12, atol=0)


def test_rejects_rows_outside_the_model(grid):
    with pytest.raises(ValueError, match="sum_z <= n"):
        ScaledKernel(np.array([3.0]), np.array([2.0]), grid)
