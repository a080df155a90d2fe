"""Numerical primitives: digamma, log-beta, log-sum-exp, grid, Beta solver.

Frozen constants were computed with mpmath at 50 digits and pasted in, so a
regression in any primitive shows up as a drift from an independent source
rather than from the code under test.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from prefqc import numerics
from prefqc import (
    QuadratureGrid,
    SolverError,
    digamma,
    log_beta,
    log_sum_exp,
    solve_beta_system,
)

# mpmath 50-digit references.
PSI_1 = -0.5772156649015329
PSI_HALF = -1.9635100260214235
PSI_3_MINUS_PSI_8 = -1.0928571428571427
PSI_5_MINUS_PSI_8 = -0.5095238095238095
LOG_BETA_2_2 = -1.791759469228055


class TestDigamma:
    def test_frozen_values(self):
        assert digamma(1.0) == pytest.approx(PSI_1, abs=1e-12)
        assert digamma(0.5) == pytest.approx(PSI_HALF, abs=1e-12)
        assert digamma(3.0) - digamma(8.0) == pytest.approx(
            PSI_3_MINUS_PSI_8, abs=1e-12
        )

    def test_matches_scipy_log_spaced(self):
        x = np.logspace(-3, 3, 1000)
        assert np.max(np.abs(digamma(x) - scipy.special.digamma(x))) <= 1e-10

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_recurrence(self, x):
        # psi(x + 1) = psi(x) + 1/x is exact; the implementation must keep
        # it to within its own error budget across the working range.
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-10

    def test_array_shape_and_scalar_type(self):
        out = digamma(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.shape == (2, 2)
        assert isinstance(digamma(2.5), float)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)


class TestScalarDigamma:
    XS = np.logspace(-6, 8, 10_000)

    def test_matches_array_digamma(self):
        psi = np.array([numerics._psi(x) for x in self.XS.tolist()])
        assert np.max(np.abs(psi - digamma(self.XS))) <= 1e-14

    def test_matches_scipy(self):
        # Absolute 1e-10 where |psi| <= 1 and relative beyond: near x = 1e-6,
        # psi is about -1e6, whose rounding unit alone is 1.2e-10.
        psi = np.array([numerics._psi(x) for x in self.XS.tolist()])
        want = scipy.special.digamma(self.XS)
        assert np.max(np.abs(psi - want) / np.maximum(1.0, np.abs(want))) <= 1e-10


class TestLogBeta:
    def test_frozen_value(self):
        assert log_beta(2.0, 2.0) == pytest.approx(LOG_BETA_2_2, abs=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=0.05, max_value=50.0),
    )
    def test_matches_scipy(self, a, b):
        assert log_beta(a, b) == pytest.approx(
            float(scipy.special.betaln(a, b)), rel=1e-12, abs=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)


class TestLogSumExp:
    def test_basic(self):
        vals = [math.log(0.25), math.log(0.75)]
        assert log_sum_exp(vals) == pytest.approx(0.0, abs=1e-15)

    def test_all_neg_inf(self):
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_axis_reduction(self):
        arr = np.log(np.array([[1.0, 3.0], [2.0, 2.0]]))
        np.testing.assert_allclose(log_sum_exp(arr, axis=1), np.log([4.0, 4.0]))
        row = log_sum_exp(np.array([[-np.inf, -np.inf], [0.0, 0.0]]), axis=1)
        assert row[0] == -np.inf and row[1] == pytest.approx(math.log(2.0))
        assert log_sum_exp(np.empty((0, 3)), axis=1).shape == (0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20),
        st.floats(min_value=-700, max_value=700),
    )
    def test_shift_invariance(self, vals, shift):
        # log-sum-exp(v + c) = log-sum-exp(v) + c, even when exp(v + c)
        # itself would overflow or underflow.
        base = log_sum_exp(vals)
        shifted = log_sum_exp(np.asarray(vals) + shift)
        assert shifted == pytest.approx(base + shift, rel=1e-12, abs=1e-9)

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=12))
    def test_agrees_with_direct_sum(self, vals):
        assert log_sum_exp(vals) == pytest.approx(
            math.log(sum(math.exp(v) for v in vals)), rel=1e-12
        )


class TestQuadratureGrid:
    def test_default_shape(self, grid):
        assert grid.size == 1025
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
        assert float(grid.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_exactness_low_degree(self, grid, degree):
        # Trapezoid on 1025 uniform nodes: exact for degree <= 1, and well
        # inside 1e-6 of the true integral through cubics.
        exact = 1.0 / (degree + 1)
        approx = grid.integrate(grid.nodes**degree)
        assert abs(approx - exact) <= 1e-6

    def test_integrates_smooth_density(self, grid):
        # Beta(3,5) density integrates to 1 at second-order accuracy.
        x = grid.nodes
        dens = x**2 * (1 - x) ** 4 / math.exp(log_beta(3.0, 5.0))
        assert grid.integrate(dens) == pytest.approx(1.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureGrid.uniform(1)
        with pytest.raises(ValueError):
            QuadratureGrid(np.array([0.0, 0.5]), np.array([0.5, 0.5]))  # no 1
        with pytest.raises(ValueError):
            QuadratureGrid(np.array([0.0, 1.0]), np.array([0.7, 0.7]))  # sum != 1
        with pytest.raises(ValueError):
            QuadratureGrid(np.array([0.0, 0.5, 0.5, 1.0]), np.full(4, 0.25))

    def test_nodes_frozen(self, grid):
        with pytest.raises(ValueError):
            grid.nodes[0] = 0.5


class TestBetaMomentJacobian:
    # Its trigammas are central differences of digamma, which carries about
    # 1.3e-13 of error: they are 1.2e-7 off at 3, 4 and 5.
    @given(
        st.floats(min_value=numerics.BETA_SHAPE_FLOOR, max_value=200.0),
        st.floats(min_value=numerics.BETA_SHAPE_FLOOR, max_value=200.0),
    )
    def test_matches_scipy_trigamma(self, a, b):
        ta, tb, tab = scipy.special.polygamma(1, [a, b, a + b])
        exact = np.array([[ta - tab, -tab], [-tab, tb - tab]])
        jac = np.array(numerics.beta_moment_jacobian(a, b))
        assert np.max(np.abs(jac - exact)) <= 2e-7


class TestSolveBetaSystem:
    def test_exact_beta_3_5_moments(self):
        sol = solve_beta_system(PSI_3_MINUS_PSI_8, PSI_5_MINUS_PSI_8)
        assert sol.alpha == pytest.approx(3.0, abs=1e-6)
        assert sol.beta == pytest.approx(5.0, abs=1e-6)
        assert not sol.clamped

    def test_symmetric_inputs_give_equal_shapes(self):
        rhs = float(scipy.special.digamma(4.0) - scipy.special.digamma(8.0))
        sol = solve_beta_system(rhs, rhs)
        assert sol.alpha == pytest.approx(sol.beta, rel=1e-9)

    @given(
        st.floats(min_value=1.1, max_value=20.0),
        st.floats(min_value=1.1, max_value=20.0),
    )
    def test_round_trip(self, a, b):
        # Moments computed from known shapes must invert back to them.
        psi_ab = float(scipy.special.digamma(a + b))
        sol = solve_beta_system(
            float(scipy.special.digamma(a)) - psi_ab,
            float(scipy.special.digamma(b)) - psi_ab,
        )
        assert sol.alpha == pytest.approx(a, rel=1e-5, abs=1e-5)
        assert sol.beta == pytest.approx(b, rel=1e-5, abs=1e-5)
        assert not sol.clamped

    def test_warm_start_agrees_with_cold(self):
        cold = solve_beta_system(PSI_3_MINUS_PSI_8, PSI_5_MINUS_PSI_8)
        warm = solve_beta_system(
            PSI_3_MINUS_PSI_8, PSI_5_MINUS_PSI_8, start=(2.5, 5.5)
        )
        assert warm.alpha == pytest.approx(cold.alpha, abs=1e-7)
        assert warm.beta == pytest.approx(cold.beta, abs=1e-7)

    @pytest.mark.parametrize("start", [(1000.0, 2.0), (1e4, 1.5), (1e-3, 1e6)])
    @pytest.mark.parametrize(
        "rhs", [(-1.0, -0.6), (PSI_3_MINUS_PSI_8, PSI_5_MINUS_PSI_8)]
    )
    def test_far_start_reaches_the_cold_solution(self, rhs, start):
        # Newton from these starts leaves the shape box or stalls; the
        # solver must then restart from its own fixed-point start.
        cold = solve_beta_system(*rhs)
        far = solve_beta_system(*rhs, start=start)
        psi = digamma(np.array([far.alpha, far.beta, far.alpha + far.beta]))
        assert abs(psi[0] - psi[2] - rhs[0]) <= 1e-9
        assert abs(psi[1] - psi[2] - rhs[1]) <= 1e-9
        assert far.alpha == pytest.approx(cold.alpha, rel=1e-7)
        assert far.beta == pytest.approx(cold.beta, rel=1e-7)
        assert not far.clamped

    @pytest.mark.parametrize("start", [(1000.0, 2.0), (1e4, 1.5), (1e-3, 1e6)])
    def test_far_start_gives_up_early(self, monkeypatch, start):
        # From (1e4, 1.5) Newton can creep inside the shape box for its whole
        # iteration budget, halving each step up to 50 times: thousands of
        # residual evaluations before the restart. The warm attempt must
        # give up within a few steps instead.
        rhs = (-1.0, -0.6)
        calls = []
        residuals = numerics._residuals

        def counted(*args):
            calls.append(args)
            return residuals(*args)

        monkeypatch.setattr(numerics, "_residuals", counted)
        cold = solve_beta_system(*rhs)
        cold_calls = len(calls)
        calls.clear()
        far = solve_beta_system(*rhs, start=start)
        assert len(calls) <= cold_calls + 60
        assert far.alpha == pytest.approx(cold.alpha, rel=1e-7)
        assert far.beta == pytest.approx(cold.beta, rel=1e-7)

    def test_clamp_resolves_free_coordinate(self):
        # Moments of Beta(0.5, 6): the unconstrained root sits below the
        # alpha > 1 floor, so alpha clamps and beta is re-solved.
        a, b = 0.5, 6.0
        psi_ab = float(scipy.special.digamma(a + b))
        sol = solve_beta_system(
            float(scipy.special.digamma(a)) - psi_ab,
            float(scipy.special.digamma(b)) - psi_ab,
        )
        assert sol.clamped
        assert sol.alpha == pytest.approx(1.0 + 1e-6, abs=1e-12)
        # The re-solved coordinate satisfies its own moment equation.
        resid = (
            float(scipy.special.digamma(sol.beta))
            - float(scipy.special.digamma(sol.alpha + sol.beta))
            - (float(scipy.special.digamma(b)) - psi_ab)
        )
        assert abs(resid) <= 1e-9

    def test_residuals_at_solution(self):
        rhs1 = float(scipy.special.digamma(1.8) - scipy.special.digamma(4.4))
        rhs2 = float(scipy.special.digamma(2.6) - scipy.special.digamma(4.4))
        sol = solve_beta_system(rhs1, rhs2)
        assert not sol.clamped
        psi = scipy.special.digamma([sol.alpha, sol.beta, sol.alpha + sol.beta])
        assert abs(psi[0] - psi[2] - rhs1) <= 2e-9
        assert abs(psi[1] - psi[2] - rhs2) <= 2e-9

    @pytest.mark.parametrize("rhs", [(0.0, -1.0), (-1.0, 0.1), (0.2, 0.3)])
    def test_rejects_nonnegative_rhs(self, rhs):
        with pytest.raises(ValueError):
            solve_beta_system(*rhs)

    def test_solver_error_carries_state(self):
        err = SolverError("no luck", 2.0, 3.0, (1e-3, -2e-3))
        assert err.alpha == 2.0 and err.beta == 3.0
        assert "no luck" in str(err)
