"""EM fitting of the attentiveness model.

The E-step computes each (sum_z, n) row's posterior over eta given the
current parameters, over the prior's support: exactly for the two-point
family (two atoms), on a trapezoid grid for continuous priors. Both go
through one probability-domain kernel (`model.ScaledKernel`), which hands
the M-step the expected users, labels of 1 and labels of 0 at each support
point. The M-step (`m_step`, the library's only one) maximizes the expected
complete-data log-likelihood plus an optional regularizer on mu: closed form
for the two-point family, a digamma moment system for the Beta family, and a
bracketed Newton method on the derivative in mu when mu is estimated rather
than known.

Each block of the M-step is an exact maximizer of its part of the surrogate
objective (clipping included: the objectives are concave per coordinate), so
the observed log-likelihood is non-decreasing along the trajectory up to
floating-point noise. The fit loop asserts that invariant every iteration.

Plain EM is slow near a Beta fit's optimum: with a free mu it crawls along
the eta (mu - 1/2) ridge, and with a fixed mu it takes tens of iterations
that each move the shapes a little. So every Beta iteration first tries a
Newton step on the penalized observed likelihood (gradient by Fisher's
identity, Hessian by Louis' identity) and keeps it only when it raises the
objective; otherwise it takes the EM step. Two-point fits run plain EM.
"""

import math
from dataclasses import astuple, dataclass, field
from typing import Literal, NamedTuple, Sequence, Union

import numpy as np

from .model import (
    ETA_DENSITY_CLIP,
    AttentivenessPrior,
    BetaPrior,
    ModelParams,
    MuMode,
    ScaledKernel,
    TwoPointPrior,
    UserHistory,
    _finite,
    _integer,
    _real,
    log_joint_matrix,
    loglik_from_counts,
    suff_stats,
)
from .numerics import (
    BETA_SHAPE_FLOOR,
    QuadratureGrid,
    beta_moment_jacobian,
    digamma,
    solve_beta_system,
)

# Search interval for a free mu; the model is unidentifiable at 1/2 and
# degenerate at 1, so both ends are padded.
MU_SEARCH_LO = 0.5 + 1e-4
MU_SEARCH_HI = 1.0 - 1e-4

# Trust region of a Newton step in a Beta fit: each shape moves by at most
# half its value, a free mu by at most this much. Unbounded Newton steps jumped
# to priors narrower than the grid spacing, where the trapezoid objective
# rises by hundreds of nats that the integral does not have.
NEWTON_MU_RADIUS = 0.05


@dataclass(frozen=True)
class LogPriorOnMu:
    """Additive M-step term (a-1)*log(mu) + (b-1)*log(1-mu).

    With (a, b) = (8, 2) this is the log-density of a Beta(8, 2) belief
    about mu, up to a constant.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (_finite("a", self.a) > 0.0 and _finite("b", self.b) > 0.0):
            raise ValueError("LogPriorOnMu requires a > 0 and b > 0")


@dataclass(frozen=True)
class BoxOnMu:
    """Hard constraint lo <= mu <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not 0.5 <= _finite("lo", self.lo) < _finite("hi", self.hi) <= 1.0:
            raise ValueError("BoxOnMu requires 1/2 <= lo < hi <= 1")


RegularizerSpec = Union[LogPriorOnMu, BoxOnMu, None]

# The prior families EM fits, by config name, each with the start
# `default_init` gives a fit of that family.
FAMILIES: dict[str, AttentivenessPrior] = {
    "two_point": TwoPointPrior(q1=0.5, eta_lo=0.25, eta_hi=0.75),
    "beta": BetaPrior(alpha=2.0, beta=2.0),
}


def family_of(prior) -> str | None:
    """The FAMILIES name of `prior`'s family; None for a prior EM does not fit."""
    return next((k for k, v in FAMILIES.items() if isinstance(prior, type(v))), None)


class TrajectoryPoint(NamedTuple):
    iteration: int
    params: ModelParams
    loglik: float


class ClampEvent(NamedTuple):
    iteration: int
    parameter: str
    value: float


StopReason = Literal["param_tol", "max_iters", "likelihood_decrease"]


@dataclass(frozen=True)
class FitReport:
    """EM trace: parameters and observed log-likelihood per iteration."""

    trajectory: tuple[TrajectoryPoint, ...]
    converged: bool
    stop_reason: StopReason
    clamp_events: tuple[ClampEvent, ...] = ()
    # E-step rows, summed over iterations, that underflowed the probability
    # domain and took log_joint. A Newton step not taken is no iteration.
    fallback_rows: int = 0
    # Iterations that took a Newton step rather than an EM step.
    newton_steps: int = 0
    # Largest absolute projected gradient of the objective at the final
    # parameters over the user count; None for two-point fits.
    score_norm: float | None = None

    @property
    def final_params(self) -> ModelParams:
        return self.trajectory[-1].params

    @property
    def final_loglik(self) -> float:
        return self.trajectory[-1].loglik

    @property
    def iterations(self) -> int:
        return self.trajectory[-1].iteration


class LikelihoodDecreaseError(RuntimeError):
    """Raised in strict mode when the monotone EM objective drops."""

    def __init__(self, report: FitReport, drop: float):
        super().__init__(
            f"EM objective decreased by {drop:.3e} at iteration "
            f"{report.trajectory[-1].iteration}"
        )
        self.report = report


class DegenerateComponentError(RuntimeError):
    """A two-point atom has no posterior mass, so the M-step cannot place it."""


@dataclass(frozen=True)
class EmConfig:
    """Fit configuration.

    Either supply `init` (a full ModelParams) or a `family` plus `mu`;
    defaults for the rest follow the library's stock choices: the family's
    start in FAMILIES, a free mu started at the clipped empirical label
    frequency, sup-norm parameter convergence.
    With `init`, a `mu` other than init's or a free `mu_mode` for a fixed
    init is rejected; the default `mu_mode` leaves init's.
    """

    family: Literal["two_point", "beta"] | None = None
    mu: float | None = None
    mu_mode: MuMode = "fixed"
    init: ModelParams | None = None
    max_iters: int = 500
    tol_param: float = 1e-6
    tol_loglik: float = 1e-9
    grid: QuadratureGrid = field(default_factory=QuadratureGrid.uniform)
    regularizer: RegularizerSpec = None

    def __post_init__(self):
        if self.mu is not None:
            _finite("mu", self.mu)
        if not _integer(self.max_iters):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("tol_param", "tol_loglik"):
            tol = getattr(self, name)
            # A NaN or an infinite tolerance fails here, in the words callers match.
            if _real(tol) and not 0.0 < tol < math.inf:
                raise ValueError("tolerances must be positive")
            _finite(name, tol)
        init = self.init
        if init is None:
            # A list, not the dict: a family from JSON may be unhashable.
            if self.family not in list(FAMILIES):
                raise ValueError("supply init params or family in {'two_point','beta'}")
            return
        fam = family_of(init.prior)
        if self.family is not None and fam != self.family:
            raise ValueError(f"init prior is {fam!r} but family={self.family!r}")
        if self.mu is not None and self.mu != init.mu:
            raise ValueError(f"mu={self.mu!r} conflicts with init mu={init.mu!r}")
        if self.mu_mode == "free" and init.mu_mode == "fixed":
            raise ValueError("mu_mode='free' conflicts with a fixed-mu init")


@dataclass(eq=False)
class PosteriorRows:
    """Posteriors over eta of many (sum_z, n) rows on one support.

    `support` holds the two atoms of a two-point prior or the grid nodes;
    `masses` holds one row of support probabilities per posterior, and
    `density` the masses over the trapezoid weights for grid rows (None for
    two atoms). `map_eta`, `mean_eta` and `tail` give one value per row;
    they are the library's only MAP, mean and tail formulas.
    """

    support: np.ndarray
    masses: np.ndarray
    density: np.ndarray | None = None

    def map_eta(self) -> np.ndarray:
        m, s = self.masses, self.support
        if self.density is None:
            # Ties go to the attentive atom; keeps ranking deterministic.
            return np.where(m[:, 1] >= m[:, 0], s[1], s[0])
        return s[np.argmax(self.density, axis=1)]

    def mean_eta(self) -> np.ndarray:
        m, s = self.masses, self.support
        if self.density is None:
            return m[:, 0] * s[0] + m[:, 1] * s[1]
        # One dot per row: a matrix-vector product sums in another order.
        return np.array([np.dot(row, s) for row in m])

    def tail(self, eta_stars: Sequence[float]) -> np.ndarray:
        """P(eta >= eta_star) per row (axis 0) and entry of `eta_stars` (axis 1).

        A step function over two atoms. For grid rows, the integral from
        eta_star up of the density's piecewise-linear interpolant: the
        trapezoid segments above eta_star summed from the top node down, then
        the one that eta_star cuts, from eta_star up. One top-down cumulative
        sum, from the lowest star's segment, serves every star.
        """
        x, f = self.support, self.density
        if f is None:
            over = [np.where(s <= x, self.masses, 0.0).sum(axis=1) for s in eta_stars]
            return np.reshape(over, (len(eta_stars), len(self.masses))).T
        tails = np.zeros((len(f), len(eta_stars)))
        # (column, star, the segment it cuts) of each star below the top node.
        cuts = [(k, s, max(int(np.searchsorted(x, s, "right")) - 1, 0))
                for k, s in enumerate(eta_stars) if s < 1.0]
        lo = min((i for *_, i in cuts), default=len(x) - 1)
        # Blocks of 64 rows keep the segment matrix near half a megabyte; a
        # whole-table one stays in the heap and raises peak RSS. cum[:, j - lo]
        # sums the segments from node j up, top down; its last column is 0.
        block = np.zeros((min(len(f), 64), len(x) - lo))
        for r in range(0, len(f) if cuts else 0, 64):
            b, cum = f[r : r + 64], block[: len(f) - r]
            np.add(b[:, lo:-1], b[:, lo + 1 :], out=cum[:, :-1])
            cum[:, :-1] *= 0.5 * np.diff(x[lo:])
            np.cumsum(cum[:, ::-1], axis=1, out=cum[:, ::-1])
            for k, s, i in cuts:
                tails[r : r + 64, k] = cum[:, 0]
                if s > 0.0:
                    f_star = b[:, i] + (s - x[i]) / (x[i + 1] - x[i]) * (b[:, i + 1] - b[:, i])
                    partial = 0.5 * (x[i + 1] - s) * (f_star + b[:, i + 1])
                    tails[r : r + 64, k] = cum[:, i + 1 - lo] + partial
        return tails


def posterior_rows(
    sum_z_u, n_u, params: ModelParams, grid: QuadratureGrid | None
) -> PosteriorRows:
    """The posteriors over eta of (sum_z, n) rows, as `suff_stats` returns them.

    Two-point priors give the exact two-atom posteriors (`grid` is unused);
    continuous priors give grid posteriors. The table's matrices stay
    writable, since `np.argmax` copies a read-only array whole.
    """
    prior = params.prior
    if isinstance(prior, TwoPointPrior):
        # np.logaddexp of the two log joints, so long histories cannot
        # underflow. log_joint's max-shifted reduction would move the last
        # bit of some responsibilities.
        l_lo = math.log(prior.q1) if prior.q1 > 0.0 else -math.inf
        l_hi = math.log(prior.q2) if prior.q2 > 0.0 else -math.inf
        l_lo += loglik_from_counts(sum_z_u, n_u, params.mu, prior.eta_lo)
        l_hi += loglik_from_counts(sum_z_u, n_u, params.mu, prior.eta_hi)
        gamma_lo = np.exp(l_lo - np.logaddexp(l_lo, l_hi))
        masses = np.stack([gamma_lo, 1.0 - gamma_lo], axis=1)
        return PosteriorRows(np.array([prior.eta_lo, prior.eta_hi]), masses)
    joint = log_joint_matrix(sum_z_u[:, None], n_u[:, None], params, grid)
    # Each row's normaliser goes through math.log, as log_sum_exp's scalar
    # path does; np.log differs from it in the last bit on rare rows.
    peak = joint.max(axis=1)
    sums = np.exp(joint - peak[:, None]).sum(axis=1)
    norm = peak + np.array([math.log(t) for t in sums.tolist()])
    masses = np.exp(joint - norm[:, None], out=joint)
    masses /= masses.sum(axis=1, keepdims=True)
    return PosteriorRows(grid.nodes, masses, masses / grid.weights)


def _em_weights(sz, n, cnt):
    """E-step weights of rows holding cnt users each with sum_z of n labels.

    The three rows of the (3, R) result weigh each row's posterior by its
    users, its labels of 1 (wins) and its labels of 0 (losses).
    """
    return np.stack([cnt, cnt * sz, cnt * (n - sz)])


def _regularizer_terms(regularizer: RegularizerSpec):
    """(pa, pb, lo, hi) for the mu update.

    The log-prior on mu is pa*log(mu) + pb*log(1 - mu), zero unless the
    regularizer is a LogPriorOnMu; [lo, hi] is the search interval.
    """
    lo, hi = MU_SEARCH_LO, MU_SEARCH_HI
    if isinstance(regularizer, BoxOnMu):
        lo = max(lo, regularizer.lo)
        hi = min(hi, regularizer.hi)
        if lo >= hi:
            raise ValueError("BoxOnMu interval is empty after padding")
        return 0.0, 0.0, lo, hi
    if isinstance(regularizer, LogPriorOnMu):
        return regularizer.a - 1.0, regularizer.b - 1.0, lo, hi
    if regularizer is None:
        return 0.0, 0.0, lo, hi
    raise TypeError(f"unknown regularizer {regularizer!r}")


def _mu_log_prior(pa: float, pb: float, mu: float) -> float:
    return pa * math.log(mu) + pb * math.log1p(-mu)


def _mu_objective(support, win_counts, loss_counts, pa, pb):
    def objective(mu: float) -> float:
        g = 0.5 + support * (mu - 0.5)
        val = float(np.dot(win_counts, np.log(g)) + np.dot(loss_counts, np.log1p(-g)))
        if pa or pb:
            val += _mu_log_prior(pa, pb, mu)
        return val

    return objective


def _mu_score(support, wins, losses, mu, pa, pb):
    """(d/dmu, t, u) of sum W log g + L log(1 - g) plus the log-prior.

    g = 1/2 + s (mu - 1/2) at each support point s, with expected wins W and
    losses L there; t = d log g / d mu and u = -d log(1 - g) / d mu per point.
    """
    g = 0.5 + support * (mu - 0.5)
    t, u = support / g, support / (1.0 - g)
    return float(wins @ t - losses @ u) + pa / mu - pb / (1.0 - mu), t, u


def _maximize_mu(support, win_counts, loss_counts, regularizer, start=None):
    """Argmax over mu of the expected-likelihood term plus the log-prior.

    A bracketed Newton method on the derivative, started from `start` (the
    middle of the search interval by default): a step that leaves the
    bracket becomes a bisection, and the search stops once a step moves mu
    by at most 1e-12 relative. When the derivative at the start points
    towards an end of the interval where it keeps its sign, the maximum is
    that end, returned exactly. The objective is concave unless a
    LogPriorOnMu has a < 1 or b < 1; then this finds a local maximum.

    Returns (mu, at_boundary, objective), the objective being the function
    of mu that was maximized.
    """
    pa, pb, lo, hi = _regularizer_terms(regularizer)
    f = _mu_objective(support, win_counts, loss_counts, pa, pb)

    def deriv(mu: float) -> tuple[float, float]:
        # First and second derivative of the objective.
        d1, t, u = _mu_score(support, win_counts, loss_counts, mu, pa, pb)
        d2 = float(win_counts @ (t * t) + loss_counts @ (u * u))
        q = 1.0 - mu
        return d1, -d2 - pa / (mu * mu) - pb / (q * q)

    x = 0.5 * (lo + hi) if start is None else min(max(start, lo), hi)
    d1, d2 = deriv(x)
    if d1 > 0.0:
        if deriv(hi)[0] >= 0.0:
            return hi, True, f
        a, b = x, hi
    elif d1 < 0.0:
        if deriv(lo)[0] <= 0.0:
            return lo, True, f
        a, b = lo, x
    else:
        return x, False, f
    for _ in range(200):
        nx = x - d1 / d2 if d2 < 0.0 else math.nan
        if not a < nx < b:  # also catches nan
            nx = 0.5 * (a + b)
        done = abs(nx - x) <= 1e-12 * nx
        x = nx
        if done:
            break
        d1, d2 = deriv(x)
        if d1 > 0.0:
            a = x
        elif d1 < 0.0:
            b = x
        else:
            break
    return x, False, f


def default_init(family: str, rows, mu: float | None, mu_mode: MuMode) -> ModelParams:
    """Stock starting point when the caller does not supply one.

    `rows` is what `unique_rows` returns; a free mu starts at the users'
    label frequency, clipped. Its two sums are exact integers, so the start
    does not depend on how the users were grouped into rows.
    """
    if mu_mode == "fixed" and mu is None:
        raise ValueError("fixed-mu fits require mu")
    mu0 = mu
    if mu is None:
        sum_z_u, n_u, cnt, _ = rows
        total_n = float(cnt @ n_u)
        freq = float(cnt @ sum_z_u) / total_n if total_n else 0.75
        mu0 = min(max(freq, 0.55), 0.95)
    if family not in list(FAMILIES):
        raise ValueError(f"unsupported family {family!r}")
    return ModelParams(prior=FAMILIES[family], mu=mu0, mu_mode=mu_mode)


def _param_vector(params: ModelParams) -> np.ndarray:
    vec = astuple(params.prior)
    return np.array(vec + (params.mu,) if params.mu_mode == "free" else vec)


def _node_logs(nodes):
    """log(eta) and log(1 - eta) at grid nodes, clipped as the Beta density is."""
    eta = np.clip(nodes, ETA_DENSITY_CLIP, 1.0 - ETA_DENSITY_CLIP)
    return np.log(eta), np.log1p(-eta)


def m_step(params, totals, users, grid, regularizer=None):
    """The EM update of `params` from its E-step totals over the support.

    `totals` holds the expected users, wins and losses at each support point
    (the two atoms, or the nodes of `grid`), as `_em_weights` weighs them; a
    fixed-mu Beta step reads only the users row. `users` is the user count.
    Each block is an exact maximizer of the surrogate objective:
    - two atoms: q1 is the low atom's share of the users, and each eta the
      Bernoulli MLE (W - L) / ((2 mu - 1)(W + L)) of its expected wins W and
      losses L, clipped to [0, 1]; atoms that cross trade places, and so do
      their totals;
    - Beta: the digamma moment system at the mean posterior log-moments,
      started from the current shapes (consecutive iterations solve nearly
      the same system);
    - a free mu: `_maximize_mu` on the new support, kept only when it scores
      at least the current mu (near the optimum the two differ by rounding).

    Returns (new params, clamps), the clamps being (parameter, value) pairs:
    a clipped atom, the (alpha, beta) > 1 floor, or a mu on its bound.
    """
    if isinstance(params.prior, TwoPointPrior):
        q1 = float(totals[0, 0] / users)
        etas, clipped = [], []
        for idx in range(2):
            wins, losses = float(totals[1, idx]), float(totals[2, idx])
            den = (2.0 * params.mu - 1.0) * (wins + losses)
            if den == 0.0:
                raise DegenerateComponentError(
                    f"two-point component {idx + 1} has no posterior mass"
                )
            raw = (wins - losses) / den
            etas.append(min(max(raw, 0.0), 1.0))
            clipped.append(raw < 0.0 or raw > 1.0)
        if etas[0] > etas[1]:
            etas, clipped, q1 = etas[::-1], clipped[::-1], 1.0 - q1
            totals = totals[:, ::-1]
        names = ("eta_lo", "eta_hi")
        clamps = [(k, e) for k, e, hit in zip(names, etas, clipped) if hit]
        prior: AttentivenessPrior = TwoPointPrior(q1, etas[0], etas[1])
        support = np.array(etas)
    else:
        log_nodes, log_1m_nodes = _node_logs(grid.nodes)
        r1 = float(totals[0] @ log_nodes / users)
        r2 = float(totals[0] @ log_1m_nodes / users)
        sol = solve_beta_system(r1, r2, start=(params.prior.alpha, params.prior.beta))
        clamps = [("alpha_beta_floor", sol.alpha)] if sol.clamped else []
        prior = BetaPrior(alpha=sol.alpha, beta=sol.beta)
        support = grid.nodes

    mu = params.mu
    if params.mu_mode == "free":
        new, at_edge, obj = _maximize_mu(support, totals[1], totals[2], regularizer, mu)
        if obj(new) >= obj(mu):
            mu = new
            if at_edge:
                clamps.append(("mu", new))
    return ModelParams(prior=prior, mu=mu, mu_mode=params.mu_mode), clamps


def _score_and_hessian(params, kernel, totals, cnt, mu_terms, hessian=True):
    """Gradient and Hessian of a Beta fit's objective in (alpha, beta[, mu]).

    The objective is the penalized observed log-likelihood at `params`,
    whose `kernel.e_step` gave `totals`; `cnt` holds the users of each
    kernel row and `mu_terms` comes from `_regularizer_terms`. The mu row
    and column are there only when mu is free; a fixed-mu fit's totals hold
    only the users. The gradient is the posterior mean of the complete-data
    score (Fisher's identity), read off the totals: m(r1 - psi(a) + psi(a+b)),
    m(r2 - psi(b) + psi(a+b)) and `_mu_score`, the mu derivative. The
    Hessian is the complete-data Hessian plus the summed posterior
    covariance of that score (Louis' identity); the per-row moments come
    from one `ScaledKernel.posterior_means` product over the node columns,
    two of them for a fixed mu and seven for a free one. With `hessian`
    false the product is skipped and the Hessian is None.
    """
    a, b, mu = params.prior.alpha, params.prior.beta, params.mu
    mu_free = params.mu_mode == "free"
    users = totals[0]
    m = float(cnt.sum())
    nodes = kernel.grid.nodes
    x, y = _node_logs(nodes)
    psi_a, psi_b, psi_ab = digamma(np.array([a, b, a + b]))
    grad = np.empty(3 if mu_free else 2)
    grad[0] = users @ x - m * (psi_a - psi_ab)
    grad[1] = users @ y - m * (psi_b - psi_ab)
    if mu_free:
        pa, pb, _, _ = mu_terms
        _, wins, losses = totals
        grad[2], t, u = _mu_score(nodes, wins, losses, mu, pa, pb)
    if not hessian:
        return grad, None

    columns = [x, y, t, u, t * t, t * u, u * u] if mu_free else [x, y]
    means = kernel.posterior_means(params, np.stack(columns, axis=1)).T
    ex, ey = means[:2]
    hess = np.empty((grad.size, grad.size))
    hess[:2, :2] = np.multiply(-m, beta_moment_jacobian(a, b))
    hess[0, 0] += users @ (x * x) - cnt @ (ex * ex)
    hess[0, 1] += users @ (x * y) - cnt @ (ex * ey)
    hess[1, 1] += users @ (y * y) - cnt @ (ey * ey)
    hess[1, 0] = hess[0, 1]
    if not mu_free:
        return grad, hess

    et, eu, ett, etu, euu = means[2:]
    # Each row's posterior mean and variance of the mu score sz t - (n - sz) u.
    sz, ls = kernel.sum_z, kernel.n - kernel.sum_z
    e_s = sz * et - ls * eu
    var_s = sz * sz * ett - 2.0 * sz * ls * etu + ls * ls * euu - e_s * e_s
    hess[0, 2] = hess[2, 0] = wins @ (x * t) - losses @ (x * u) - cnt @ (ex * e_s)
    hess[1, 2] = hess[2, 1] = wins @ (y * t) - losses @ (y * u) - cnt @ (ey * e_s)
    hess[2, 2] = (
        cnt @ var_s - wins @ (t * t) - losses @ (u * u)
        - pa / (mu * mu) - pb / ((1.0 - mu) * (1.0 - mu))
    )
    return grad, hess


def _held(params, grad, mu_terms):
    """Which coordinates of `grad` a step must leave where they are.

    A shape on the floor or a free mu on a bound of its search interval is
    held when its gradient points out. A fixed mu is not a coordinate of
    `grad`; the step leaves it where it is.
    """
    a, b, mu = params.prior.alpha, params.prior.beta, params.mu
    held = [
        a <= BETA_SHAPE_FLOOR and grad[0] < 0.0,
        b <= BETA_SHAPE_FLOOR and grad[1] < 0.0,
    ]
    if params.mu_mode == "free":
        _, _, lo, hi = mu_terms
        held.append((mu <= lo and grad[2] < 0.0) or (mu >= hi and grad[2] > 0.0))
    return np.array(held)


def _newton_step(params, grad, hess, mu_terms, reach):
    """Trust-region Newton candidate for a Beta fit, or None.

    `grad` and `hess` are `_score_and_hessian`'s; the coordinates `_held`
    names stay where they are. The step is scaled so that each shape moves
    by at most `reach` times half its value and mu by at most `reach` times
    NEWTON_MU_RADIUS. None when nothing is free, when the Hessian over the
    free coordinates is not negative definite, or when the step leaves the
    bounds: a bound is reached only by EM steps, since Newton steps that cut
    to a bound ended on worse local maxima on the alpha floor than plain EM
    finds.
    """
    a, b, mu = params.prior.alpha, params.prior.beta, params.mu
    _, _, lo, hi = mu_terms
    free = ~_held(params, grad, mu_terms)
    neg = -hess[np.ix_(free, free)]
    if not free.any() or np.any(np.linalg.eigvalsh(neg) <= 0.0):
        return None
    step = np.zeros(grad.size)
    step[free] = np.linalg.solve(neg, grad[free])
    radius = (0.5 * reach * a, 0.5 * reach * b, reach * NEWTON_MU_RADIUS)
    step *= min([1.0] + [r / abs(d) for r, d in zip(radius, step) if d])
    a, b, mu = ((a, b, mu) + np.pad(step, (0, 3 - step.size))).tolist()
    mu_free = params.mu_mode == "free"
    if min(a, b) < BETA_SHAPE_FLOOR or (mu_free and not lo <= mu <= hi):
        return None
    return ModelParams(BetaPrior(a, b), mu, params.mu_mode)


def fit_rows(rows, config: EmConfig, *, strict: bool = False) -> FitReport:
    """Run EM on users grouped into (sum_z, n) rows; return the full trajectory.

    `rows` is what `unique_rows` returns. The fit sees the users only
    through these rows, so it costs O(unique rows) per iteration, not
    O(users).

    A Beta fit takes a Newton step instead of the EM step whenever that
    raises the objective (see `_newton_step`); the report counts them in
    `newton_steps` and gives the projected gradient at the stop, over the
    user count, as `score_norm`.

    Stops when the parameter sup-norm change falls below tol_param
    ("param_tol"), the iteration budget runs out ("max_iters"), or the EM
    objective drops by more than tol_loglik ("likelihood_decrease", an
    invariant violation; raises under strict). The monotone objective is
    the observed log-likelihood plus the mu log-prior when one is active;
    a regularized mu update may trade raw likelihood for prior mass, so
    only the penalized sum is guaranteed non-decreasing. Trajectories
    always record the raw data log-likelihood.
    """
    sz_u, n_u, cnt, _ = rows
    if not len(cnt):
        raise ValueError("em_fit needs at least one user history")
    params = config.init if config.init is not None else default_init(
        config.family, rows, config.mu, config.mu_mode
    )
    two_point = family_of(params.prior) == "two_point"
    mu_free = params.mu_mode == "free"

    m = float(cnt.sum())

    # With a log-prior on free mu the M-step maximizes the penalized
    # objective, so that is the quantity the monotonicity guard watches.
    mu_terms = _regularizer_terms(config.regularizer)
    pa, pb, _, _ = mu_terms
    penalized = mu_free and isinstance(config.regularizer, LogPriorOnMu)

    def objective_of(params, loglik):
        return loglik + _mu_log_prior(pa, pb, params.mu) if penalized else loglik

    trajectory: list[TrajectoryPoint] = []
    clamp_events: list[ClampEvent] = []
    converged = False
    stop_reason: StopReason = "max_iters"
    objective_drop = 0.0
    prev_objective = None
    prev_vec = None

    # One E-step for both families: the kernel is rebuilt in place when mu
    # or the support moves, and the weights give the M-step its totals over
    # the support. A fixed-mu Beta step needs only the users.
    kernel = ScaledKernel(sz_u, n_u, config.grid)
    weights = _em_weights(sz_u, n_u, cnt)[: 3 if two_point or mu_free else 1]
    fallback_rows = 0

    # A Beta fit tries a Newton step first and takes the EM step when
    # Newton's is not taken: not defined, or not raising the objective. A
    # taken step's E-step serves the next iteration. After a step not taken,
    # Newton sits out 1, 2, 4, ... iterations, so a fit that Newton does not
    # help costs about what plain EM costs. A step that does not raise the
    # objective also halves the trust region of the next try; a taken one
    # doubles it, up to its full size.
    newton = not two_point
    newton_steps = skip = 0
    backoff, reach = 1, 1.0
    ahead = None

    for iteration in range(config.max_iters + 1):
        if ahead is None:
            ahead = kernel.e_step(params, weights)
        (per_row, totals, fallbacks), ahead = ahead, None
        fallback_rows += fallbacks
        loglik = float(np.dot(cnt, per_row))
        trajectory.append(TrajectoryPoint(iteration, params, loglik))
        objective = objective_of(params, loglik)

        if prev_objective is not None and objective < prev_objective - config.tol_loglik:
            stop_reason = "likelihood_decrease"
            objective_drop = prev_objective - objective
            break
        vec = _param_vector(params)
        if (
            prev_vec is not None
            and float(np.max(np.abs(vec - prev_vec))) < config.tol_param
        ):
            converged = True
            stop_reason = "param_tol"
            break
        if iteration == config.max_iters:
            stop_reason = "max_iters"
            break
        prev_objective, prev_vec = objective, vec

        if newton and skip:
            skip -= 1
        elif newton:
            grad, hess = _score_and_hessian(params, kernel, totals, cnt, mu_terms)
            cand = _newton_step(params, grad, hess, mu_terms, reach)
            if cand is not None:
                ahead = kernel.e_step(cand, weights)
                if objective_of(cand, float(np.dot(cnt, ahead[0]))) > objective:
                    params, backoff, reach = cand, 1, min(1.0, 2.0 * reach)
                    newton_steps += 1
                    continue
                ahead, reach = None, 0.5 * reach
            skip, backoff = backoff, 2 * backoff

        params, clamps = m_step(params, totals, m, config.grid, config.regularizer)
        clamp_events += [ClampEvent(iteration + 1, *clamp) for clamp in clamps]

    score_norm = None
    if not two_point:
        # The last E-step's totals are those of the final parameters.
        grad, _ = _score_and_hessian(params, kernel, totals, cnt, mu_terms, False)
        held = _held(params, grad, mu_terms)
        score_norm = float(np.max(np.abs(np.where(held, 0.0, grad)))) / m

    report = FitReport(
        trajectory=tuple(trajectory),
        converged=converged,
        stop_reason=stop_reason,
        clamp_events=tuple(clamp_events),
        fallback_rows=fallback_rows,
        newton_steps=newton_steps,
        score_norm=score_norm,
    )
    if strict and stop_reason == "likelihood_decrease":
        raise LikelihoodDecreaseError(report, objective_drop)
    return report


def em_fit(
    histories: Sequence[UserHistory],
    config: EmConfig,
    *,
    strict: bool = False,
) -> FitReport:
    """`fit_rows` on the (sum_z, n) rows of `histories`."""
    return fit_rows(suff_stats(histories), config, strict=strict)
