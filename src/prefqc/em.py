"""EM fitting of the attentiveness model.

The E-step computes each user's posterior over eta given the current
parameters: exactly for the two-point family (two responsibilities), on a
trapezoid grid for continuous priors. The M-step maximizes the expected
complete-data log-likelihood plus an optional regularizer on mu: closed form
for the two-point family, a digamma moment system for the Beta family, and a
golden-section search for mu when it is estimated rather than known.

Every M-step here is an exact maximizer of its block of the surrogate
objective (clipping included: the objectives are concave per coordinate), so
the observed log-likelihood is non-decreasing along the trajectory up to
floating-point noise. The fit loop asserts that invariant every iteration.
"""

import logging
import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple, Sequence, Union

import numpy as np

from .model import (
    ETA_DENSITY_CLIP,
    AttentivenessPrior,
    BetaPrior,
    LogisticNormalMixturePrior,
    ModelParams,
    MuMode,
    TwoPointPrior,
    UserHistory,
    log_joint,
    loglik_from_counts,
    suff_stats,
    user_loglik,
)
from .numerics import QuadratureGrid, log_sum_exp, solve_beta_system

logger = logging.getLogger(__name__)

# Search interval for a free mu; the model is unidentifiable at 1/2 and
# degenerate at 1, so both ends are padded.
MU_SEARCH_LO = 0.5 + 1e-4
MU_SEARCH_HI = 1.0 - 1e-4
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class LogPriorOnMu:
    """Additive M-step term (a-1)*log(mu) + (b-1)*log(1-mu).

    With (a, b) = (8, 2) this is the log-density of a Beta(8, 2) belief
    about mu, up to a constant.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError("LogPriorOnMu requires a > 0 and b > 0")


@dataclass(frozen=True)
class BoxOnMu:
    """Hard constraint lo <= mu <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not 0.5 <= self.lo < self.hi <= 1.0:
            raise ValueError("BoxOnMu requires 1/2 <= lo < hi <= 1")


RegularizerSpec = Union[LogPriorOnMu, BoxOnMu, None]


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
    """A mixture component collapsed (no posterior mass / vanishing weight)."""


@dataclass(frozen=True)
class EmConfig:
    """Fit configuration.

    Either supply `init` (a full ModelParams) or a `family` plus `mu`;
    defaults for the rest follow the library's stock choices: interior
    inits (q1=1/2 with masses at 1/4, 3/4; Beta(2,2)), a free mu started at
    the clipped empirical label frequency, sup-norm parameter convergence.
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol_param <= 0.0 or self.tol_loglik <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.init is None and self.family not in ("two_point", "beta"):
            raise ValueError("supply init params or family in {'two_point','beta'}")
        if self.init is not None and self.family is not None:
            fam = "two_point" if isinstance(self.init.prior, TwoPointPrior) else "beta"
            known = isinstance(self.init.prior, (TwoPointPrior, BetaPrior))
            if known and fam != self.family:
                raise ValueError(f"init prior is {fam!r} but family={self.family!r}")


@dataclass(frozen=True)
class TwoPointPosterior:
    """Posterior over eta when the prior has two atoms."""

    user_id: str
    eta_lo: float
    eta_hi: float
    gamma_lo: float
    gamma_hi: float

    @property
    def map_eta(self) -> float:
        # Ties go to the attentive atom; keeps ranking deterministic.
        return self.eta_hi if self.gamma_hi >= self.gamma_lo else self.eta_lo

    @property
    def mean_eta(self) -> float:
        return self.gamma_lo * self.eta_lo + self.gamma_hi * self.eta_hi

    @property
    def e_log_eta(self) -> float:
        lo = max(self.eta_lo, ETA_DENSITY_CLIP)
        hi = max(self.eta_hi, ETA_DENSITY_CLIP)
        return self.gamma_lo * math.log(lo) + self.gamma_hi * math.log(hi)

    @property
    def e_log_1meta(self) -> float:
        lo = min(self.eta_lo, 1.0 - ETA_DENSITY_CLIP)
        hi = min(self.eta_hi, 1.0 - ETA_DENSITY_CLIP)
        return self.gamma_lo * math.log1p(-lo) + self.gamma_hi * math.log1p(-hi)

    def tail_prob(self, eta_star: float) -> float:
        """P(eta >= eta_star): a step function over the two atoms."""
        p = 0.0
        if eta_star <= self.eta_lo:
            p += self.gamma_lo
        if eta_star <= self.eta_hi:
            p += self.gamma_hi
        return p


@dataclass(frozen=True)
class GridPosterior:
    """Posterior over eta on a quadrature grid (continuous prior)."""

    user_id: str
    nodes: np.ndarray
    masses: np.ndarray  # node probabilities (weights folded in), sum to 1
    density: np.ndarray  # masses / weights: density w.r.t. Lebesgue measure

    def __post_init__(self):
        for name in ("nodes", "masses", "density"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def map_eta(self) -> float:
        return float(self.nodes[int(np.argmax(self.density))])

    @property
    def mean_eta(self) -> float:
        return float(np.dot(self.masses, self.nodes))

    @property
    def e_log_eta(self) -> float:
        e = np.clip(self.nodes, ETA_DENSITY_CLIP, 1.0 - ETA_DENSITY_CLIP)
        return float(np.dot(self.masses, np.log(e)))

    @property
    def e_log_1meta(self) -> float:
        e = np.clip(self.nodes, ETA_DENSITY_CLIP, 1.0 - ETA_DENSITY_CLIP)
        return float(np.dot(self.masses, np.log1p(-e)))

    def _tail_at_nodes(self) -> np.ndarray:
        f = self.density
        seg = 0.5 * np.diff(self.nodes) * (f[:-1] + f[1:])
        return np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

    def tail_prob(self, eta_star: float) -> float:
        """P(eta >= eta_star) of the piecewise-linear posterior density."""
        if eta_star <= 0.0:
            return float(self._tail_at_nodes()[0])
        if eta_star >= 1.0:
            return 0.0
        nodes, f = self.nodes, self.density
        cum = self._tail_at_nodes()
        i = int(np.searchsorted(nodes, eta_star, side="right")) - 1
        t = (eta_star - nodes[i]) / (nodes[i + 1] - nodes[i])
        f_star = f[i] + t * (f[i + 1] - f[i])
        partial = 0.5 * (nodes[i + 1] - eta_star) * (f_star + f[i + 1])
        return float(cum[i + 1] + partial)


PosteriorDensity = Union[TwoPointPosterior, GridPosterior]


def posterior_two_point(
    history: UserHistory, params: ModelParams
) -> tuple[float, float]:
    """Responsibilities (gamma_lo, gamma_hi) of the two prior atoms.

    Computed with a log-sum-exp so long histories cannot underflow; the two
    values sum to 1 exactly.
    """
    prior = params.prior
    if not isinstance(prior, TwoPointPrior):
        raise ValueError("posterior_two_point requires a two-point prior")
    l_lo = math.log(prior.q1) if prior.q1 > 0.0 else -math.inf
    l_hi = math.log(prior.q2) if prior.q2 > 0.0 else -math.inf
    l_lo += user_loglik(history, params.mu, prior.eta_lo)
    l_hi += user_loglik(history, params.mu, prior.eta_hi)
    norm = np.logaddexp(l_lo, l_hi)
    gamma_lo = float(np.exp(l_lo - norm))
    return gamma_lo, 1.0 - gamma_lo


def posterior_grid(
    history: UserHistory, params: ModelParams, grid: QuadratureGrid
) -> GridPosterior:
    """Grid posterior of eta for a continuous prior."""
    if isinstance(params.prior, TwoPointPrior):
        raise ValueError("posterior_grid requires a continuous prior")
    logpost, norm = log_joint(history.sum_z, history.n, params, grid)
    masses = np.exp(logpost - norm)
    masses = masses / masses.sum()
    return GridPosterior(
        user_id=history.user_id,
        nodes=grid.nodes,
        masses=masses,
        density=masses / grid.weights,
    )


def m_step_two_point(
    posteriors: Sequence[tuple[float, float]],
    histories: Sequence[UserHistory],
    mu: float,
) -> TwoPointPrior:
    """Exact maximizer of the two-point surrogate objective at fixed mu.

    q1 is the mean low-atom responsibility; each atom solves a weighted
    Bernoulli MLE inverted through the response curve, clipped to [0, 1].
    Returned with eta_lo <= eta_hi (labels swapped if the update crosses).
    """
    if len(posteriors) != len(histories):
        raise ValueError("posteriors and histories must align")
    gam = np.asarray(posteriors, dtype=float)
    sz = np.array([h.sum_z for h in histories], dtype=float)
    n = np.array([h.n for h in histories], dtype=float)
    counts = np.ones_like(sz)
    q1, eta_lo, eta_hi, _ = _two_point_update(gam[:, 0], gam[:, 1], sz, n, counts, mu)
    return TwoPointPrior(q1=q1, eta_lo=eta_lo, eta_hi=eta_hi)


def _two_point_update(gam1, gam2, sz, n, counts, mu):
    """Weighted two-point M-step; returns (q1, eta_lo, eta_hi, clip_flags)."""
    total = float(counts.sum())
    q1 = float(np.dot(counts, gam1) / total)
    etas = []
    clipped = []
    for idx, gam in enumerate((gam1, gam2)):
        den = (2.0 * mu - 1.0) * float(np.dot(counts, n * gam))
        if den == 0.0:
            raise DegenerateComponentError(
                f"two-point component {idx + 1} has no posterior mass"
            )
        raw = float(np.dot(counts, (2.0 * sz - n) * gam)) / den
        etas.append(min(max(raw, 0.0), 1.0))
        clipped.append(raw < 0.0 or raw > 1.0)
    eta_lo, eta_hi = etas
    if eta_lo > eta_hi:
        eta_lo, eta_hi = eta_hi, eta_lo
        clipped = [clipped[1], clipped[0]]
        q1 = 1.0 - q1
        swapped = True
    else:
        swapped = False
    return q1, eta_lo, eta_hi, (clipped[0], clipped[1], swapped)


def m_step_beta(
    posteriors: Sequence[PosteriorDensity],
) -> tuple[BetaPrior, bool]:
    """Beta M-step: match digamma moments to mean posterior log-moments.

    Returns the prior and whether the (alpha, beta) > 1 floor clamped.
    """
    if not posteriors:
        raise ValueError("need at least one posterior")
    r1 = float(np.mean([p.e_log_eta for p in posteriors]))
    r2 = float(np.mean([p.e_log_1meta for p in posteriors]))
    sol = solve_beta_system(r1, r2)
    return BetaPrior(alpha=sol.alpha, beta=sol.beta), sol.clamped


def _regularizer_terms(regularizer: RegularizerSpec):
    """(log-prior callable, search interval) for the mu update."""
    lo, hi = MU_SEARCH_LO, MU_SEARCH_HI
    if isinstance(regularizer, BoxOnMu):
        lo = max(lo, regularizer.lo)
        hi = min(hi, regularizer.hi)
        if lo >= hi:
            raise ValueError("BoxOnMu interval is empty after padding")
        return None, lo, hi
    if isinstance(regularizer, LogPriorOnMu):
        a, b = regularizer.a, regularizer.b

        def logprior(mu: float) -> float:
            return (a - 1.0) * math.log(mu) + (b - 1.0) * math.log1p(-mu)

        return logprior, lo, hi
    if regularizer is None:
        return None, lo, hi
    raise TypeError(f"unknown regularizer {regularizer!r}")


def _mu_objective(support, win_counts, loss_counts, logprior):
    def objective(mu: float) -> float:
        g = 0.5 + support * (mu - 0.5)
        val = float(np.dot(win_counts, np.log(g)) + np.dot(loss_counts, np.log1p(-g)))
        if logprior is not None:
            val += logprior(mu)
        return val

    return objective


def _maximize_mu(support, win_counts, loss_counts, regularizer, xtol=1e-7):
    """Golden-section argmax of the (concave) expected-likelihood term in mu.

    Returns (mu, at_boundary, objective), the objective being the function
    of mu that was maximized.
    """
    logprior, lo, hi = _regularizer_terms(regularizer)
    f = _mu_objective(support, win_counts, loss_counts, logprior)
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    fx = f(x)
    at_boundary = False
    # Snap to an endpoint when it is at least as good: constrained optima
    # land exactly on the box edge instead of xtol shy of it.
    for bound in (lo, hi):
        fb = f(bound)
        if fb >= fx:
            x, fx, at_boundary = bound, fb, True
    return x, at_boundary, f


def _mu_counts(masses, sz, n, cnt):
    """Expected (win, loss) label counts at each support point.

    masses is rows x support; each row holds cnt users with sum_z of n.
    """
    return (cnt * sz) @ masses, (cnt * (n - sz)) @ masses


def _mu_update_arrays(posteriors, current_prior):
    """(support, users x support masses) for the mu objective."""
    if not posteriors:
        return np.array([0.0]), np.zeros((0, 1))
    first = posteriors[0]
    if isinstance(first, GridPosterior):
        return first.nodes, np.array([p.masses for p in posteriors])
    if isinstance(first, TwoPointPosterior):
        gam = np.array([[p.gamma_lo, p.gamma_hi] for p in posteriors])
        return np.array([first.eta_lo, first.eta_hi]), gam
    # plain (gamma_lo, gamma_hi) pairs; atoms come from the prior
    if not isinstance(current_prior, TwoPointPrior):
        raise ValueError("tuple posteriors need a two-point current_prior")
    gam = np.asarray(posteriors, dtype=float)
    return np.array([current_prior.eta_lo, current_prior.eta_hi]), gam


def m_step_mu(
    posteriors,
    histories: Sequence[UserHistory],
    current_prior: AttentivenessPrior,
    regularizer: RegularizerSpec = None,
) -> float:
    """Argmax over mu of the expected log-likelihood plus regularizer.

    Accepts two-point responsibilities (pairs or TwoPointPosterior) or grid
    posteriors. Boundary solutions are logged as a warning.
    """
    support, masses = _mu_update_arrays(posteriors, current_prior)
    sz = np.array([h.sum_z for h in histories], dtype=float)
    n = np.array([h.n for h in histories], dtype=float)
    wins, losses = _mu_counts(masses, sz, n, 1)
    mu, at_boundary, _ = _maximize_mu(support, wins, losses, regularizer)
    if at_boundary:
        logger.warning("mu update landed on the search boundary at %.6f", mu)
    return mu


def default_init(
    family: str,
    histories: Sequence[UserHistory],
    mu: float | None,
    mu_mode: MuMode,
) -> ModelParams:
    """Stock starting point when the caller does not supply one."""
    if mu_mode == "fixed":
        if mu is None:
            raise ValueError("fixed-mu fits require mu")
        mu0 = mu
    elif mu is not None:
        mu0 = mu
    else:
        total_n = sum(h.n for h in histories)
        freq = sum(h.sum_z for h in histories) / total_n if total_n else 0.75
        mu0 = min(max(freq, 0.55), 0.95)
    if family == "two_point":
        prior: AttentivenessPrior = TwoPointPrior(q1=0.5, eta_lo=0.25, eta_hi=0.75)
    elif family == "beta":
        prior = BetaPrior(alpha=2.0, beta=2.0)
    else:
        raise ValueError(f"unsupported family {family!r}")
    return ModelParams(prior=prior, mu=mu0, mu_mode=mu_mode)


def _param_vector(params: ModelParams) -> np.ndarray:
    prior = params.prior
    if isinstance(prior, TwoPointPrior):
        vec = [prior.q1, prior.eta_lo, prior.eta_hi]
    elif isinstance(prior, BetaPrior):
        vec = [prior.alpha, prior.beta]
    else:
        raise ValueError("EM supports two-point and Beta priors")
    if params.mu_mode == "free":
        vec.append(params.mu)
    return np.array(vec)


def em_fit(
    histories: Sequence[UserHistory],
    config: EmConfig,
    *,
    strict: bool = False,
) -> FitReport:
    """Run EM to convergence and return the full trajectory.

    Stops when the parameter sup-norm change falls below tol_param
    ("param_tol"), the iteration budget runs out ("max_iters"), or the EM
    objective drops by more than tol_loglik ("likelihood_decrease", an
    invariant violation; raises under strict). The monotone objective is
    the observed log-likelihood plus the mu log-prior when one is active;
    a regularized mu update may trade raw likelihood for prior mass, so
    only the penalized sum is guaranteed non-decreasing. Trajectories
    always record the raw data log-likelihood.
    Users are deduplicated by (sum_z, n) internally, which changes nothing
    statistically and keeps per-iteration cost bounded by the grid size.
    """
    if not histories:
        raise ValueError("em_fit needs at least one user history")
    params = config.init if config.init is not None else default_init(
        config.family, histories, config.mu, config.mu_mode
    )
    if isinstance(params.prior, LogisticNormalMixturePrior):
        raise ValueError(
            "EM fits the two-point and Beta families; mixture densities are "
            "fitted post hoc from MAP estimates (fit_logistic_normal_mixture)"
        )
    grid = config.grid
    two_point = isinstance(params.prior, TwoPointPrior)
    mu_free = params.mu_mode == "free"

    sz_u, n_u, cnt, _ = suff_stats(histories)
    m = float(cnt.sum())
    clip_lo = np.clip(grid.nodes, ETA_DENSITY_CLIP, 1.0 - ETA_DENSITY_CLIP)
    log_nodes = np.log(clip_lo)
    log_1m_nodes = np.log1p(-clip_lo)

    # With a log-prior on free mu the M-step maximizes the penalized
    # objective, so that is the quantity the monotonicity guard watches.
    mu_logprior, _, _ = _regularizer_terms(config.regularizer)
    if not mu_free:
        mu_logprior = None

    trajectory: list[TrajectoryPoint] = []
    clamp_events: list[ClampEvent] = []
    converged = False
    stop_reason: StopReason = "max_iters"
    objective_drop = 0.0
    prev_objective = None
    prev_vec = None

    # The (sum_z, n) x support log-likelihood matrix changes only when the
    # support (two-point atoms) or mu moves; on the grid with mu fixed it is
    # built once and each iteration adds the new prior log-masses.
    sz_col, n_col = sz_u[:, None], n_u[:, None]
    fixed_loglik = None
    if not (two_point or mu_free):
        fixed_loglik = loglik_from_counts(sz_col, n_col, params.mu, grid.nodes)

    for iteration in range(config.max_iters + 1):
        joint, per_row = log_joint(sz_col, n_col, params, grid, fixed_loglik)
        loglik = float(np.dot(cnt, per_row))
        trajectory.append(TrajectoryPoint(iteration, params, loglik))
        objective = loglik if mu_logprior is None else loglik + mu_logprior(params.mu)

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

        # E-step responsibilities, computed in place: the next iteration's
        # E-step then runs beside one matrix from this one, not two.
        masses = np.exp(joint - per_row[:, None], out=joint)
        if two_point:
            gam1, gam2 = masses[:, 0], masses[:, 1]
            q1, eta_lo, eta_hi, flags = _two_point_update(
                gam1, gam2, sz_u, n_u, cnt, params.mu
            )
            clip_lo_flag, clip_hi_flag, swapped = flags
            if clip_lo_flag:
                clamp_events.append(ClampEvent(iteration + 1, "eta_lo", eta_lo))
            if clip_hi_flag:
                clamp_events.append(ClampEvent(iteration + 1, "eta_hi", eta_hi))
            new_prior: AttentivenessPrior = TwoPointPrior(q1, eta_lo, eta_hi)
            if mu_free:
                wins, losses = _mu_counts(masses, sz_u, n_u, cnt)
                if swapped:  # the atoms traded places; so do their counts
                    wins, losses = wins[::-1], losses[::-1]
                mu_support = np.array([eta_lo, eta_hi])
        else:
            r1 = float(np.dot(cnt, masses @ log_nodes) / m)
            r2 = float(np.dot(cnt, masses @ log_1m_nodes) / m)
            # Consecutive EM iterations solve nearly identical systems;
            # starting Newton at the previous solution skips the warm-up.
            sol = solve_beta_system(
                r1, r2, start=(params.prior.alpha, params.prior.beta)
            )
            if sol.clamped:
                clamp_events.append(
                    ClampEvent(iteration + 1, "alpha_beta_floor", sol.alpha)
                )
            new_prior = BetaPrior(alpha=sol.alpha, beta=sol.beta)
            if mu_free:
                wins, losses = _mu_counts(masses, sz_u, n_u, cnt)
                mu_support = grid.nodes

        new_mu = params.mu
        if mu_free:
            cand, at_boundary, obj = _maximize_mu(
                mu_support, wins, losses, config.regularizer
            )
            # Generalized-EM safeguard: never accept a mu that scores below
            # the current one (golden-section quantization can lose ~xtol^2).
            if obj(cand) >= obj(params.mu):
                new_mu = cand
                if at_boundary:
                    clamp_events.append(ClampEvent(iteration + 1, "mu", cand))
        params = ModelParams(prior=new_prior, mu=new_mu, mu_mode=params.mu_mode)

    report = FitReport(
        trajectory=tuple(trajectory),
        converged=converged,
        stop_reason=stop_reason,
        clamp_events=tuple(clamp_events),
    )
    if strict and stop_reason == "likelihood_decrease":
        raise LikelihoodDecreaseError(report, objective_drop)
    return report


def fit_logistic_normal_mixture(
    eta_hats,
    k: int,
    *,
    restarts: int = 5,
    variance_floor: float = 1e-6,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> LogisticNormalMixturePrior:
    """Fit a K-component Gaussian mixture to logit-transformed estimates.

    Plain 1-D EM with seeded restarts (best final likelihood wins) and a
    variance floor. Inputs outside (1e-6, 1-1e-6) are clipped first; a
    component whose fitted weight drops below 1/(10m) is reported as
    degenerate rather than returned.
    """
    x = np.asarray(eta_hats, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("eta_hats must be a non-empty 1-D collection")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > x.size:
        raise ValueError("more components than samples")
    lo, hi = 1e-6, 1.0 - 1e-6
    if np.any(x < lo) or np.any(x > hi):
        logger.warning("eta_hats clipped to [%g, %g] before logit", lo, hi)
        x = np.clip(x, lo, hi)
    x = np.log(x) - np.log1p(-x)
    m = x.size

    best_ll = -math.inf
    best = None
    for seed in range(restarts):
        rng = np.random.default_rng(seed)
        means = rng.choice(x, size=k, replace=False)
        var = np.full(k, max(float(np.var(x)), variance_floor))
        weights = np.full(k, 1.0 / k)
        ll = -math.inf
        for _ in range(max_iters):
            log_comp = (
                np.log(weights)
                - 0.5 * np.log(2.0 * np.pi * var)
                - 0.5 * (x[:, None] - means) ** 2 / var
            )
            norm = log_sum_exp(log_comp, axis=1)
            new_ll = float(norm.sum())
            resp = np.exp(log_comp - norm[:, None])
            bulk = np.maximum(resp.sum(axis=0), 1e-300)
            weights = bulk / m
            means = (resp.T @ x) / bulk
            var = np.maximum(
                np.einsum("ik,ik->k", resp, (x[:, None] - means) ** 2) / bulk,
                variance_floor,
            )
            if new_ll - ll < tol:
                ll = new_ll
                break
            ll = new_ll
        if ll > best_ll:
            best_ll = ll
            best = (weights.copy(), means.copy(), var.copy())

    weights, means, var = best
    if np.any(weights < 1.0 / (10.0 * m)):
        raise DegenerateComponentError(
            f"fitted component weight below 1/(10m): {weights.min():.3e}"
        )
    order = np.argsort(means)
    return LogisticNormalMixturePrior(
        weights=tuple(float(w) for w in weights[order]),
        means=tuple(float(c) for c in means[order]),
        sigmas=tuple(float(math.sqrt(v)) for v in var[order]),
    )
