"""Data model and likelihood arithmetic for annotator attentiveness.

An annotator with attentiveness ``eta`` in [0, 1] prefers the stronger
model's response with probability ``1/2 + eta * (mu - 1/2)``, where ``mu``
is the population-level probability that the stronger model wins a
comparison. ``eta = 0`` is a fair coin, ``eta = 1`` tracks the population
preference exactly. Everything downstream (EM, posteriors, filtering) is
built on the likelihood functions here.

All likelihood code works from the sufficient statistic ``(sum_z, n)`` of a
user's history and stays in log space: label counts reach the thousands and
raw products would underflow. The E-step of both prior families
(`ScaledKernel`) leaves it only after scaling each row by its largest term.
"""

import numbers
import sys
from dataclasses import dataclass
from typing import Literal, Union, get_args

import numpy as np

from .numerics import QuadratureGrid, log_beta, log_sum_exp

# Continuous prior densities are evaluated with eta clipped to this margin so
# endpoint nodes keep finite log-densities even for near-flat shapes; for the
# admissible families (alpha, beta > 1) the true density vanishes there and
# the distortion is far below quadrature resolution.
ETA_DENSITY_CLIP = 1e-12


def _real(value) -> bool:
    """Whether `value` is a real number; bools are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value) -> bool:
    """Whether `value` is an integer; numpy integers are, bools are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(name: str, value) -> float:
    """`value` as a float; a bool, a non-number or a non-finite one is rejected.

    Every dataclass that a JSON config, scenario or fit.json can build checks
    its numbers here, so JSON's true, NaN and Infinity, and numbers written
    as strings, stop at the field that holds them.
    """
    # Exact for integers too, so one beyond float range is rejected, not cast.
    if _real(value) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _finite_entries(obj) -> None:
    """`_finite` on each number in the tuple fields of dataclass `obj`.

    An entry may itself be a pair of numbers, such as an (alpha, beta) one.
    """
    for name, values in vars(obj).items():
        for value in values:
            for x in value if isinstance(value, (tuple, list)) else (value,):
                _finite(f"{name} entry", x)


@dataclass(frozen=True)
class AnnotationRecord:
    """One binary preference label: 1 means model A's response was chosen."""

    user_id: str
    item_id: str
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class UserHistory:
    """A user's label counts: sum_z labels of 1 among n labels.

    The label model sees a user only through this sufficient statistic, so
    the label sequence itself is not kept.
    """

    user_id: str
    sum_z: int
    n: int

    def __post_init__(self):
        if not 0 <= self.sum_z <= self.n:
            raise ValueError("need 0 <= sum_z <= n")

    @classmethod
    def from_labels(cls, user_id: str, labels) -> "UserHistory":
        labels = [int(z) for z in labels]
        if any(z not in (0, 1) for z in labels):
            raise ValueError("labels must be 0/1")
        return cls(user_id, sum(labels), len(labels))


@dataclass(frozen=True, eq=False)
class AnnotationColumns:
    """A dataset as columns: one user code, item code and label per record.

    `user_ids[c]` is the id that user code `c` names, and likewise for
    `item_ids`; equal ids share one code. Readers number ids in order of
    first appearance. Records keep their input order.
    """

    user_ids: list
    item_ids: list
    users: np.ndarray  # intp code per record
    items: np.ndarray  # intp code per record
    labels: np.ndarray  # int8, 0 or 1

    @classmethod
    def from_records(cls, records) -> "AnnotationColumns":
        user_code: dict = {}
        item_code: dict = {}
        users, items, labels = [], [], []
        for rec in records:
            users.append(user_code.setdefault(rec.user_id, len(user_code)))
            items.append(item_code.setdefault(rec.item_id, len(item_code)))
            labels.append(rec.label)
        return cls(
            list(user_code),
            list(item_code),
            np.array(users, dtype=np.intp),
            np.array(items, dtype=np.intp),
            np.array(labels, dtype=np.int8),
        )

    def __len__(self) -> int:
        return len(self.labels)

    def to_records(self) -> list[AnnotationRecord]:
        user_ids, item_ids = self.user_ids, self.item_ids
        return [
            AnnotationRecord(user_ids[u], item_ids[i], z)
            for u, i, z in zip(
                self.users.tolist(), self.items.tolist(), self.labels.tolist()
            )
        ]

    def take(self, mask: np.ndarray) -> "AnnotationColumns":
        """The records where `mask` is true; the id tables are shared."""
        return AnnotationColumns(
            self.user_ids,
            self.item_ids,
            self.users[mask],
            self.items[mask],
            self.labels[mask],
        )

    def user_order(self) -> list:
        """Ids of the users that have records, in order of first appearance."""
        return [self.user_ids[c] for c in first_seen(self.users)]


def first_seen(codes: np.ndarray) -> np.ndarray:
    """The distinct values of `codes` (non-negative) in order of first appearance.

    Each value's first position comes from one unbuffered minimum per
    record; only the distinct values are sorted.
    """
    first = np.full(np.max(codes, initial=-1) + 1, codes.size, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(codes.size))
    seen = np.flatnonzero(first < codes.size)
    return seen[np.argsort(first[seen])]


def user_counts(columns: AnnotationColumns):
    """(codes, sum_z, n): each user's code, labels of 1 and labels, first-seen order.

    Rejects duplicate (user_id, item_id) pairs, naming the first record that
    repeats an earlier pair.
    """
    users = columns.users
    keys = users.astype(np.int64) * len(columns.item_ids) + columns.items
    ordered = np.sort(keys)
    if np.any(ordered[1:] == ordered[:-1]):
        # Only now find which record repeats first: a stable sort keeps
        # each key's records in file order.
        by_key = np.argsort(keys, kind="stable")
        repeats = by_key[1:][keys[by_key[1:]] == keys[by_key[:-1]]]
        first = int(repeats.min())
        key = (columns.user_ids[users[first]], columns.item_ids[columns.items[first]])
        raise ValueError(f"duplicate (user_id, item_id): {key!r}")
    order = first_seen(users)
    sum_z = np.bincount(users, weights=columns.labels).astype(np.intp)
    return order, sum_z[order], np.bincount(users)[order]


def histories_from_records(records) -> list["UserHistory"]:
    """Count each user's labels, first-seen user order; see `user_counts`."""
    columns = AnnotationColumns.from_records(records)
    codes, sum_z, n = user_counts(columns)
    return [
        UserHistory(columns.user_ids[code], s, k)
        for code, s, k in zip(codes.tolist(), sum_z.tolist(), n.tolist())
    ]


@dataclass(frozen=True)
class TwoPointPrior:
    """Attentiveness takes value eta_lo with probability q1, else eta_hi."""

    q1: float
    eta_lo: float
    eta_hi: float

    def __post_init__(self):
        if not 0.0 <= _finite("q1", self.q1) <= 1.0:
            raise ValueError("q1 must lie in [0, 1]")
        eta_lo, eta_hi = _finite("eta_lo", self.eta_lo), _finite("eta_hi", self.eta_hi)
        if not 0.0 <= eta_lo <= eta_hi <= 1.0:
            raise ValueError("need 0 <= eta_lo <= eta_hi <= 1")

    @property
    def q2(self) -> float:
        return 1.0 - self.q1


@dataclass(frozen=True)
class BetaPrior:
    """Beta(alpha, beta) attentiveness density; shapes strictly above 1."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (_finite("alpha", self.alpha) > 1.0 and _finite("beta", self.beta) > 1.0):
            raise ValueError("Beta prior requires alpha > 1 and beta > 1")

    def log_density(self, eta) -> np.ndarray:
        e = np.clip(np.asarray(eta, dtype=float), ETA_DENSITY_CLIP, 1.0 - ETA_DENSITY_CLIP)
        return (
            (self.alpha - 1.0) * np.log(e)
            + (self.beta - 1.0) * np.log1p(-e)
            - log_beta(self.alpha, self.beta)
        )


@dataclass(frozen=True)
class LogisticNormalMixturePrior:
    """Density of sigmoid(X) where X is a Gaussian mixture on the logit line."""

    weights: tuple[float, ...]
    means: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        k = len(self.weights)
        if k == 0 or len(self.means) != k or len(self.sigmas) != k:
            raise ValueError("weights/means/sigmas must share a positive length")
        _finite_entries(self)
        if k > 1 and any(not 0.0 < w < 1.0 for w in self.weights):
            raise ValueError("component weights must lie in (0, 1)")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if any(s <= 0.0 for s in self.sigmas):
            raise ValueError("sigmas must be positive")

    def log_density(self, eta) -> np.ndarray:
        e = np.clip(np.asarray(eta, dtype=float), ETA_DENSITY_CLIP, 1.0 - ETA_DENSITY_CLIP)
        x = np.log(e) - np.log1p(-e)
        w = np.log(np.asarray(self.weights))
        m = np.asarray(self.means)
        s = np.asarray(self.sigmas)
        comp = (
            w
            - 0.5 * np.log(2.0 * np.pi)
            - np.log(s)
            - 0.5 * ((x[..., None] - m) / s) ** 2
        )
        return log_sum_exp(comp, axis=-1) - np.log(e) - np.log1p(-e)


AttentivenessPrior = Union[TwoPointPrior, BetaPrior, LogisticNormalMixturePrior]

MuMode = Literal["fixed", "free"]


@dataclass(frozen=True)
class ModelParams:
    """Full parameter vector: attentiveness prior plus the preference rate mu.

    mu is the probability that the stronger model wins a comparison; the
    model is unidentifiable at mu = 1/2 and degenerate at 1, so the open
    interval is enforced. mu_mode records whether mu was held fixed or
    estimated alongside the prior.
    """

    prior: AttentivenessPrior
    mu: float
    mu_mode: MuMode = "fixed"

    def __post_init__(self):
        if not isinstance(self.prior, get_args(AttentivenessPrior)):
            raise ValueError(
                "ModelParams takes a two-point, Beta or logistic-normal mixture "
                f"prior, not {type(self.prior).__name__}"
            )
        if not 0.5 < _finite("mu", self.mu) < 1.0:
            raise ValueError("mu must lie strictly inside (1/2, 1)")
        if self.mu_mode not in ("fixed", "free"):
            raise ValueError("mu_mode must be 'fixed' or 'free'")


def bernoulli_response_prob(eta, mu):
    """P(label = 1) for attentiveness eta: 1/2 + eta * (mu - 1/2)."""
    e = np.asarray(eta, dtype=float)
    if np.any(e < 0.0) or np.any(e > 1.0):
        raise ValueError("eta must lie in [0, 1]")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    out = 0.5 + e * (mu - 0.5)
    return float(out) if out.ndim == 0 else out


def loglik_from_counts(sum_z, n, mu, eta):
    """User log-likelihood from the sufficient statistic (sum_z, n).

    The likelihood kernel: the E-step, observed_loglik and the posterior
    table (`em.posterior_rows`) evaluate the model through it. Broadcasts, so (R, 1) count columns
    against a (K,) support give the (R, K) matrix over rows x support; with
    mu in (0, 1) both outcome probabilities are positive, so the result is
    finite.
    """
    if np.any(np.asarray(sum_z) < 0) or np.any(np.asarray(sum_z) > np.asarray(n)):
        raise ValueError("need 0 <= sum_z <= n")
    return _kernel(sum_z, n, mu, eta)


def _kernel(sum_z, n, mu, eta, out=None):
    """sum_z * log(g) + (n - sum_z) * log(1 - g), g the response probability.

    One two-term einsum: each product is rounded, then their sum, as in the
    plain numpy expression, and the only rows x support array is the result.
    """
    g = bernoulli_response_prob(eta, mu)
    counts = np.stack(np.broadcast_arrays(sum_z, np.subtract(n, sum_z)))
    logs = np.stack([np.log(g), np.log1p(-g)])
    return np.einsum("i...,i...->...", counts, logs, out=out)


def prior_log_masses(prior: AttentivenessPrior, grid: QuadratureGrid):
    """Discrete log-mass representation of a prior for marginalization.

    Returns (support, log_mass): atoms and log-probabilities for the
    two-point family, or grid nodes and log(weight * density) for continuous
    families. Marginal likelihoods are then log-sum-exp reductions either way.
    """
    if isinstance(prior, TwoPointPrior):
        support = np.array([prior.eta_lo, prior.eta_hi])
        with np.errstate(divide="ignore"):
            log_mass = np.log(np.array([prior.q1, prior.q2]))
        return support, log_mass
    with np.errstate(divide="ignore"):
        log_w = np.log(grid.weights)
    return grid.nodes, log_w + prior.log_density(grid.nodes)


def suff_stats(histories):
    """Dedup histories by (sum_z, n): unique stat rows plus multiplicities.

    Returns (sum_z_u, n_u, count_u, inverse) with `inverse` mapping each
    history to its row; see `unique_rows`.
    """
    sum_z = np.array([h.sum_z for h in histories], dtype=np.int64)
    return unique_rows(sum_z, np.array([h.n for h in histories], dtype=np.int64))


def unique_rows(sum_z, n):
    """`suff_stats` of users given as integer arrays of sum_z and n.

    Likelihoods and posteriors depend on a user only through this pair, so
    EM-scale work is O(unique rows), not O(users). Rows come in (sum_z, n)
    lexicographic order.
    """
    # One integer key per row, ordered as the (sum_z, n) pairs: n <= max n.
    base = int(n.max()) + 1 if n.size else 1
    keys, inverse, counts = np.unique(
        sum_z * base + n, return_inverse=True, return_counts=True
    )
    sum_z_u, n_u = np.divmod(keys, base)
    return sum_z_u.astype(float), n_u.astype(float), counts.astype(float), inverse


def log_joint_matrix(sum_z, n, params: ModelParams, grid: QuadratureGrid):
    """Log prior mass plus log-likelihood over rows x the prior's support.

    `sum_z` and `n` are (R, 1) columns.
    """
    support, log_mass = prior_log_masses(params.prior, grid)
    joint = loglik_from_counts(sum_z, n, params.mu, support)
    joint += log_mass
    return joint


def log_joint(sum_z, n, params: ModelParams, grid: QuadratureGrid):
    """E-step core in the log domain: the joint and each row's marginal.

    `sum_z` and `n` are (R, 1) columns. Returns (joint, per_row): the log
    joint over rows x support and each row's log marginal likelihood.
    """
    joint = log_joint_matrix(sum_z, n, params, grid)
    per_row = log_sum_exp(joint, axis=1)
    if np.any(~np.isfinite(per_row)):
        raise FloatingPointError("marginal likelihood underflowed to zero")
    return joint, per_row


class ScaledKernel:
    """The E-step in the probability domain, over either prior family's support.

    Holds P = exp(L - rowmax(L)) for (sum_z, n) rows on the support that
    `prior_log_masses` gives (two atoms, or a grid's nodes), L being the
    log-likelihood kernel at one mu, in one rows x support buffer. The
    buffer is allocated once and rebuilt in place whenever mu or the
    support moves: every iteration of a two-point fit, only when mu moves
    for a continuous prior. With the prior's masses scaled to
    w = exp(log_mass - max), a row's marginal is rowmax + max + log(P @ w)
    and its posterior is P * w / (P @ w), so an E-step costs
    matrix-vector products and no exp over the matrix.

    A row whose s = P @ w falls below support * 2**53 * tiny takes the
    log-domain path (`log_joint`) instead. Above that limit every term
    P[r, k] * w[k] that moves s by a rounding unit is a normal float, so
    underflow and subnormals cost less than one ulp of s.
    """

    def __init__(self, sum_z, n, grid: QuadratureGrid):
        self.sum_z = np.asarray(sum_z, dtype=float)
        self.n = np.asarray(n, dtype=float)
        if np.any(self.sum_z < 0) or np.any(self.sum_z > self.n):
            raise ValueError("need 0 <= sum_z <= n")
        self.grid = grid
        self.p = None
        self.rowmax = np.empty(self.sum_z.size)
        self.mu = self.support = None
        self.sums = None

    def _build(self, mu: float, support: np.ndarray) -> None:
        if self.p is None:
            self.p = np.empty((self.sum_z.size, support.size))
            self.fallback_below = support.size * 2.0**53 * np.finfo(float).tiny
        p = self.p
        _kernel(self.sum_z[:, None], self.n[:, None], mu, support, out=p)
        np.max(p, axis=1, out=self.rowmax)
        p -= self.rowmax[:, None]
        np.exp(p, out=p)
        self.mu, self.support = mu, support

    def e_step(self, params: ModelParams, weights):
        """Each row's log marginal and posterior-weighted support totals.

        `weights` is (J, R). Returns (per_row, totals, fallbacks): totals[j]
        is sum over rows r of weights[j, r] times row r's posterior masses on
        the support, and fallbacks the number of rows that took `log_joint`.
        """
        w, top, s, low = self._row_sums(params)
        with np.errstate(divide="ignore"):
            per_row = self.rowmax + top + np.log(s)
        # Fallback rows get zero weight here: 1 / inf.
        totals = (weights / np.where(low, np.inf, s)) @ self.p
        totals *= w
        fallbacks = int(np.count_nonzero(low))
        if fallbacks:
            masses, per_row[low] = self._fallback(params, low)
            totals += weights[:, low] @ masses
        return per_row, totals, fallbacks

    def _row_sums(self, params: ModelParams):
        """(w, top, s, low) at `params`: the prior's masses w scaled to a
        largest of 1, the log `top` of that scale, s = P @ w, and the rows
        whose s falls below the fallback limit.

        Rebuilds P first if `params` moved mu or the support. Only this
        method rebuilds P, so the last call's values stay those of P, and
        are reused while `params` is the same (frozen) object: a Newton
        try's `posterior_means` follows `e_step` at the same params.
        """
        if self.sums is None or self.sums[0] is not params:
            support, log_mass = prior_log_masses(params.prior, self.grid)
            if params.mu != self.mu or not np.array_equal(support, self.support):
                self._build(params.mu, support)
            top = float(log_mass.max())
            w = np.exp(log_mass - top)
            s = self.p @ w
            self.sums = (params, w, top, s, s < self.fallback_below)
        return self.sums[1:]

    def _fallback(self, params: ModelParams, low):
        """Posterior masses and log marginals of the rows `low`, by `log_joint`."""
        joint, norm = log_joint(self.sum_z[low, None], self.n[low, None], params, self.grid)
        return np.exp(joint - norm[:, None], out=joint), norm

    def posterior_means(self, params: ModelParams, columns):
        """Each row's posterior expectation at `params` of `columns` (support x C).

        One rows x C product over the kernel, normalised by each row's
        s = P @ w, which `e_step` at the same `params` has already formed;
        rows that underflow take `log_joint`.
        """
        w, _, s, low = self._row_sums(params)
        means = self.p @ (w[:, None] * columns)
        means /= np.where(low, np.inf, s)[:, None]
        if low.any():
            means[low] = self._fallback(params, low)[0] @ columns
        return means


def observed_loglik(histories, params: ModelParams, grid: QuadratureGrid) -> float:
    """Observed-data log-likelihood: sum over users of the log marginal.

    The per-user marginal integrates the likelihood against the prior,
    exactly for the two-point family (a sum over the atoms) and by trapezoid
    quadrature for continuous ones, through the E-step's `ScaledKernel`.
    """
    if not histories:
        return 0.0
    sum_z_u, n_u, counts, _ = suff_stats(histories)
    per_row, _, _ = ScaledKernel(sum_z_u, n_u, grid).e_step(params, counts[None, :])
    return float(np.dot(counts, per_row))
