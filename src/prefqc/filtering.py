"""Posterior summaries and dataset filtering.

Given a fitted model, the users' posteriors over eta form one row table
(`em.PosteriorRows`) with a row per distinct sufficient statistic
(sum_z, n). Its MAP, mean and tails are evaluated once per row, as arrays
(`UserRows`), and a selection rule turns each row's scores into keep/drop
decisions. `infer` and `eval` run on the rows alone; `io` writes their
reports. The per-user objects (`PosteriorSummary`, `FilterDecision`) and
their functions are adapters over the same code, with each object a row of
its own. Filtering a dataset keeps the records of attentive users in their
original order. Everything here is a pure transformation, deterministic
down to tie-breaking, so a filtered dataset can be reproduced byte for
byte.
"""

import math
from dataclasses import astuple, dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .em import PosteriorRows, family_of, posterior_rows
from .model import (
    AnnotationColumns,
    AnnotationRecord,
    ModelParams,
    UserHistory,
    _finite,
    first_seen,
    suff_stats,
)
from .numerics import QuadratureGrid


@dataclass(frozen=True)
class PosteriorSummary:
    """Per-user posterior digest: point estimates plus tail evaluations.

    The user's posterior is row `row` of `table`, the one row table that
    every summary of a `summarize_histories` call shares.
    """

    user_id: str
    n_labels: int
    map_eta: float
    mean_eta: float
    tail_probs: tuple[tuple[float, float], ...]  # (eta_star, P(eta >= eta_star))
    table: PosteriorRows
    row: int


@dataclass(frozen=True)
class TopFraction:
    """Keep the ceil(fraction * m) users with the highest MAP eta."""

    fraction: float

    def __post_init__(self):
        if not 0.0 < _finite("fraction", self.fraction) <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")


@dataclass(frozen=True)
class Threshold:
    """Keep users whose MAP eta is at least `value`."""

    value: float

    def __post_init__(self):
        _finite("threshold value", self.value)


@dataclass(frozen=True)
class TailProbability:
    """Keep users with P(eta >= eta_star) >= level."""

    eta_star: float
    level: float = 0.95

    def __post_init__(self):
        _finite("eta_star", self.eta_star)
        if not 0.0 <= _finite("level", self.level) <= 1.0:
            raise ValueError("level must lie in [0, 1]")


SelectionRule = Union[TopFraction, Threshold, TailProbability]


@dataclass(frozen=True)
class FilterDecision:
    user_id: str
    attentive: bool
    rule: SelectionRule
    score: float  # ranking statistic behind the decision


@dataclass(frozen=True)
class FilteredDataset:
    records: tuple[AnnotationRecord, ...]
    kept_user_ids: tuple[str, ...]  # first appearance order in the output

    @property
    def users_kept(self) -> int:
        return len(self.kept_user_ids)

    @property
    def records_kept(self) -> int:
        return len(self.records)


class MissingDecisionError(ValueError):
    """Records reference users that have no filter decision."""

    def __init__(self, user_ids: Sequence[str]):
        self.user_ids = tuple(user_ids)
        preview = ", ".join(self.user_ids[:5])
        more = "" if len(self.user_ids) <= 5 else f" (+{len(self.user_ids) - 5} more)"
        super().__init__(f"no decision for user(s): {preview}{more}")


@dataclass(frozen=True, eq=False)
class UserRows:
    """Posterior digests of users that share (sum_z, n) rows, one per row.

    User k is `user_ids[k]` and has row `inverse[k]`. A row holds its label
    count `n_labels`, its `map_eta` and `mean_eta`, and in `tails` one
    column per entry of `eta_stars`; `table` holds the rows' posteriors.
    """

    user_ids: Sequence[str]
    inverse: np.ndarray
    n_labels: Sequence[int]
    map_eta: np.ndarray
    mean_eta: np.ndarray
    eta_stars: tuple[float, ...]
    tails: np.ndarray
    table: PosteriorRows

    def scores(self, rule: SelectionRule) -> np.ndarray:
        """Each row's score under `rule`: its tail at a tail rule's eta_star,
        read from `tails` when evaluated there, else its MAP."""
        if not isinstance(rule, TailProbability):
            return self.map_eta
        if rule.eta_star in self.eta_stars:
            return self.tails[:, self.eta_stars.index(rule.eta_star)]
        return self.table.tail([rule.eta_star])[:, 0]

    def select(self, rule: SelectionRule) -> tuple[np.ndarray, np.ndarray]:
        """(keep, scores): each user's decision and each row's score."""
        scores = self.scores(rule)
        keep = keep_users(
            rule, self.map_eta, self.mean_eta, scores, self.inverse, self.user_ids
        )
        return keep, scores


def user_rows(
    user_ids: Sequence[str],
    rows,
    params: ModelParams,
    grid: QuadratureGrid | None = None,
    eta_stars: Iterable[float] = (),
) -> UserRows:
    """The users' posterior digests, one per distinct (sum_z, n) row.

    `rows` is what `unique_rows` returns for the users' sum_z and n. Two-point
    priors get the exact two-mass posterior; continuous priors a grid
    posterior (default 1025-node trapezoid grid). The MAP, mean and every
    tail are evaluated once over the table of `posterior_rows`. Every
    `eta_stars` entry must be a finite real number, and no two equal.
    """
    grid = grid if grid is not None else QuadratureGrid.uniform()
    stars = [_finite("eta_stars entry", s) for s in eta_stars]
    for k, s in enumerate(stars):
        if s in stars[:k]:
            raise ValueError(f"eta_stars repeats {s!r}")
    sum_z_u, n_u, _, inverse = rows
    table = posterior_rows(sum_z_u, n_u, params, grid)
    return UserRows(
        user_ids,
        inverse,
        n_u.astype(np.int64).tolist(),
        table.map_eta(),
        table.mean_eta(),
        tuple(stars),
        table.tail(stars),
        table,
    )


def summarize_histories(
    histories: Sequence[UserHistory],
    params: ModelParams,
    grid: QuadratureGrid | None = None,
    eta_stars: Iterable[float] = (),
) -> list[PosteriorSummary]:
    """Posterior digests of many users under fitted parameters, input order.

    The digests of `user_rows`, spread to one summary per history: every
    summary holds the one row table and its user's row in it.
    """
    rows = user_rows(
        [h.user_id for h in histories], suff_stats(histories), params, grid, eta_stars
    )
    tails = [tuple(zip(rows.eta_stars, t)) for t in rows.tails.tolist()]
    digests = list(zip(rows.map_eta.tolist(), rows.mean_eta.tolist(), tails))
    return [
        PosteriorSummary(h.user_id, h.n, *digests[r], rows.table, r)
        for h, r in zip(histories, rows.inverse.tolist())
    ]


def summarize_posterior(
    history: UserHistory,
    params: ModelParams,
    grid: QuadratureGrid | None = None,
    eta_stars: Iterable[float] = (),
) -> PosteriorSummary:
    """Posterior digest of one user; see `summarize_histories`."""
    return summarize_histories([history], params, grid, eta_stars)[0]


def keep_users(
    rule: SelectionRule,
    map_eta: np.ndarray,
    mean_eta: np.ndarray,
    scores: np.ndarray,
    inverse: np.ndarray,
    user_ids: Sequence[str],
) -> np.ndarray:
    """Each user's decision under `rule`, from the MAP, mean and score of its row.

    User k has row `inverse[k]`. A threshold or tail rule compares each
    row's score with its cut. `TopFraction` keeps the first ceil(fraction *
    users) users ranked by (-MAP, -mean, user_id); only the users of the
    rows whose (MAP, mean) straddles the cut are sorted by id. Needs at
    least one user.
    """
    if isinstance(rule, Threshold):
        return (scores >= rule.value)[inverse]
    if isinstance(rule, TailProbability):
        return (scores >= rule.level)[inverse]
    if not isinstance(rule, TopFraction):
        raise TypeError(f"unknown selection rule {rule!r}")
    keep_count = math.ceil(rule.fraction * len(inverse))
    order = np.lexsort((-mean_eta, -map_eta))  # best row first; stable
    maps, means = map_eta[order], mean_eta[order]
    # Tied rows (equal MAP and mean) form one group, ranked by user id.
    new = (maps[1:] != maps[:-1]) | (means[1:] != means[:-1])
    starts = np.flatnonzero(np.r_[True, new])
    users = np.bincount(inverse, minlength=len(order))[order]
    ends = np.cumsum(np.add.reduceat(users, starts))
    cut = int(np.searchsorted(ends, keep_count, side="right"))  # the group at the cut
    bounds = np.r_[starts, len(order)]
    keep_row = np.zeros(len(order), dtype=bool)
    keep_row[order[: bounds[cut]]] = True
    keep = keep_row[inverse]
    before = int(ends[cut - 1]) if cut else 0
    if keep_count > before:
        tied = np.flatnonzero(np.isin(inverse, order[bounds[cut] : bounds[cut + 1]]))
        ranked = sorted(tied.tolist(), key=user_ids.__getitem__)
        keep[ranked[: keep_count - before]] = True
    return keep


def select_users(
    summaries: Sequence[PosteriorSummary], rule: SelectionRule
) -> list[FilterDecision]:
    """Apply a selection rule; one decision per summary, input order kept.

    Each summary is a row of its own in `keep_users`. A tail rule reads its
    tail from each summary's `tail_probs` when it holds the rule's eta_star;
    otherwise it evaluates the tail once per distinct row table (one for a
    `summarize_histories` result) and reads each summary's row.
    """
    if not summaries:
        raise ValueError("select_users needs at least one summary")
    scores = [s.map_eta for s in summaries]
    if isinstance(rule, TailProbability):
        # A tail that summarize_histories evaluated is read, not recomputed.
        scores = [dict(s.tail_probs).get(rule.eta_star) for s in summaries]
        tables = {id(s.table): s.table for s, p in zip(summaries, scores) if p is None}
        tails = {key: t.tail([rule.eta_star])[:, 0].tolist() for key, t in tables.items()}
        scores = [
            tails[id(s.table)][s.row] if p is None else p
            for s, p in zip(summaries, scores)
        ]
    user_ids = [s.user_id for s in summaries]
    keep = keep_users(
        rule,
        np.array([s.map_eta for s in summaries], dtype=float),
        np.array([s.mean_eta for s in summaries], dtype=float),
        np.array(scores, dtype=float),
        np.arange(len(summaries)),
        user_ids,
    ).tolist()
    if isinstance(rule, TopFraction):
        # A user id that repeats is kept when one of its summaries ranks in.
        kept = set(compress(user_ids, keep))
        keep = [uid in kept for uid in user_ids]
    return [
        FilterDecision(s.user_id, k, rule, score)
        for s, k, score in zip(summaries, keep, scores)
    ]


def filter_mask(
    columns: AnnotationColumns, decisions: Sequence[FilterDecision]
) -> np.ndarray:
    """Boolean mask over records: true for the records of attentive users.

    Raises MissingDecisionError naming, in order of first appearance, every
    user with records but no decision.
    """
    attentive = {d.user_id for d in decisions if d.attentive}
    decided = {d.user_id for d in decisions}
    codes = columns.users
    undecided = np.array([uid not in decided for uid in columns.user_ids], dtype=bool)
    orphans = undecided[codes]
    if orphans.any():
        raise MissingDecisionError(
            [columns.user_ids[c] for c in first_seen(codes[orphans])]
        )
    keep = np.array([uid in attentive for uid in columns.user_ids], dtype=bool)
    return keep[codes]


def filter_dataset(
    records: Sequence[AnnotationRecord], decisions: Sequence[FilterDecision]
) -> FilteredDataset:
    """Keep records of attentive users, preserving input order."""
    records = list(records)
    columns = AnnotationColumns.from_records(records)
    mask = filter_mask(columns, decisions)
    return FilteredDataset(
        records=tuple(compress(records, mask.tolist())),
        kept_user_ids=tuple(columns.take(mask).user_order()),
    )


def recovery_accuracy(
    decisions: Sequence[FilterDecision],
    true_etas: Mapping[str, float] | Iterable[tuple[str, float]],
    quantile: float = 0.5,
    *,
    threshold: float | None = None,
) -> float:
    """Fraction of truly high-attentiveness users the rule kept.

    "Truly high" means true eta strictly above the threshold: either the
    empirical `quantile` of the true etas (default, median) or an explicit
    `threshold` such as an exact quantile of the generating distribution.
    A user id that repeats counts once, as kept when one of its decisions
    keeps it; the empirical quantile is taken over every decision's eta.
    See `recovery_of`.
    """
    eta_map = dict(true_etas.items() if isinstance(true_etas, Mapping) else true_etas)
    missing = [d.user_id for d in decisions if d.user_id not in eta_map]
    if missing:
        raise MissingDecisionError(missing)
    if threshold is None:
        threshold = _quantile(
            [eta_map[d.user_id] for d in decisions], check_quantile(quantile)
        )
    keep: dict[str, bool] = {}
    for d in decisions:
        keep[d.user_id] = keep.get(d.user_id, False) or bool(d.attentive)
    etas = np.array([eta_map[u] for u in keep])
    return recovery_of(etas, np.array(list(keep.values()), dtype=bool), threshold=threshold)


def recovery_of(true_etas: np.ndarray, keep: np.ndarray, quantile: float = 0.5, *,
                threshold: float | None = None) -> float:
    """`recovery_accuracy` of users given as arrays: one true eta and one
    decision per user."""
    if threshold is None:
        threshold = _quantile(true_etas, check_quantile(quantile))
    above = true_etas > threshold
    truly_above = np.count_nonzero(above)
    if not truly_above:
        raise ValueError("no user's true eta lies above the threshold")
    return np.count_nonzero(keep & above) / truly_above


def check_quantile(quantile: float) -> float:
    """`quantile` itself, when it is a finite real number in [0, 1]."""
    if not 0.0 <= _finite("quantile", quantile) <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    return quantile


def _quantile(values: Sequence[float], q: float) -> float:
    """`float(np.quantile(values, q))`, bit for bit, for finite values.

    numpy's default ("linear") method: sort, then interpolate between the
    two values around index (len - 1) * q with numpy's two-sided lerp.
    np.quantile itself loads numpy.ma, 10-17 ms (2-vCPU Xeon), on its
    first call.
    """
    x = np.sort(np.asarray(values, dtype=float))
    if math.isnan(x[-1]):  # np.sort puts NaN last; np.quantile returns NaN
        return math.nan
    last = len(x) - 1
    v = last * q
    i = min(math.floor(v), last)
    a, b = float(x[i]), float(x[min(i + 1, last)])
    t = v - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def relative_error(theta_hat: ModelParams, theta_star: ModelParams) -> float:
    """Worst-case relative parameter error against a reference.

    Max over scalar parameters of |est - true| / |true|; parameters whose
    true value is 0 contribute absolute error instead. mu enters only when
    it was estimated (mu_mode "free").
    """
    hat, star = theta_hat.prior, theta_star.prior
    if type(hat) is not type(star):
        raise ValueError("priors must come from the same family")
    if theta_hat.mu_mode != theta_star.mu_mode:
        raise ValueError("mu_mode must match")
    if family_of(star) is None:
        raise ValueError("relative_error supports two-point and Beta parameterizations")
    pairs = list(zip(astuple(hat), astuple(star)))
    if theta_star.mu_mode == "free":
        pairs.append((theta_hat.mu, theta_star.mu))
    return max(
        abs(est - true) / abs(true) if true != 0.0 else abs(est - true)
        for est, true in pairs
    )
