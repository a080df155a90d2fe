"""Posterior summaries and dataset filtering.

Given a fitted model, the users' posteriors over eta form one row table
(`em.PosteriorRows`) with a row per distinct sufficient statistic
(sum_z, n). Its MAP, mean and tails are evaluated once per row, as arrays,
and spread to the users that share the row; a selection rule turns them
into keep/drop decisions; filtering a dataset keeps the records of
attentive users in their original order. Everything here is a pure
transformation, deterministic down to tie-breaking, so a filtered dataset
can be reproduced byte for byte.
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


def summarize_histories(
    histories: Sequence[UserHistory],
    params: ModelParams,
    grid: QuadratureGrid | None = None,
    eta_stars: Iterable[float] = (),
) -> list[PosteriorSummary]:
    """Posterior digests of many users under fitted parameters, input order.

    Two-point priors get the exact two-mass posterior; continuous priors a
    grid posterior (default 1025-node trapezoid grid). `posterior_rows`
    gives one table of the distinct (sum_z, n) rows; its MAP, mean and each
    tail are evaluated once over the table and spread to the users of each
    row. Every summary holds that table and its user's row in it. Every
    `eta_stars` entry must be a finite real number, and no two equal.
    """
    grid = grid if grid is not None else QuadratureGrid.uniform()
    stars = [_finite("eta_stars entry", s) for s in eta_stars]
    for k, s in enumerate(stars):
        if s in stars[:k]:
            raise ValueError(f"eta_stars repeats {s!r}")
    sum_z_u, n_u, _, inverse = suff_stats(histories)
    table = posterior_rows(sum_z_u, n_u, params, grid)
    maps, means = table.map_eta().tolist(), table.mean_eta().tolist()
    # One tuple of (eta_star, tail) pairs per row.
    tails = zip(*[[(s, p) for p in table.tail(s).tolist()] for s in stars])
    tails = tails if stars else [()] * len(maps)
    rows = list(zip(maps, means, tails))
    return [
        PosteriorSummary(h.user_id, h.n, *rows[r], table, r)
        for h, r in zip(histories, inverse.tolist())
    ]


def summarize_posterior(
    history: UserHistory,
    params: ModelParams,
    grid: QuadratureGrid | None = None,
    eta_stars: Iterable[float] = (),
) -> PosteriorSummary:
    """Posterior digest of one user; see `summarize_histories`."""
    return summarize_histories([history], params, grid, eta_stars)[0]


def select_users(
    summaries: Sequence[PosteriorSummary], rule: SelectionRule
) -> list[FilterDecision]:
    """Apply a selection rule; one decision per summary, input order kept.

    A tail rule reads its tail from each summary's `tail_probs` when it
    holds the rule's eta_star; otherwise it evaluates the tail once per
    distinct row table (one for a `summarize_histories` result) and reads
    each summary's row.
    """
    if not summaries:
        raise ValueError("select_users needs at least one summary")
    scores = [s.map_eta for s in summaries]
    if isinstance(rule, TopFraction):
        keep_count = math.ceil(rule.fraction * len(summaries))
        ranked = sorted(
            summaries, key=lambda s: (-s.map_eta, -s.mean_eta, s.user_id)
        )
        kept = {s.user_id for s in ranked[:keep_count]}
        keep = [s.user_id in kept for s in summaries]
    elif isinstance(rule, Threshold):
        keep = [score >= rule.value for score in scores]
    elif isinstance(rule, TailProbability):
        # A tail that summarize_histories evaluated is read, not recomputed.
        scores = [dict(s.tail_probs).get(rule.eta_star) for s in summaries]
        tables = {id(s.table): s.table for s, p in zip(summaries, scores) if p is None}
        tails = {key: t.tail(rule.eta_star).tolist() for key, t in tables.items()}
        scores = [
            tails[id(s.table)][s.row] if p is None else p
            for s, p in zip(summaries, scores)
        ]
        keep = [score >= rule.level for score in scores]
    else:
        raise TypeError(f"unknown selection rule {rule!r}")
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
    """
    eta_map = dict(true_etas.items() if isinstance(true_etas, Mapping) else true_etas)
    missing = [d.user_id for d in decisions if d.user_id not in eta_map]
    if missing:
        raise MissingDecisionError(missing)
    if threshold is None:
        if not 0.0 <= _finite("quantile", quantile) <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        threshold = _quantile([eta_map[d.user_id] for d in decisions], quantile)
    truly_above = {d.user_id for d in decisions if eta_map[d.user_id] > threshold}
    if not truly_above:
        raise ValueError("no user's true eta lies above the threshold")
    kept = {d.user_id for d in decisions if d.attentive}
    return len(kept & truly_above) / len(truly_above)


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
