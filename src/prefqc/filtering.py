"""Posterior summaries and dataset filtering.

Given a fitted model, each user gets a posterior over eta, computed once per
distinct sufficient statistic (sum_z, n) and shared by the users that have
it; a selection rule turns those posteriors into keep/drop decisions;
filtering a dataset keeps the records of attentive users in their original
order. Everything here is
a pure transformation, deterministic down to tie-breaking, so a filtered
dataset can be reproduced byte for byte.
"""

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .em import PosteriorDensity, posterior_rows
from .model import (
    AnnotationColumns,
    AnnotationRecord,
    ModelParams,
    TwoPointPrior,
    UserHistory,
    first_seen,
    suff_stats,
)
from .numerics import QuadratureGrid


@dataclass(frozen=True)
class PosteriorSummary:
    """Per-user posterior digest: point estimates plus tail evaluations."""

    user_id: str
    n_labels: int
    map_eta: float
    mean_eta: float
    tail_probs: tuple[tuple[float, float], ...]  # (eta_star, P(eta >= eta_star))
    density: PosteriorDensity  # shared by every user with the same (sum_z, n)

    def tail_prob(self, eta_star: float) -> float:
        return self.density.tail_prob(eta_star)


@dataclass(frozen=True)
class TopFraction:
    """Keep the ceil(fraction * m) users with the highest MAP eta."""

    fraction: float

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")


@dataclass(frozen=True)
class Threshold:
    """Keep users whose MAP eta is at least `value`."""

    value: float


@dataclass(frozen=True)
class TailProbability:
    """Keep users with P(eta >= eta_star) >= level."""

    eta_star: float
    level: float = 0.95

    def __post_init__(self):
        if not 0.0 <= self.level <= 1.0:
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
    grid posterior (default 1025-node trapezoid grid). The posterior, MAP,
    mean and tails are computed once per distinct (sum_z, n) row.
    """
    grid = grid if grid is not None else QuadratureGrid.uniform()
    stars = [float(s) for s in eta_stars]
    sum_z_u, n_u, _, inverse = suff_stats(histories)
    rows = [
        (p.map_eta, p.mean_eta, tuple((s, p.tail_prob(s)) for s in stars), p)
        for p in posterior_rows(sum_z_u, n_u, params, grid)
    ]
    return [
        PosteriorSummary(h.user_id, h.n, *rows[r])
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


def classify_attentive(
    summary: PosteriorSummary, eta_star: float, level: float = 0.95
) -> bool:
    """Attentive when at least `level` posterior mass sits at or above eta_star."""
    return summary.tail_prob(eta_star) >= level


def select_users(
    summaries: Sequence[PosteriorSummary], rule: SelectionRule
) -> list[FilterDecision]:
    """Apply a selection rule; one decision per summary, input order kept."""
    if not summaries:
        raise ValueError("select_users needs at least one summary")
    if isinstance(rule, TopFraction):
        keep_count = math.ceil(rule.fraction * len(summaries))
        ranked = sorted(
            summaries, key=lambda s: (-s.map_eta, -s.mean_eta, s.user_id)
        )
        kept = {s.user_id for s in ranked[:keep_count]}
        return [
            FilterDecision(s.user_id, s.user_id in kept, rule, s.map_eta)
            for s in summaries
        ]
    if isinstance(rule, Threshold):
        return [
            FilterDecision(s.user_id, s.map_eta >= rule.value, rule, s.map_eta)
            for s in summaries
        ]
    if isinstance(rule, TailProbability):
        decisions = []
        for s in summaries:
            tail = s.tail_prob(rule.eta_star)
            decisions.append(
                FilterDecision(s.user_id, tail >= rule.level, rule, tail)
            )
        return decisions
    raise TypeError(f"unknown selection rule {rule!r}")


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
        if not 0.0 <= quantile <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        threshold = float(np.quantile([eta_map[d.user_id] for d in decisions], quantile))
    truly_above = {d.user_id for d in decisions if eta_map[d.user_id] > threshold}
    if not truly_above:
        raise ValueError("no user's true eta lies above the threshold")
    kept = {d.user_id for d in decisions if d.attentive}
    return len(kept & truly_above) / len(truly_above)


def relative_error(theta_hat: ModelParams, theta_star: ModelParams) -> float:
    """Worst-case relative parameter error against a reference.

    Max over scalar parameters of |est - true| / |true|; parameters whose
    true value is 0 contribute absolute error instead. mu enters only when
    it was estimated (mu_mode "free").
    """
    if type(theta_hat.prior) is not type(theta_star.prior):
        raise ValueError("priors must come from the same family")
    if theta_hat.mu_mode != theta_star.mu_mode:
        raise ValueError("mu_mode must match")
    if isinstance(theta_star.prior, TwoPointPrior):
        pairs = [
            (theta_hat.prior.q1, theta_star.prior.q1),
            (theta_hat.prior.eta_lo, theta_star.prior.eta_lo),
            (theta_hat.prior.eta_hi, theta_star.prior.eta_hi),
        ]
    else:
        try:
            pairs = [
                (theta_hat.prior.alpha, theta_star.prior.alpha),
                (theta_hat.prior.beta, theta_star.prior.beta),
            ]
        except AttributeError:
            raise ValueError(
                "relative_error supports two-point and Beta parameterizations"
            ) from None
    if theta_star.mu_mode == "free":
        pairs.append((theta_hat.mu, theta_star.mu))
    return max(
        abs(est - true) / abs(true) if true != 0.0 else abs(est - true)
        for est, true in pairs
    )
