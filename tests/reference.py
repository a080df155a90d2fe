"""Slow, obviously correct reference implementations for tests to compare against.

Each function here is a plain per-record loop with the behaviour the
library's optimised code must reproduce exactly: the same values, the same
output bytes, the same error type, message and line number. Tests compare
the two on generated inputs; the library never imports this module.

The E-step references (`row_log_marginal` and `beta_em_moments` for the
grid, `two_point_em_step` for two atoms) are the exception: they loop per
row and per support point in Python floats and sum with `math.fsum`, and
the library's E-step must agree with them within this tolerance contract,
which every change that moves output bits is judged by:

- a row's observed log marginal, on the grid or over two atoms:
  relative 1e-12;
- the Beta M-step moments r1 = E[log eta] and r2 = E[log(1 - eta)],
  averaged over users: absolute 1e-12;
- the expected wins and losses per node that the mu step maximizes over:
  absolute 1e-12 times the total number of labels;
- the expected users, wins and losses per two-point atom: absolute 1e-12
  times the total number of labels;
- the two-point parameters one EM step gives (q1, eta_lo, eta_hi):
  absolute 1e-12;
- converged fixed-mu parameters: within the fit's `tol_param` of those
  the code gave before the change;
- decisions: identical, except for users whose score lies within 1e-12 of
  the selection cut.
"""

import json
import math
from pathlib import Path

import numpy as np

from prefqc import (
    AnnotationRecord,
    BetaPrior,
    FilteredDataset,
    GridPosterior,
    MissingDecisionError,
    ParseError,
    PosteriorSummary,
    QuadratureGrid,
    TwoPointPosterior,
    TwoPointPrior,
    UserHistory,
    log_beta,
    log_sum_exp,
    loglik_from_counts,
    prior_log_masses,
    user_loglik,
)
from prefqc.model import ETA_DENSITY_CLIP


def _id_error(path, line_no, obj):
    keys = ("user_id", "item_id")
    if any(obj[key] is None for key in keys):
        return ParseError(path, line_no, "bad record: null user_id or item_id")
    key = next(key for key in keys if type(obj[key]) is not str)
    got = json.dumps(obj[key])
    return ParseError(path, line_no, f"bad record: {key} must be a JSON string, got {got}")


def read_annotations(path) -> list[AnnotationRecord]:
    """One json.loads per stripped non-blank line, then the record checks."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"invalid JSON ({exc.msg})") from None
            try:
                user_id, item_id, label = obj["user_id"], obj["item_id"], obj["label"]
            except (KeyError, TypeError) as exc:
                raise ParseError(path, line_no, f"bad record: {exc}") from None
            if type(user_id) is not str or type(item_id) is not str:
                raise _id_error(path, line_no, obj)
            if type(label) is not int or label not in (0, 1):
                got = json.dumps(label)
                raise ParseError(
                    path, line_no, f"bad record: label must be the integer 0 or 1, got {got}"
                )
            records.append(AnnotationRecord(user_id, item_id, label))
    return records


def histories_from_records(records) -> list[UserHistory]:
    """First-seen user order; raises at the first record repeating a pair."""
    seen = set()
    labels: dict = {}
    for rec in records:
        key = (rec.user_id, rec.item_id)
        if key in seen:
            raise ValueError(f"duplicate (user_id, item_id): {key!r}")
        seen.add(key)
        labels.setdefault(rec.user_id, []).append(rec.label)
    return [UserHistory.from_labels(uid, zs) for uid, zs in labels.items()]


def filter_dataset(records, decisions) -> FilteredDataset:
    """Records of attentive users in input order; every user needs a decision."""
    attentive = {d.user_id for d in decisions if d.attentive}
    decided = {d.user_id for d in decisions}
    orphans: list = []
    kept = []
    kept_users: list = []
    for rec in records:
        if rec.user_id not in decided:
            if rec.user_id not in orphans:
                orphans.append(rec.user_id)
            continue
        if rec.user_id in attentive:
            kept.append(rec)
            if rec.user_id not in kept_users:
                kept_users.append(rec.user_id)
    if orphans:
        raise MissingDecisionError(orphans)
    return FilteredDataset(records=tuple(kept), kept_user_ids=tuple(kept_users))


def _write_jsonl(path, objects) -> None:
    text = "".join(json.dumps(obj) + "\n" for obj in objects)
    Path(path).write_text(text, encoding="utf-8")


def write_annotations(path, records) -> None:
    _write_jsonl(
        path,
        ({"user_id": r.user_id, "item_id": r.item_id, "label": r.label} for r in records),
    )


def write_pairs(path, records) -> None:
    _write_jsonl(
        path,
        ({"item_id": r.item_id, "chosen": "A" if r.label == 1 else "B"} for r in records),
    )


def posterior_two_point(history, params) -> tuple[float, float]:
    """One user's atom responsibilities, one scalar log-sum-exp."""
    prior = params.prior
    l_lo = math.log(prior.q1) if prior.q1 > 0.0 else -math.inf
    l_hi = math.log(prior.q2) if prior.q2 > 0.0 else -math.inf
    l_lo += user_loglik(history, params.mu, prior.eta_lo)
    l_hi += user_loglik(history, params.mu, prior.eta_hi)
    norm = np.logaddexp(l_lo, l_hi)
    gamma_lo = float(np.exp(l_lo - norm))
    return gamma_lo, 1.0 - gamma_lo


def posterior_grid(history, params, grid) -> GridPosterior:
    """One user's grid posterior, normalised by a scalar log-sum-exp."""
    support, log_mass = prior_log_masses(params.prior, grid)
    logpost = log_mass + loglik_from_counts(history.sum_z, history.n, params.mu, support)
    norm = log_sum_exp(logpost)
    if not math.isfinite(norm):
        raise FloatingPointError("marginal likelihood underflowed to zero")
    masses = np.exp(logpost - norm)
    masses = masses / masses.sum()
    return GridPosterior(nodes=grid.nodes, masses=masses, density=masses / grid.weights)


def summarize_posterior(history, params, grid=None, eta_stars=()) -> PosteriorSummary:
    """One user's posterior digest, from that user's own posterior."""
    if isinstance(params.prior, TwoPointPrior):
        gamma_lo, gamma_hi = posterior_two_point(history, params)
        density = TwoPointPosterior(
            params.prior.eta_lo, params.prior.eta_hi, gamma_lo, gamma_hi
        )
    else:
        density = posterior_grid(
            history, params, grid if grid is not None else QuadratureGrid.uniform()
        )
    return PosteriorSummary(
        user_id=history.user_id,
        n_labels=history.n,
        map_eta=density.map_eta,
        mean_eta=density.mean_eta,
        tail_probs=tuple((float(s), density.tail_prob(float(s))) for s in eta_stars),
        density=density,
    )


def _beta_node_terms(sum_z, n, params, grid) -> list[float]:
    """log(weight * density) + log-likelihood of one row at each grid node."""
    prior: BetaPrior = params.prior
    a, b, mu = prior.alpha, prior.beta, params.mu
    lb = log_beta(a, b)
    clip = ETA_DENSITY_CLIP
    terms = []
    for eta, weight in zip(grid.nodes.tolist(), grid.weights.tolist()):
        e = min(max(eta, clip), 1.0 - clip)
        log_density = (a - 1.0) * math.log(e) + (b - 1.0) * math.log1p(-e) - lb
        g = 0.5 + eta * (mu - 0.5)
        loglik = sum_z * math.log(g) + (n - sum_z) * math.log1p(-g)
        terms.append(math.log(weight) + log_density + loglik)
    return terms


def row_log_marginal(sum_z, n, params, grid) -> float:
    """log of the trapezoid sum of prior times likelihood for one Beta row."""
    terms = _beta_node_terms(sum_z, n, params, grid)
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def beta_em_moments(rows, params, grid):
    """The inputs one Beta EM step takes from the posteriors of `rows`.

    `rows` is a list of (sum_z, n, count). Returns (r1, r2, wins, losses):
    the user-averaged posterior E[log eta] and E[log(1 - eta)], and per grid
    node the expected count of labels of 1 and of 0.
    """
    clip = ETA_DENSITY_CLIP
    nodes = [min(max(e, clip), 1.0 - clip) for e in grid.nodes.tolist()]
    users = math.fsum(count for _, _, count in rows)
    r1_terms, r2_terms = [], []
    wins = [[] for _ in nodes]
    losses = [[] for _ in nodes]
    for sum_z, n, count in rows:
        terms = _beta_node_terms(sum_z, n, params, grid)
        norm = row_log_marginal(sum_z, n, params, grid)
        for k, (t, e) in enumerate(zip(terms, nodes)):
            q = count * math.exp(t - norm)
            r1_terms.append(q * math.log(e))
            r2_terms.append(q * math.log1p(-e))
            wins[k].append(q * sum_z)
            losses[k].append(q * (n - sum_z))
    return (
        math.fsum(r1_terms) / users,
        math.fsum(r2_terms) / users,
        [math.fsum(v) for v in wins],
        [math.fsum(v) for v in losses],
    )


def _two_point_atom_terms(sum_z, n, params) -> list[float]:
    """log(mass) + log-likelihood of one row at each atom with positive mass."""
    prior: TwoPointPrior = params.prior
    terms = []
    for mass, eta in ((prior.q1, prior.eta_lo), (prior.q2, prior.eta_hi)):
        g = 0.5 + eta * (params.mu - 0.5)
        loglik = sum_z * math.log(g) + (n - sum_z) * math.log1p(-g)
        terms.append(math.log(mass) + loglik if mass > 0.0 else -math.inf)
    return terms


def two_point_em_step(rows, params):
    """One two-point EM step at fixed mu over `rows` of (sum_z, n, count).

    Returns (per_row, users, wins, losses, prior): each row's log marginal
    over the two atoms; per atom the expected count of users, of labels of 1
    and of labels of 0; and the closed-form update as a TwoPointPrior, each
    eta = (wins - losses) / ((2 mu - 1)(wins + losses)) clipped to [0, 1],
    the atoms put in order with q1 following the low one.
    """
    per_row = []
    users, wins, losses = ([], []), ([], []), ([], [])
    for sum_z, n, count in rows:
        terms = _two_point_atom_terms(sum_z, n, params)
        top = max(terms)
        norm = top + math.log(math.fsum(math.exp(t - top) for t in terms))
        per_row.append(norm)
        for k, t in enumerate(terms):
            q = count * math.exp(t - norm)
            users[k].append(q)
            wins[k].append(q * sum_z)
            losses[k].append(q * (n - sum_z))
    users, wins, losses = (
        [math.fsum(v) for v in totals] for totals in (users, wins, losses)
    )
    etas = [
        min(max((w - l) / ((2.0 * params.mu - 1.0) * (w + l)), 0.0), 1.0)
        for w, l in zip(wins, losses)
    ]
    q1 = users[0] / math.fsum(count for _, _, count in rows)
    if etas[0] > etas[1]:
        etas, q1 = etas[::-1], 1.0 - q1
    return per_row, users, wins, losses, TwoPointPrior(q1, *etas)
