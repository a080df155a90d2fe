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
- converged fixed-mu Beta fits: a projected gradient of at most 1e-6
  (`score_norm` times the user count) and parameters within the fit's
  `tol_param` of the stationary point, rather than of the bits the code
  gave before the change (checked by `test_em.py`'s
  `test_fixed_mu_fit_stops_stationary_without_a_drop`);
- converged two-point parameters, which EM steps alone reach: within the
  fit's `tol_param` of those the code gave before the change;
- a row's posterior summary (`row_summary`): the mean and each tail
  probability absolute 1e-12; the MAP the same node, unless the row's two
  largest log densities lie within 1e-12 of each other;
- the mu step (`mu_argmax`): within 1e-10 of the argmax, and exactly on
  the end of the search interval when the maximum lies there;
- decisions: identical, except for users whose score lies within 1e-12 of
  the selection cut.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from prefqc import (
    AnnotationRecord,
    BoxOnMu,
    LogPriorOnMu,
    BetaPrior,
    FilteredDataset,
    FilterDecision,
    MissingDecisionError,
    ParseError,
    PosteriorSummary,
    QuadratureGrid,
    TailProbability,
    Threshold,
    TopFraction,
    TwoPointPrior,
    UserHistory,
    log_beta,
    log_sum_exp,
    loglik_from_counts,
    prior_log_masses,
)
from prefqc.em import MU_SEARCH_HI, MU_SEARCH_LO, PosteriorRows
from prefqc.io import encode_rule
from prefqc.model import ETA_DENSITY_CLIP
from prefqc.simulate import _id_width, sample_eta


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


def infer(annotations, params, rule, eta_stars, out_dir) -> None:
    """`prefqc infer`'s four files, one user at a time.

    Each user's own posterior gives its summary and score; `TopFraction`
    sorts every user by (-MAP, -mean, user_id). The two CSV reports go
    through csv.writer, a line per user.
    """
    out = Path(out_dir)
    records = read_annotations(annotations)
    histories = histories_from_records(records)
    summaries = [summarize_posterior(h, params, None, eta_stars) for h in histories]
    if isinstance(rule, TailProbability):
        scores = [tail_prob(posterior(h, params), rule.eta_star) for h in histories]
        keep = [p >= rule.level for p in scores]
    else:
        scores = [s.map_eta for s in summaries]
        keep = [p >= rule.value for p in scores] if isinstance(rule, Threshold) else None
    if isinstance(rule, TopFraction):
        ranked = sorted(summaries, key=lambda s: (-s.map_eta, -s.mean_eta, s.user_id))
        kept = {s.user_id for s in ranked[: math.ceil(rule.fraction * len(ranked))]}
        keep = [s.user_id in kept for s in summaries]
    header = ["user_id", "n_labels", "map_eta", "mean_eta"]
    _write_csv(
        out / "posteriors.csv",
        header + [f"tail_{float(s)!r}" for s in eta_stars],
        [
            [s.user_id, s.n_labels, repr(s.map_eta), repr(s.mean_eta)]
            + [repr(p) for _, p in s.tail_probs]
            for s in summaries
        ],
    )
    rule_json = json.dumps(encode_rule(rule), sort_keys=True)
    _write_csv(
        out / "decisions.csv",
        ["user_id", "attentive", "rule", "score"],
        [
            [s.user_id, "true" if k else "false", rule_json, repr(float(p))]
            for s, k, p in zip(summaries, keep, scores)
        ],
    )
    decisions = [
        FilterDecision(s.user_id, k, rule, p) for s, k, p in zip(summaries, keep, scores)
    ]
    filtered = filter_dataset(records, decisions)
    write_annotations(out / "filtered.jsonl", filtered.records)
    write_pairs(out / "pairs.jsonl", filtered.records)


def _write_csv(path, header, rows) -> None:
    """csv.writer's lines, each ended by a newline. A field that holds a bare
    carriage return is quoted, as by a writer that ends its lines with
    "\r\n", so that a csv reader reads it back."""
    lines = []
    for row in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8", newline="")


@dataclass(frozen=True)
class TwoPointPosterior:
    """One user's posterior over the two atoms of a two-point prior."""

    eta_lo: float
    eta_hi: float
    gamma_lo: float
    gamma_hi: float


@dataclass(frozen=True)
class GridPosterior:
    """One user's posterior on a quadrature grid."""

    nodes: np.ndarray
    masses: np.ndarray  # node probabilities, sum to 1
    density: np.ndarray  # masses / weights


def user_loglik(history, mu, eta) -> float:
    """Log-likelihood of one user's history at a single eta."""
    return float(loglik_from_counts(history.sum_z, history.n, mu, eta))


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


def posterior(history, params, grid=None):
    """One user's own posterior: over the two atoms, or on the grid."""
    if isinstance(params.prior, TwoPointPrior):
        gamma_lo, gamma_hi = posterior_two_point(history, params)
        return TwoPointPosterior(params.prior.eta_lo, params.prior.eta_hi, gamma_lo, gamma_hi)
    return posterior_grid(
        history, params, grid if grid is not None else QuadratureGrid.uniform()
    )


def summarize_posterior(history, params, grid=None, eta_stars=()) -> PosteriorSummary:
    """One user's posterior digest, from that user's own posterior.

    The summary's table is a one-row table holding that posterior, so a
    selection rule that evaluates a tail reads it from this user alone.
    """
    post = posterior(history, params, grid)
    if isinstance(post, TwoPointPosterior):
        table = PosteriorRows(
            np.array([post.eta_lo, post.eta_hi]), np.array([[post.gamma_lo, post.gamma_hi]])
        )
    else:
        table = PosteriorRows(post.nodes, post.masses[None], post.density[None])
    return PosteriorSummary(
        user_id=history.user_id,
        n_labels=history.n,
        map_eta=map_eta(post),
        mean_eta=mean_eta(post),
        tail_probs=tuple((float(s), tail_prob(post, float(s))) for s in eta_stars),
        table=table,
        row=0,
    )


# The per-object MAP, mean and tail formulas the library had before its row
# table; `posteriors.csv` and the decisions are pinned to their bits.


def map_eta(post) -> float:
    if isinstance(post, TwoPointPosterior):
        # Ties go to the attentive atom; keeps ranking deterministic.
        return post.eta_hi if post.gamma_hi >= post.gamma_lo else post.eta_lo
    return float(post.nodes[int(np.argmax(post.density))])


def mean_eta(post) -> float:
    if isinstance(post, TwoPointPosterior):
        return post.gamma_lo * post.eta_lo + post.gamma_hi * post.eta_hi
    return float(np.dot(post.masses, post.nodes))


def _tail_at_nodes(post) -> np.ndarray:
    f = post.density
    seg = 0.5 * np.diff(post.nodes) * (f[:-1] + f[1:])
    return np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])


def tail_prob(post, eta_star: float) -> float:
    """P(eta >= eta_star): a step function over two atoms, else the
    integral of the piecewise-linear posterior density."""
    if isinstance(post, TwoPointPosterior):
        p = 0.0
        if eta_star <= post.eta_lo:
            p += post.gamma_lo
        if eta_star <= post.eta_hi:
            p += post.gamma_hi
        return p
    if eta_star <= 0.0:
        return float(_tail_at_nodes(post)[0])
    if eta_star >= 1.0:
        return 0.0
    nodes, f = post.nodes, post.density
    cum = _tail_at_nodes(post)
    i = int(np.searchsorted(nodes, eta_star, side="right")) - 1
    t = (eta_star - nodes[i]) / (nodes[i + 1] - nodes[i])
    f_star = f[i] + t * (f[i + 1] - f[i])
    partial = 0.5 * (nodes[i + 1] - eta_star) * (f_star + f[i + 1])
    return float(cum[i + 1] + partial)


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


def penalized_loglik(rows, params, grid, regularizer) -> float:
    """Observed log-likelihood of Beta `rows` plus the mu log-prior, by fsum.

    `rows` is a list of (sum_z, n, count): the objective a free-mu fit under
    `regularizer` climbs.
    """
    pa, pb, _, _ = _mu_problem(regularizer)
    terms = [count * row_log_marginal(s, n, params, grid) for s, n, count in rows]
    return math.fsum(terms + [pa * math.log(params.mu), pb * math.log1p(-params.mu)])


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


def simulate_dataset(scenario):
    """One AnnotationRecord per label, built user by user; and the truth."""
    m = scenario.num_users
    n_min, n_max = scenario.n_range
    children = np.random.SeedSequence(scenario.seed).spawn(m + 1)
    master = np.random.default_rng(children[0])
    etas = sample_eta(scenario.prior, m, master)
    label_counts = master.integers(n_min, n_max + 1, size=m)

    user_width = _id_width(m)
    item_width = _id_width(n_max)
    records = []
    truth = []
    for j in range(m):
        user_id = f"u{j:0{user_width}d}"
        n_j = int(label_counts[j])
        rng = np.random.default_rng(children[j + 1])
        if scenario.per_item_p_model is None:
            p = np.full(n_j, scenario.mu)
        else:
            p = rng.beta(
                scenario.per_item_p_model.alpha,
                scenario.per_item_p_model.beta,
                n_j,
            )
        attentive = rng.random(n_j) < etas[j]
        u = rng.random(n_j)
        labels = np.where(attentive, u < p, u < 0.5)
        records.extend(
            AnnotationRecord(
                user_id=user_id,
                item_id=f"{user_id}-{i:0{item_width}d}",
                label=int(labels[i]),
            )
            for i in range(n_j)
        )
        truth.append((user_id, float(etas[j])))
    return records, truth


def _mu_problem(regularizer):
    """(pa, pb, lo, hi): log-prior pa log mu + pb log(1 - mu) on [lo, hi]."""
    lo, hi = MU_SEARCH_LO, MU_SEARCH_HI
    if isinstance(regularizer, BoxOnMu):
        return 0.0, 0.0, max(lo, regularizer.lo), min(hi, regularizer.hi)
    if isinstance(regularizer, LogPriorOnMu):
        return regularizer.a - 1.0, regularizer.b - 1.0, lo, hi
    return 0.0, 0.0, lo, hi


def mu_objective(mu, support, wins, losses, regularizer) -> float:
    """Expected log-likelihood in mu plus the log-prior, summed with fsum."""
    pa, pb, _, _ = _mu_problem(regularizer)
    terms = [pa * math.log(mu), pb * math.log1p(-mu)]
    for s, w, l in zip(support, wins, losses):
        g = 0.5 + s * (mu - 0.5)
        terms += [w * math.log(g), l * math.log1p(-g)]
    return math.fsum(terms)


def mu_derivative(mu, support, wins, losses, regularizer) -> float:
    """d/dmu of `mu_objective`, summed with fsum."""
    pa, pb, _, _ = _mu_problem(regularizer)
    terms = [pa / mu, -pb / (1.0 - mu)]
    for s, w, l in zip(support, wins, losses):
        g = 0.5 + s * (mu - 0.5)
        terms += [s * w / g, -s * l / (1.0 - g)]
    return math.fsum(terms)


def mu_argmax(support, wins, losses, regularizer):
    """(mu, at_boundary): bisection on the fsum derivative to 1e-14.

    The objective is concave for the regularizers tested, so the derivative's
    sign at the ends decides when the maximum is an end of the interval.
    """
    _, _, lo, hi = _mu_problem(regularizer)
    args = ([float(v) for v in support], [float(v) for v in wins],
            [float(v) for v in losses], regularizer)
    if mu_derivative(lo, *args) <= 0.0:
        return lo, True
    if mu_derivative(hi, *args) >= 0.0:
        return hi, True
    a, b = lo, hi
    while b - a > 1e-14:
        mid = 0.5 * (a + b)
        if mu_derivative(mid, *args) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), False


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_mu(support, wins, losses, regularizer, xtol=1e-7):
    """The golden-section mu step the library used before its Newton method.

    Returns (mu, at_boundary): the search to xtol, then a snap to an end of
    the interval that scores at least as well.
    """
    pa, pb, lo, hi = _mu_problem(regularizer)

    def f(mu):
        g = 0.5 + support * (mu - 0.5)
        val = float(np.dot(wins, np.log(g)) + np.dot(losses, np.log1p(-g)))
        if pa or pb:
            val += pa * math.log(mu) + pb * math.log1p(-mu)
        return val

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
    for bound in (lo, hi):
        fb = f(bound)
        if fb >= fx:
            x, fx, at_boundary = bound, fb, True
    return x, at_boundary


def row_summary(sum_z, n, params, grid, eta_stars):
    """(map_eta, mean_eta, tails, map_gap) of one row's posterior.

    Masses are normalised by an fsum over the support; the mean and each
    tail are fsums too. Grid rows take the MAP over the density (masses over
    trapezoid weights) and their tails from its piecewise-linear
    interpolant; two-point rows put ties on the high atom and their tails
    are step functions. `map_gap` is the distance between the two largest
    log densities, so a caller can tell a near-tie.
    """
    if isinstance(params.prior, TwoPointPrior):
        support = [params.prior.eta_lo, params.prior.eta_hi]
        terms = log_density = _two_point_atom_terms(sum_z, n, params)
    else:
        support = grid.nodes.tolist()
        terms = _beta_node_terms(sum_z, n, params, grid)
        log_density = [t - math.log(w) for t, w in zip(terms, grid.weights.tolist())]
    top = max(terms)
    norm = top + math.log(math.fsum(math.exp(t - top) for t in terms))
    masses = [math.exp(t - norm) for t in terms]
    total = math.fsum(masses)
    masses = [q / total for q in masses]
    mean = math.fsum(q * e for q, e in zip(masses, support))
    ranked = sorted(log_density)
    map_gap = ranked[-1] - ranked[-2]
    if isinstance(params.prior, TwoPointPrior):
        best = 1 if log_density[1] >= log_density[0] else 0
        tails = tuple(
            (s, math.fsum(q for q, e in zip(masses, support) if s <= e))
            for s in eta_stars
        )
        return support[best], mean, tails, map_gap
    best = max(range(len(support)), key=log_density.__getitem__)
    density = [q / w for q, w in zip(masses, grid.weights.tolist())]
    tails = tuple((s, _grid_tail(support, density, s)) for s in eta_stars)
    return support[best], mean, tails, map_gap


def _grid_tail(nodes, density, eta_star) -> float:
    """P(eta >= eta_star) of the piecewise-linear density, as an fsum."""
    if eta_star >= 1.0:
        return 0.0
    parts = []
    for k in range(len(nodes) - 1):
        x0, x1, f0, f1 = nodes[k], nodes[k + 1], density[k], density[k + 1]
        if x1 <= eta_star:
            continue
        if x0 < eta_star:
            f_star = f0 + (eta_star - x0) / (x1 - x0) * (f1 - f0)
            x0, f0 = eta_star, f_star
        parts.append(0.5 * (x1 - x0) * (f0 + f1))
    return math.fsum(parts)
