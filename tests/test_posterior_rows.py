"""Row posteriors against the per-user reference, compared with ==.

`summarize_histories` builds one posterior per distinct (sum_z, n) row and
shares it among the users that have that row. Every MAP, mean and tail it
reports must equal, bit for bit, what `tests/reference.py` computes for
each user on its own: `posteriors.csv` and the filter decisions are pinned
to those bits. The same summaries are also held to `reference.row_summary`,
which normalises each row's masses with `math.fsum`, within the tolerance
contract of `tests/reference.py`: the mean and each tail probability to
1e-12 absolute, and the MAP to the same node unless the row's two largest
log densities lie within 1e-12 of each other. `select_users` over the row
summaries must decide as it does over the per-user ones, and evaluate each
tail once per star and row table.
"""

import dataclasses

import numpy as np
import pytest

from prefqc import (
    BetaPrior,
    ModelParams,
    TailProbability,
    Threshold,
    TopFraction,
    TwoPointPrior,
    UserHistory,
    select_users,
    summarize_histories,
    summarize_posterior,
)
from prefqc.em import PosteriorRows, posterior_rows
from prefqc.model import suff_stats

import reference as ref

ETA_STARS = (0.0, 0.1, 0.3641160864480826, 0.5, 0.75, 0.9, 1.0)

BETA_PARAMS = [(3.0, 5.0, 0.8), (1.5, 1.2, 0.6), (8.0, 2.0, 0.95), (2.0, 2.0, 0.7)]

# (alpha, beta, mu, sum_z, n) rows whose posterior masses move in the last
# bit when the normaliser log(sum exp(joint - peak)) is taken with np.log
# instead of math.log. Found by an exhaustive search over every row with
# n <= 300 under 46 parameter sets: about one row in 400,000 is such a case,
# too few for random rows to find.
NORMALISER_SENSITIVE = [
    (8.0, 2.0, 0.95, 1, 36),
    (1.5, 9.34, 0.776, 249, 267),
    (3.4, 4.03, 0.865, 214, 258),
    (1.26, 4.03, 0.727, 11, 37),
    (1.99, 3.98, 0.871, 100, 114),
]

TWO_POINT_PARAMS = [
    (0.6, 0.4, 0.98, 0.8),
    (0.3, 0.0, 0.7, 0.6),
    (0.5, 0.2, 0.9, 0.9),
    (0.85, 0.1, 0.5, 0.75),
]


def random_histories(rng, count, max_n):
    n = rng.integers(0, max_n + 1, size=count)
    sum_z = rng.integers(0, n + 1)
    return [
        UserHistory(f"u{i}", s, k)
        for i, (s, k) in enumerate(zip(sum_z.tolist(), n.tolist()))
    ]


def assert_summaries_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.user_id, g.n_labels) == (w.user_id, w.n_labels)
        assert g.map_eta == w.map_eta, g.user_id
        assert g.mean_eta == w.mean_eta, g.user_id
        assert g.tail_probs == w.tail_probs, g.user_id


@pytest.mark.parametrize("alpha,beta,mu", BETA_PARAMS)
def test_beta_rows_equal_per_user_reference(alpha, beta, mu, grid, rng):
    params = ModelParams(prior=BetaPrior(alpha, beta), mu=mu)
    histories = random_histories(rng, 2600, 300)
    got = summarize_histories(histories, params, grid, ETA_STARS)
    want = [ref.summarize_posterior(h, params, grid, ETA_STARS) for h in histories]
    assert_summaries_equal(got, want)


def test_normaliser_sensitive_rows_equal_reference(grid):
    for alpha, beta, mu, sum_z, n in NORMALISER_SENSITIVE:
        params = ModelParams(prior=BetaPrior(alpha, beta), mu=mu)
        # Padded with other rows so the sensitive one sits inside a matrix.
        histories = [
            UserHistory("pad0", 0, 0),
            UserHistory("u", sum_z, n),
            UserHistory("pad1", n, n),
        ]
        got = summarize_histories(histories, params, grid, ETA_STARS)
        want = [ref.summarize_posterior(h, params, grid, ETA_STARS) for h in histories]
        assert_summaries_equal(got, want)


@pytest.mark.parametrize("q1,eta_lo,eta_hi,mu", TWO_POINT_PARAMS)
def test_two_point_rows_equal_per_user_reference(q1, eta_lo, eta_hi, mu, grid, rng):
    params = ModelParams(prior=TwoPointPrior(q1, eta_lo, eta_hi), mu=mu)
    histories = random_histories(rng, 2000, 40)
    got = summarize_histories(histories, params, grid, ETA_STARS)
    want = [ref.summarize_posterior(h, params, grid, ETA_STARS) for h in histories]
    # Short histories leave both atoms with mass: the case where the
    # responsibilities' last bits depend on how they are computed.
    gammas = [ref.posterior_two_point(h, params) for h in histories]
    interior = [g for g, _ in gammas if 1e-9 < g < 1.0 - 1e-9]
    assert len(interior) > len(want) // 2
    assert_summaries_equal(got, want)
    for g, w in zip(got, gammas):
        assert tuple(g.table.masses[g.row].tolist()) == w


@pytest.mark.parametrize(
    "prior", [BetaPrior(3.0, 5.0), TwoPointPrior(0.6, 0.4, 0.98)], ids=["beta", "two_point"]
)
def test_each_summary_row_holds_its_users_reference_posterior(prior, grid, rng):
    params = ModelParams(prior=prior, mu=0.8)
    histories = random_histories(rng, 300, 40)
    summaries = summarize_histories(histories, params, grid)
    for s, h in zip(summaries, histories):
        want = ref.posterior(h, params, grid)
        if isinstance(want, ref.TwoPointPosterior):
            assert s.table.masses[s.row].tolist() == [want.gamma_lo, want.gamma_hi]
        else:
            assert np.array_equal(s.table.masses[s.row], want.masses)
            assert np.array_equal(s.table.density[s.row], want.density)


def test_one_row_tables_equal_reference(grid, rng):
    beta = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
    two_point = ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8)
    for h in random_histories(rng, 50, 300):
        got = posterior_rows(*suff_stats([h])[:2], beta, grid)
        want = ref.posterior_grid(h, beta, grid)
        assert np.array_equal(got.masses[0], want.masses)
        assert np.array_equal(got.density[0], want.density)
        got = posterior_rows(*suff_stats([h])[:2], two_point, None)
        assert tuple(got.masses[0].tolist()) == ref.posterior_two_point(h, two_point)
        assert_summaries_equal(
            [summarize_posterior(h, beta, grid, ETA_STARS)],
            [ref.summarize_posterior(h, beta, grid, ETA_STARS)],
        )


@pytest.mark.parametrize(
    "prior", [BetaPrior(3.0, 5.0), TwoPointPrior(0.6, 0.4, 0.98)], ids=["beta", "two_point"]
)
def test_summaries_share_one_table_with_a_row_per_pair(prior, grid):
    params = ModelParams(prior=prior, mu=0.8)
    histories = [
        UserHistory("a", 3, 10),
        UserHistory("b", 7, 10),
        UserHistory("c", 3, 10),
        UserHistory("d", 0, 0),
        UserHistory("e", 7, 10),
    ]
    summaries = summarize_histories(histories, params, grid)
    assert [s.user_id for s in summaries] == ["a", "b", "c", "d", "e"]
    table = summaries[0].table
    assert all(s.table is table for s in summaries)
    assert table.masses.shape[0] == 3
    # Rows come in (sum_z, n) order: (0, 0), (3, 10), (7, 10).
    assert [s.row for s in summaries] == [1, 2, 1, 0, 2]


def test_posterior_rows_is_one_table(grid):
    params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
    sum_z_u, n_u, _, _ = suff_stats([UserHistory(f"u{k}", k, 20) for k in range(21)])
    table = posterior_rows(sum_z_u, n_u, params, grid)
    assert table.support is grid.nodes
    assert table.masses.shape == table.density.shape == (21, grid.size)
    assert np.allclose(table.masses.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.array_equal(table.density, table.masses / grid.weights)
    two_point = ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8)
    table = posterior_rows(sum_z_u, n_u, two_point, None)
    assert table.support.tolist() == [0.4, 0.98] and table.density is None
    assert table.masses.shape == (21, 2)
    assert np.all(table.masses.sum(axis=1) == 1.0)


RULES = [
    TopFraction(0.3),
    TopFraction(0.5),
    Threshold(0.3641160864480826),
    TailProbability(0.5, level=0.5),
    TailProbability(0.42, level=0.6),  # a star that is not among ETA_STARS
]


def decision_rows(decisions):
    return [(d.user_id, d.attentive, d.score) for d in decisions]


@pytest.mark.parametrize("rule", RULES, ids=repr)
@pytest.mark.parametrize(
    "params",
    [
        ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8),
        ModelParams(prior=TwoPointPrior(0.6, 0.4, 0.98), mu=0.8),
    ],
    ids=["beta", "two_point"],
)
def test_selection_over_rows_equals_per_user_reference(params, rule, grid, rng):
    # Short histories share rows, so many users tie on MAP and mean; the
    # three "t" users share one row and sort against the input order.
    histories = random_histories(rng, 400, 12)
    histories += [UserHistory(f"t{k}", 6, 8) for k in (3, 1, 2)]
    summaries = summarize_histories(histories, params, grid, ETA_STARS)
    per_user = [ref.summarize_posterior(h, params, grid, ETA_STARS) for h in histories]
    got = select_users(summaries, rule)
    assert decision_rows(got) == decision_rows(select_users(per_user, rule))
    if isinstance(rule, TailProbability):
        assert [d.score for d in got] == [
            ref.tail_prob(ref.posterior(h, params, grid), rule.eta_star)
            for h in histories
        ]
    if isinstance(rule, TopFraction):
        # The cut falls inside a group of users with equal MAP and mean, so
        # the user_id tie-break decides who is kept.
        key = {s.user_id: (s.map_eta, s.mean_eta) for s in summaries}
        kept = {d.user_id for d in got if d.attentive}
        cut = max(kept, key=lambda u: (-key[u][0], -key[u][1], u))
        ties = [u for u in key if key[u] == key[cut]]
        assert any(u in kept for u in ties) and not all(u in kept for u in ties)


def test_tails_are_evaluated_once_per_row_table(grid, rng, monkeypatch):
    calls = []
    tail = PosteriorRows.tail

    def counted(table, eta_stars):
        calls.append((table, tuple(eta_stars)))
        return tail(table, eta_stars)

    monkeypatch.setattr(PosteriorRows, "tail", counted)
    params = ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)
    histories = random_histories(rng, 500, 30)
    rows = len(suff_stats(histories)[0])
    assert rows < len(histories)
    # As `infer` runs: three stars over the row table in one call, then a
    # tail rule.
    stars = (0.3, 0.5, 0.7)
    summaries = summarize_histories(histories, params, grid, stars)
    table = calls[0][0]
    assert table.masses.shape[0] == rows
    assert calls == [(table, stars)]
    calls.clear()
    # A tail rule at one of those stars reads the tails already evaluated,
    # which are bit for bit those of each summary's row.
    decisions = select_users(summaries, TailProbability(0.5, level=0.5))
    assert calls == []
    assert [d.score for d in decisions] == [
        tail(s.table, [0.5])[s.row, 0] for s in summaries
    ]
    # At another star: one evaluation over the whole table.
    decisions = select_users(summaries, TailProbability(0.6, level=0.5))
    assert calls == [(table, (0.6,))]
    assert [d.score for d in decisions] == [
        tail(s.table, [0.6])[s.row, 0] for s in summaries
    ]
    # Per-user summaries: one evaluation per table, also when two summaries
    # hold the same one.
    per_user = [ref.summarize_posterior(h, params, grid) for h in histories[:20]]
    per_user.append(dataclasses.replace(per_user[0], user_id="again"))
    calls.clear()
    select_users(per_user, TailProbability(0.5, level=0.5))
    assert len(calls) == 20
    # Summaries of two calls: one evaluation per call's table.
    other = summarize_histories(histories[:50], params, grid)
    calls.clear()
    select_users(summaries + other, TailProbability(0.6, level=0.5))
    assert calls == [(table, (0.6,)), (other[0].table, (0.6,))]


@pytest.mark.parametrize("prior", [BetaPrior(3.0, 5.0), TwoPointPrior(0.5, 0.2, 0.9)])
def test_tail_rule_reads_stored_tails_bit_for_bit(grid, rng, prior):
    params = ModelParams(prior=prior, mu=0.8)
    histories = random_histories(rng, 300, 40)
    rule = TailProbability(0.55, level=0.5)
    stored = select_users(summarize_histories(histories, params, grid, [0.3, 0.55]), rule)
    evaluated = select_users(summarize_histories(histories, params, grid), rule)
    assert stored == evaluated


def test_empty_input_gives_no_rows(grid):
    assert summarize_histories([], ModelParams(prior=BetaPrior(3.0, 5.0), mu=0.8)) == []
    two_point = ModelParams(prior=TwoPointPrior(0.5, 0.2, 0.9), mu=0.8)
    assert summarize_histories([], two_point, grid) == []


def assert_summaries_match_fsum_reference(got, histories, params, grid):
    near_ties = 0
    for g, h in zip(got, histories):
        map_eta, mean_eta, tails, map_gap = ref.row_summary(
            h.sum_z, h.n, params, grid, ETA_STARS
        )
        if map_gap > 1e-12:
            assert g.map_eta == map_eta, h
        else:
            near_ties += 1
        assert abs(g.mean_eta - mean_eta) <= 1e-12, h
        for (s_got, p_got), (s_want, p_want) in zip(g.tail_probs, tails):
            assert s_got == s_want
            assert abs(p_got - p_want) <= 1e-12, (h, s_got)
    return near_ties


@pytest.mark.parametrize("alpha,beta,mu", BETA_PARAMS)
def test_beta_rows_match_fsum_reference(alpha, beta, mu, grid, rng):
    params = ModelParams(prior=BetaPrior(alpha, beta), mu=mu)
    histories = random_histories(rng, 40, 300)
    histories += [UserHistory("empty", 0, 0), UserHistory("all", 300, 300)]
    got = summarize_histories(histories, params, grid, ETA_STARS)
    assert assert_summaries_match_fsum_reference(got, histories, params, grid) == 0


@pytest.mark.parametrize("q1,eta_lo,eta_hi,mu", TWO_POINT_PARAMS)
def test_two_point_rows_match_fsum_reference(q1, eta_lo, eta_hi, mu, grid, rng):
    params = ModelParams(prior=TwoPointPrior(q1, eta_lo, eta_hi), mu=mu)
    histories = random_histories(rng, 200, 40)
    got = summarize_histories(histories, params, grid, ETA_STARS)
    assert_summaries_match_fsum_reference(got, histories, params, grid)
