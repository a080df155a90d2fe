"""End-to-end run on a synthetic preference dataset.

Simulates a pool where 60% of annotators click through half-asleep
(attentiveness 0.4) and 40% actually read (0.98), fits the two-point
model to their binary choices, then keeps the top 40% of users by
posterior attentiveness and checks the kept set against the true draws.
"""

import argparse

from prefqc import (
    EmConfig,
    SimulationScenario,
    TopFraction,
    TwoPointPrior,
    em_fit,
    filter_dataset,
    histories_from_records,
    recovery_accuracy,
    select_users,
    simulate_dataset,
    summarize_histories,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--users", type=int, default=200)
    args = ap.parse_args()

    scenario = SimulationScenario(
        prior=TwoPointPrior(q1=0.6, eta_lo=0.4, eta_hi=0.98),
        mu=0.8,
        num_users=args.users,
        n_range=(20, 50),
        seed=args.seed,
    )
    records, truth = simulate_dataset(scenario)
    truth = dict(truth)
    print(f"simulated {len(records)} annotations from {args.users} users")

    histories = histories_from_records(records)
    report = em_fit(histories, EmConfig(family="two_point", mu=scenario.mu))
    fitted = report.final_params.prior
    print(
        f"fit stopped after {report.iterations} iterations ({report.stop_reason}); "
        f"atoms {fitted.eta_lo:.3f}/{fitted.eta_hi:.3f}, "
        f"weight on low atom {fitted.q1:.3f}"
    )

    summaries = summarize_histories(histories, report.final_params)
    decisions = select_users(summaries, TopFraction(0.4))
    filtered = filter_dataset(records, decisions)
    print(
        f"kept {filtered.users_kept} users, "
        f"{filtered.records_kept}/{len(records)} annotations"
    )

    # The simulation hands back every user's true attentiveness, so we can
    # score the selection directly. 0.7 splits the two atoms.
    acc = recovery_accuracy(decisions, truth, threshold=0.7)
    print(f"fraction of truly attentive users recovered: {acc:.3f}")

    print("\nsample of the ranking (MAP attentiveness vs truth):")
    by_map = sorted(summaries, key=lambda s: -s.map_eta)
    for s in by_map[:3] + by_map[-3:]:
        kept = any(d.user_id == s.user_id and d.attentive for d in decisions)
        print(
            f"  {s.user_id}  map={s.map_eta:.3f}  true={truth[s.user_id]:.2f}  "
            f"{'kept' if kept else 'dropped'}"
        )


if __name__ == "__main__":
    main()
