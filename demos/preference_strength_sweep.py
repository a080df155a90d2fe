"""How recovery quality depends on the population preference rate.

When the preferred response wins only 60% of the time, attentive and
careless annotators look similar and filtering is hard; at 90% they
separate quickly. The sweep also fits a variant that treats the rate as
unknown (free mu with a Beta(8,2) log-prior) to show the knowledge gap
costs almost nothing.
"""

import csv
import dataclasses
import sys

import numpy as np

from prefqc import (
    BetaPrior,
    EmConfig,
    LogPriorOnMu,
    QuadratureGrid,
    SimulationScenario,
    TopFraction,
    em_fit,
    histories_from_records,
    prior_quantile,
    recovery_accuracy,
    select_users,
    simulate_dataset,
    summarize_histories,
)

MUS = (0.6, 0.7, 0.8, 0.9)
SEEDS = range(3)
TRUE_PRIOR = BetaPrior(3.0, 5.0)


def accuracy_for(histories, truth, config, grid, threshold):
    report = em_fit(histories, config)
    summaries = summarize_histories(histories, report.final_params, grid)
    decisions = select_users(summaries, TopFraction(0.5))
    return recovery_accuracy(decisions, truth, threshold=threshold)


def main():
    grid = QuadratureGrid.uniform()
    # "attentive" means above the prior median; the simulation draws from
    # TRUE_PRIOR so this labels half the population on average
    threshold = prior_quantile(TRUE_PRIOR, 0.5)

    rows = []
    for mu in MUS:
        scenario = SimulationScenario(
            prior=TRUE_PRIOR, mu=mu, num_users=300, n_range=(30, 60)
        )
        known, blind = [], []
        for seed in SEEDS:
            records, truth = simulate_dataset(dataclasses.replace(scenario, seed=seed))
            truth = dict(truth)
            histories = histories_from_records(records)
            known.append(
                accuracy_for(
                    histories, truth,
                    EmConfig(family="beta", mu=mu),
                    grid, threshold,
                )
            )
            blind.append(
                accuracy_for(
                    histories, truth,
                    EmConfig(
                        family="beta", mu_mode="free",
                        regularizer=LogPriorOnMu(8.0, 2.0),
                    ),
                    grid, threshold,
                )
            )
        rows.append((mu, float(np.mean(known)), float(np.mean(blind))))
        print(
            f"mu={mu:.1f}  accuracy(known rate)={rows[-1][1]:.3f}  "
            f"accuracy(estimated rate)={rows[-1][2]:.3f}"
        )

    out = sys.argv[1] if len(sys.argv) > 1 else "sweep_results.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "accuracy_known_rate", "accuracy_estimated_rate"])
        writer.writerows(rows)
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
