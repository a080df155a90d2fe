"""Attentiveness estimation and quality filtering for preference data.

Binary preference labels from a pool of annotators are modeled with one
latent attentiveness score per user: fully attentive users follow the
population preference, fully casual ones flip coins, and everyone else sits
on the line between. The package fits the attentiveness distribution by EM,
turns the fit into posteriors (one per distinct (sum_z, n) count pair,
shared by the users that have it), and filters datasets down to the labels
of users worth trusting.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them. A name is imported on
# first access (PEP 562), so `import prefqc` loads no submodule and each
# command loads only the modules it runs.
_PUBLIC = {
    "em": (
        "BoxOnMu",
        "ClampEvent",
        "DegenerateComponentError",
        "EmConfig",
        "FitReport",
        "LikelihoodDecreaseError",
        "LogPriorOnMu",
        "TrajectoryPoint",
        "em_fit",
        "m_step",
        "posterior_rows",
    ),
    "filtering": (
        "FilterDecision",
        "FilteredDataset",
        "MissingDecisionError",
        "PosteriorSummary",
        "TailProbability",
        "Threshold",
        "TopFraction",
        "filter_dataset",
        "recovery_accuracy",
        "relative_error",
        "select_users",
        "summarize_histories",
        "summarize_posterior",
    ),
    "io": ("ParseError",),
    "model": (
        "AnnotationRecord",
        "BetaPrior",
        "ModelParams",
        "TwoPointPrior",
        "UserHistory",
        "bernoulli_response_prob",
        "histories_from_records",
        "loglik_from_counts",
        "observed_loglik",
        "prior_log_masses",
        "suff_stats",
    ),
    "numerics": (
        "BetaSolution",
        "QuadratureGrid",
        "SolverError",
        "digamma",
        "log_beta",
        "log_sum_exp",
        "solve_beta_system",
    ),
    "simulate": (
        "BetaMixture",
        "BetaPerItemP",
        "DiscreteMasses",
        "LogisticNormal",
        "MuEstimate",
        "ScoredPair",
        "SimulationScenario",
        "estimate_mu",
        "list_presets",
        "misspecification_suite",
        "prior_mean",
        "prior_quantile",
        "sample_eta",
        "scenario_preset",
        "simulate_dataset",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
