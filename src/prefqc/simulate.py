"""Synthetic preference data with known ground truth.

Generation follows the behavioral story directly: each user draws an
attentiveness eta from a configurable true distribution, then labels each
item attentively (following the per-item preference probability) with
probability eta and by fair coin otherwise. The marginal label law is
exactly the model's response curve, so fits on this data are well-specified
whenever the true distribution is in the fitted family.

Randomness is split per user from one seed (SeedSequence spawning), which
makes output a pure function of the scenario and lets user streams be
generated in any order, or in parallel, without changing a single bit.
"""

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .model import AnnotationRecord, BetaPrior, TwoPointPrior

logger = logging.getLogger(__name__)

WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class BetaMixture:
    """Mixture of Beta components; `components` holds (alpha, beta) pairs."""

    weights: tuple[float, ...]
    components: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.weights) != len(self.components) or not self.weights:
            raise ValueError("weights and components must align and be non-empty")
        if abs(sum(self.weights) - 1.0) > 1e-12 or min(self.weights) < 0.0:
            raise ValueError("weights must be non-negative and sum to 1")
        if any(a <= 0.0 or b <= 0.0 for a, b in self.components):
            raise ValueError("component shapes must be positive")


@dataclass(frozen=True)
class LogisticNormal:
    """eta = sigmoid(m + s * Z) with Z standard normal."""

    m: float
    s: float

    def __post_init__(self):
        if not self.s > 0.0:
            raise ValueError("s must be positive")


@dataclass(frozen=True)
class DiscreteMasses:
    """Finite support distribution; `atoms` holds (weight, eta) pairs."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("need at least one atom")
        if abs(sum(w for w, _ in self.atoms) - 1.0) > 1e-12:
            raise ValueError("atom weights must sum to 1")
        if any(w < 0.0 or not 0.0 <= e <= 1.0 for w, e in self.atoms):
            raise ValueError("weights must be >= 0 and etas in [0,1]")


TruePriorSpec = Union[
    TwoPointPrior, BetaPrior, BetaMixture, LogisticNormal, DiscreteMasses
]


@dataclass(frozen=True)
class BetaPerItemP:
    """Per-item preference probabilities drawn from Beta(alpha, beta)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError("shapes must be positive")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


@dataclass(frozen=True)
class SimulationScenario:
    prior: TruePriorSpec
    mu: float
    num_users: int
    n_range: tuple[int, int]  # inclusive bounds on per-user label counts
    seed: int = 0
    per_item_p_model: BetaPerItemP | None = None

    def __post_init__(self):
        if not 0.5 < self.mu < 1.0:
            raise ValueError("mu must lie strictly between 1/2 and 1")
        if self.num_users < 1:
            raise ValueError("num_users must be positive")
        n_min, n_max = self.n_range
        if not (isinstance(n_min, int) and isinstance(n_max, int)):
            raise ValueError("n_range bounds must be integers")
        if not 1 <= n_min <= n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        if (
            self.per_item_p_model is not None
            and abs(self.per_item_p_model.mean - self.mu) > 1e-9
        ):
            raise ValueError("per-item p model mean must equal mu")


def prior_mean(spec: TruePriorSpec) -> float:
    """E[eta] under the true distribution."""
    if isinstance(spec, TwoPointPrior):
        return spec.q1 * spec.eta_lo + spec.q2 * spec.eta_hi
    if isinstance(spec, BetaPrior):
        return spec.alpha / (spec.alpha + spec.beta)
    if isinstance(spec, BetaMixture):
        return sum(
            w * a / (a + b) for w, (a, b) in zip(spec.weights, spec.components)
        )
    if isinstance(spec, DiscreteMasses):
        return sum(w * e for w, e in spec.atoms)
    if isinstance(spec, LogisticNormal):
        from scipy import special

        # No closed form; Gauss-Hermite handles the Gaussian expectation.
        nodes, weights = np.polynomial.hermite_e.hermegauss(201)
        vals = special.expit(spec.m + spec.s * nodes)
        return float(np.dot(weights, vals) / math.sqrt(2.0 * math.pi))
    raise TypeError(f"unknown prior spec {spec!r}")


def _discrete_quantile(atoms: Sequence[tuple[float, float]], q: float) -> float:
    ordered = sorted(atoms, key=lambda we: we[1])
    cum = 0.0
    for w, e in ordered:
        cum += w
        if cum >= q - 1e-15:
            return e
    return ordered[-1][1]


def prior_quantile(spec: TruePriorSpec, q: float) -> float:
    """Quantile of the true distribution (exact where a form exists)."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0, 1)")
    if isinstance(spec, TwoPointPrior):
        return _discrete_quantile(
            [(spec.q1, spec.eta_lo), (spec.q2, spec.eta_hi)], q
        )
    if isinstance(spec, DiscreteMasses):
        return _discrete_quantile(spec.atoms, q)
    # scipy is imported where it is used: at module level it would be most
    # of the cost of `import prefqc`, and most commands never reach here.
    from scipy import optimize, special, stats

    if isinstance(spec, BetaPrior):
        return float(stats.beta.ppf(q, spec.alpha, spec.beta))
    if isinstance(spec, LogisticNormal):
        # sigmoid is monotone, so the quantile transforms exactly.
        return float(special.expit(spec.m + spec.s * stats.norm.ppf(q)))
    if isinstance(spec, BetaMixture):
        def cdf_gap(x: float) -> float:
            total = sum(
                w * stats.beta.cdf(x, a, b)
                for w, (a, b) in zip(spec.weights, spec.components)
            )
            return total - q

        return float(optimize.brentq(cdf_gap, 0.0, 1.0, xtol=1e-12))
    raise TypeError(f"unknown prior spec {spec!r}")


def sample_eta(spec: TruePriorSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(spec, TwoPointPrior):
        u = rng.random(size)
        return np.where(u < spec.q1, spec.eta_lo, spec.eta_hi)
    if isinstance(spec, DiscreteMasses):
        cum = np.cumsum([w for w, _ in spec.atoms])
        etas = np.array([e for _, e in spec.atoms])
        idx = np.searchsorted(cum, rng.random(size), side="right")
        return etas[np.minimum(idx, len(etas) - 1)]
    if isinstance(spec, BetaPrior):
        return rng.beta(spec.alpha, spec.beta, size)
    if isinstance(spec, BetaMixture):
        cum = np.cumsum(spec.weights)
        idx = np.minimum(
            np.searchsorted(cum, rng.random(size), side="right"),
            len(spec.weights) - 1,
        )
        shapes = np.array(spec.components)
        return rng.beta(shapes[idx, 0], shapes[idx, 1])
    if isinstance(spec, LogisticNormal):
        from scipy import special

        return special.expit(spec.m + spec.s * rng.standard_normal(size))
    raise TypeError(f"unknown prior spec {spec!r}")


def _id_width(count: int) -> int:
    return max(4, len(str(count - 1)))


def simulate_dataset(
    scenario: SimulationScenario,
) -> tuple[list[AnnotationRecord], list[tuple[str, float]]]:
    """Draw a full dataset; returns (records, [(user_id, true_eta)]).

    Stream layout: one master stream draws every user's eta and label count,
    then each user gets an independent spawned stream for their item-level
    draws. Output is byte-identical for equal scenarios.
    """
    m = scenario.num_users
    n_min, n_max = scenario.n_range
    children = np.random.SeedSequence(scenario.seed).spawn(m + 1)
    master = np.random.default_rng(children[0])
    etas = sample_eta(scenario.prior, m, master)
    label_counts = master.integers(n_min, n_max + 1, size=m)

    user_width = _id_width(m)
    item_width = _id_width(n_max)
    records: list[AnnotationRecord] = []
    truth: list[tuple[str, float]] = []
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


@dataclass(frozen=True)
class ScoredPair:
    """Pre-scored response pair; score_a/score_b are opaque reward values."""

    item_id: str
    score_a: float
    score_b: float

    def __post_init__(self):
        if not (math.isfinite(self.score_a) and math.isfinite(self.score_b)):
            raise ValueError("scores must be finite")


class MuEstimate(NamedTuple):
    mu_hat: float
    ci: tuple[float, float]  # Wilson 95% interval


def estimate_mu(pairs: Sequence[ScoredPair]) -> MuEstimate:
    """Population preference as the proportion of pairs where A outscores B.

    Exact score ties count one half each (keeps the estimator unbiased when
    tie direction carries no information); ties are logged since they are
    usually a symptom of degenerate scoring.
    """
    if not pairs:
        raise ValueError("estimate_mu needs at least one scored pair")
    n = len(pairs)
    wins = sum(1 for p in pairs if p.score_a > p.score_b)
    ties = sum(1 for p in pairs if p.score_a == p.score_b)
    if ties:
        logger.warning("%d exact score tie(s) counted as 1/2", ties)
    k = wins + 0.5 * ties
    p_hat = k / n
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2.0 * n)) / denom
    half = (
        WILSON_Z
        * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))
        / denom
    )
    return MuEstimate(mu_hat=p_hat, ci=(center - half, center + half))


_MISSPEC = {
    "beta_mixture_fig4": lambda: SimulationScenario(
        prior=BetaMixture(weights=(0.6, 0.4), components=((4.0, 16.0), (16.0, 4.0))),
        mu=0.8,
        num_users=400,
        n_range=(50, 100),
    ),
    "logistic_normal_fig4": lambda: SimulationScenario(
        prior=LogisticNormal(m=-0.6, s=0.8),
        mu=0.8,
        num_users=400,
        n_range=(50, 100),
    ),
    "three_mass_d2": lambda: SimulationScenario(
        prior=DiscreteMasses(atoms=((0.2, 0.2), (0.6, 0.6), (0.2, 0.9))),
        mu=0.8,
        num_users=4000,
        n_range=(500, 500),
    ),
    "three_beta_d2": lambda: SimulationScenario(
        prior=BetaMixture(
            weights=(0.2, 0.6, 0.2),
            components=((8.0, 32.0), (20.0, 20.0), (32.0, 8.0)),
        ),
        mu=0.8,
        num_users=4000,
        n_range=(500, 500),
    ),
}


def misspecification_suite(scenario_name: str) -> SimulationScenario:
    """Named scenarios whose true distribution lies outside both fit families."""
    try:
        return _MISSPEC[scenario_name]()
    except KeyError:
        known = ", ".join(sorted(_MISSPEC))
        raise ValueError(f"unknown scenario {scenario_name!r}; known: {known}") from None


# (num_users, labels per user) of the estimation-error grid (table3 presets).
ERROR_SWEEP_CELLS = ((200, 50), (400, 50), (200, 100), (400, 100), (800, 100), (800, 200))


def _build_presets():
    presets = {}
    for m, n in ERROR_SWEEP_CELLS:
        presets[f"table3_twopoint_{m}_{n}"] = SimulationScenario(
            prior=TwoPointPrior(q1=0.6, eta_lo=0.4, eta_hi=0.98),
            mu=0.8,
            num_users=m,
            n_range=(n, n),
        )
        presets[f"table3_beta_{m}_{n}"] = SimulationScenario(
            prior=BetaPrior(alpha=3.0, beta=5.0),
            mu=0.8,
            num_users=m,
            n_range=(n, n),
        )
    presets["twopoint_default"] = SimulationScenario(
        prior=TwoPointPrior(q1=0.6, eta_lo=0.4, eta_hi=0.98),
        mu=0.8,
        num_users=400,
        n_range=(50, 100),
    )
    presets["beta_default"] = SimulationScenario(
        prior=BetaPrior(alpha=3.0, beta=5.0),
        mu=0.8,
        num_users=400,
        n_range=(50, 100),
    )
    # mu is a fixed reference value for this pairing, not recomputed here.
    presets["ultrafeedback_qwen7b_qwen05b"] = SimulationScenario(
        prior=TwoPointPrior(q1=0.2, eta_lo=0.2, eta_hi=0.98),
        mu=0.98,
        num_users=400,
        n_range=(50, 50),
    )
    for name in _MISSPEC:
        presets[name] = _MISSPEC[name]()
    return presets


_PRESETS = _build_presets()


def list_presets() -> list[str]:
    return sorted(_PRESETS)


def scenario_preset(name: str) -> SimulationScenario:
    """Look up a named scenario; seed defaults to 0 and can be replaced."""
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(list_presets())
        raise ValueError(f"unknown preset {name!r}; known: {known}") from None
