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

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .model import (
    AnnotationColumns,
    AnnotationRecord,
    BetaPrior,
    TwoPointPrior,
    _finite,
    _finite_entries,
    _integer,
)

WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class BetaMixture:
    """Mixture of Beta components; `components` holds (alpha, beta) pairs."""

    weights: tuple[float, ...]
    components: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.weights) != len(self.components) or not self.weights:
            raise ValueError("weights and components must align and be non-empty")
        _finite_entries(self)
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
        _finite("m", self.m)
        if not _finite("s", self.s) > 0.0:
            raise ValueError("s must be positive")


@dataclass(frozen=True)
class DiscreteMasses:
    """Finite support distribution; `atoms` holds (weight, eta) pairs."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("need at least one atom")
        _finite_entries(self)
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
        if _finite("alpha", self.alpha) <= 0.0 or _finite("beta", self.beta) <= 0.0:
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
        if not 0.5 < _finite("mu", self.mu) < 1.0:
            raise ValueError("mu must lie strictly between 1/2 and 1")
        for name in ("num_users", "seed"):
            if not _integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.num_users < 1:
            raise ValueError("num_users must be positive")
        # numpy's SeedSequence, which every draw starts from, rejects it too.
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if len(self.n_range) != 2:
            raise ValueError(f"n_range must hold two bounds, got {self.n_range!r}")
        n_min, n_max = self.n_range
        if not (_integer(n_min) and _integer(n_max)):
            raise ValueError("n_range bounds must be integers")
        if not 1 <= n_min <= n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        if (
            self.per_item_p_model is not None
            and abs(self.per_item_p_model.mean - self.mu) > 1e-9
        ):
            raise ValueError("per-item p model mean must equal mu")


def _two_atoms(spec: TruePriorSpec) -> TruePriorSpec:
    """A two-point prior as the DiscreteMasses of its two atoms; others as given.

    `sample_eta` draws one uniform u per user from either, and u < q1 picks
    the low atom.
    """
    if isinstance(spec, TwoPointPrior):
        return DiscreteMasses(((spec.q1, spec.eta_lo), (spec.q2, spec.eta_hi)))
    return spec


def prior_mean(spec: TruePriorSpec) -> float:
    """E[eta] under the true distribution."""
    spec = _two_atoms(spec)
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
    spec = _two_atoms(spec)
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


# Quoted: evaluating np.random at def time would load numpy.random, 11-19 ms
# (2-vCPU Xeon), into every command, most of which never draw a number.
def sample_eta(spec: TruePriorSpec, size: int, rng: "np.random.Generator") -> np.ndarray:
    spec = _two_atoms(spec)
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


def _draw_users(
    scenario: SimulationScenario,
) -> tuple[list[str], np.ndarray, list[np.ndarray]]:
    """Every user's id, true eta and labels (a bool array of the user's length).

    Stream layout: one master stream draws every user's eta and label count,
    then each user gets an independent spawned stream for their item-level
    draws. Every simulation draws here, so equal scenarios give equal bits.
    """
    m = scenario.num_users
    n_min, n_max = scenario.n_range
    children = np.random.SeedSequence(scenario.seed).spawn(m + 1)
    master = np.random.default_rng(children[0])
    etas = sample_eta(scenario.prior, m, master)
    label_counts = master.integers(n_min, n_max + 1, size=m)
    user_width = _id_width(m)
    user_ids = [f"u{j:0{user_width}d}" for j in range(m)]
    labels = []
    for j in range(m):
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
        labels.append(np.where(attentive, u < p, u < 0.5))
    return user_ids, etas.astype(float), labels


def simulate_columns(
    scenario: SimulationScenario,
) -> tuple[AnnotationColumns, list[tuple[str, float]]]:
    """Draw a full dataset as columns; returns (columns, [(user_id, true_eta)]).

    Records come user by user, each user's items in order, and every item
    id is distinct. Output is byte-identical for equal scenarios.
    """
    user_ids, etas, labels = _draw_users(scenario)
    label_counts = [len(z) for z in labels]
    # A user's item ids are its id plus the first n_j of these suffixes.
    n_max = scenario.n_range[1]
    suffixes = [f"-{i:0{_id_width(n_max)}d}" for i in range(n_max)]
    item_ids: list[str] = []
    for user_id, n_j in zip(user_ids, label_counts):
        item_ids.extend(map(user_id.__add__, suffixes[:n_j]))
    columns = AnnotationColumns(
        user_ids,
        item_ids,
        np.repeat(np.arange(len(user_ids), dtype=np.intp), label_counts),
        np.arange(len(item_ids), dtype=np.intp),
        np.concatenate(labels).astype(np.int8),
    )
    return columns, list(zip(user_ids, etas.tolist()))


def simulate_dataset(
    scenario: SimulationScenario,
) -> tuple[list[AnnotationRecord], list[tuple[str, float]]]:
    """Draw a full dataset; returns (records, [(user_id, true_eta)]).

    The records of `simulate_columns`, one per label.
    """
    columns, truth = simulate_columns(scenario)
    return columns.to_records(), truth


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
        # Imported here: logging adds 4-6 ms to every command's start (2-vCPU Xeon).
        import logging

        logging.getLogger(__name__).warning(
            "%d exact score tie(s) counted as 1/2", ties
        )
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
    # The two reference truths: the estimation-error grid and a default each.
    for tag, prior in (
        ("twopoint", TwoPointPrior(q1=0.6, eta_lo=0.4, eta_hi=0.98)),
        ("beta", BetaPrior(alpha=3.0, beta=5.0)),
    ):
        for m, n in ERROR_SWEEP_CELLS:
            presets[f"table3_{tag}_{m}_{n}"] = SimulationScenario(
                prior=prior, mu=0.8, num_users=m, n_range=(n, n)
            )
        presets[f"{tag}_default"] = SimulationScenario(
            prior=prior, mu=0.8, num_users=400, n_range=(50, 100)
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
