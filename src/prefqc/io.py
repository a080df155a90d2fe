"""File formats: JSONL datasets, CSV reports, JSON configs.

Every format round-trips exactly: floats are serialized with repr (shortest
string that parses back to the same double), readers rebuild the library's
own types, and parse failures carry the file path and 1-based line number.
Writers go through a temp file plus os.replace, so a crash mid-write never
leaves a truncated output behind.
"""

import csv
import io as _stdio
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Sequence

from .em import ClampEvent, FitReport, LogPriorOnMu, BoxOnMu, RegularizerSpec
from .filtering import (
    FilterDecision,
    PosteriorSummary,
    SelectionRule,
    TailProbability,
    Threshold,
    TopFraction,
)
from .model import (
    AnnotationRecord,
    BetaPrior,
    LogisticNormalMixturePrior,
    ModelParams,
    TwoPointPrior,
)
from .simulate import (
    BetaMixture,
    BetaPerItemP,
    DiscreteMasses,
    LogisticNormal,
    ScoredPair,
    SimulationScenario,
)


class ParseError(ValueError):
    """Input file failed to parse; knows where."""

    def __init__(self, path, line_no: int | None, message: str):
        self.path = str(path)
        self.line_no = line_no
        where = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{where}: {message}")


def _current_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


# mkstemp makes files only their owner may read or write; outputs get the
# mode a plain open() would give them.
_FILE_MODE = 0o666 & ~_current_umask()


def atomic_write_text(path, text: str) -> None:
    """Write via a uniquely named temp file in the target's directory.

    Concurrent writers never share a temp file, and a failed write leaves
    neither a partial target nor a stray temp file behind.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        prefix=f"{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- datasets

def write_annotations(path, records: Iterable[AnnotationRecord]) -> None:
    lines = [
        json.dumps(
            {"user_id": r.user_id, "item_id": r.item_id, "label": r.label},
            separators=(", ", ": "),
        )
        for r in records
    ]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_annotations(path) -> list[AnnotationRecord]:
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
            if user_id is None or item_id is None:
                raise ParseError(path, line_no, "bad record: null user_id or item_id")
            # Ids are JSON strings only: str() would merge 5 with "5" and turn
            # [1] into the id "[1]".
            if type(user_id) is not str or type(item_id) is not str:
                key = "user_id" if type(user_id) is not str else "item_id"
                raise ParseError(
                    path,
                    line_no,
                    f"bad record: {key} must be a JSON string, "
                    f"got {json.dumps(obj[key])}",
                )
            # Exact type check: a float would truncate, and bool is an int.
            if type(label) is not int or label not in (0, 1):
                raise ParseError(
                    path,
                    line_no,
                    f"bad record: label must be the integer 0 or 1, "
                    f"got {json.dumps(label)}",
                )
            records.append(AnnotationRecord(user_id, item_id, label))
    return records


def write_truth(path, truth: Iterable[tuple[str, float]]) -> None:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["user_id", "eta"])
    for user_id, eta in truth:
        writer.writerow([user_id, _fmt(eta)])
    atomic_write_text(path, buf.getvalue())


def read_truth(path) -> list[tuple[str, float]]:
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["user_id", "eta"]:
            raise ParseError(path, 1, "expected header user_id,eta")
        for line_no, row in enumerate(reader, start=2):
            try:
                out.append((row["user_id"], float(row["eta"])))
            except (TypeError, ValueError) as exc:
                raise ParseError(path, line_no, f"bad row: {exc}") from None
    return out


def write_pairs(path, records: Iterable[AnnotationRecord]) -> None:
    """DPO-style export: chosen side per item, 'A' when the label is 1."""
    lines = [
        json.dumps(
            {"item_id": r.item_id, "chosen": "A" if r.label == 1 else "B"},
            separators=(", ", ": "),
        )
        for r in records
    ]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_pairs(path) -> list[tuple[str, str]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                item_id, chosen = str(obj["item_id"]), str(obj["chosen"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ParseError(path, line_no, f"bad pair: {exc}") from None
            if chosen not in ("A", "B"):
                raise ParseError(path, line_no, f"chosen must be A or B, got {chosen!r}")
            out.append((item_id, chosen))
    return out


def read_scored_pairs(path) -> list[ScoredPair]:
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["item_id", "score_a", "score_b"]:
            raise ParseError(path, 1, "expected header item_id,score_a,score_b")
        for line_no, row in enumerate(reader, start=2):
            try:
                out.append(
                    ScoredPair(
                        item_id=row["item_id"],
                        score_a=float(row["score_a"]),
                        score_b=float(row["score_b"]),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise ParseError(path, line_no, f"bad row: {exc}") from None
    return out


def write_scored_pairs(path, pairs: Iterable[ScoredPair]) -> None:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["item_id", "score_a", "score_b"])
    for p in pairs:
        writer.writerow([p.item_id, _fmt(p.score_a), _fmt(p.score_b)])
    atomic_write_text(path, buf.getvalue())


# --------------------------------------------------- priors, params, rules

def encode_prior(prior) -> dict[str, Any]:
    if isinstance(prior, TwoPointPrior):
        return {
            "type": "two_point",
            "q1": prior.q1,
            "eta_lo": prior.eta_lo,
            "eta_hi": prior.eta_hi,
        }
    if isinstance(prior, BetaPrior):
        return {"type": "beta", "alpha": prior.alpha, "beta": prior.beta}
    if isinstance(prior, LogisticNormalMixturePrior):
        return {
            "type": "logistic_normal_mixture",
            "weights": list(prior.weights),
            "means": list(prior.means),
            "sigmas": list(prior.sigmas),
        }
    if isinstance(prior, BetaMixture):
        return {
            "type": "beta_mixture",
            "weights": list(prior.weights),
            "components": [list(c) for c in prior.components],
        }
    if isinstance(prior, LogisticNormal):
        return {"type": "logistic_normal", "m": prior.m, "s": prior.s}
    if isinstance(prior, DiscreteMasses):
        return {"type": "discrete_masses", "atoms": [list(a) for a in prior.atoms]}
    raise TypeError(f"cannot encode prior {prior!r}")


def decode_prior(obj: dict[str, Any]):
    kind = obj.get("type")
    if kind == "two_point":
        return TwoPointPrior(q1=obj["q1"], eta_lo=obj["eta_lo"], eta_hi=obj["eta_hi"])
    if kind == "beta":
        return BetaPrior(alpha=obj["alpha"], beta=obj["beta"])
    if kind == "logistic_normal_mixture":
        return LogisticNormalMixturePrior(
            weights=tuple(obj["weights"]),
            means=tuple(obj["means"]),
            sigmas=tuple(obj["sigmas"]),
        )
    if kind == "beta_mixture":
        return BetaMixture(
            weights=tuple(obj["weights"]),
            components=tuple(tuple(c) for c in obj["components"]),
        )
    if kind == "logistic_normal":
        return LogisticNormal(m=obj["m"], s=obj["s"])
    if kind == "discrete_masses":
        return DiscreteMasses(atoms=tuple(tuple(a) for a in obj["atoms"]))
    raise ValueError(f"unknown prior type {kind!r}")


def encode_params(params: ModelParams) -> dict[str, Any]:
    return {
        "prior": encode_prior(params.prior),
        "mu": params.mu,
        "mu_mode": params.mu_mode,
    }


def decode_params(obj: dict[str, Any]) -> ModelParams:
    return ModelParams(
        prior=decode_prior(obj["prior"]),
        mu=obj["mu"],
        mu_mode=obj.get("mu_mode", "fixed"),
    )


def encode_rule(rule: SelectionRule) -> dict[str, Any]:
    if isinstance(rule, TopFraction):
        return {"type": "top_fraction", "fraction": rule.fraction}
    if isinstance(rule, Threshold):
        return {"type": "threshold", "value": rule.value}
    if isinstance(rule, TailProbability):
        return {"type": "tail_probability", "eta_star": rule.eta_star, "level": rule.level}
    raise TypeError(f"cannot encode rule {rule!r}")


def decode_rule(obj: dict[str, Any]) -> SelectionRule:
    kind = obj.get("type")
    if kind == "top_fraction":
        return TopFraction(fraction=obj["fraction"])
    if kind == "threshold":
        return Threshold(value=obj["value"])
    if kind == "tail_probability":
        return TailProbability(eta_star=obj["eta_star"], level=obj.get("level", 0.95))
    raise ValueError(f"unknown rule type {kind!r}")


def encode_regularizer(reg: RegularizerSpec) -> dict[str, Any] | None:
    if reg is None:
        return None
    if isinstance(reg, LogPriorOnMu):
        return {"type": "log_prior_on_mu", "a": reg.a, "b": reg.b}
    if isinstance(reg, BoxOnMu):
        return {"type": "box_on_mu", "lo": reg.lo, "hi": reg.hi}
    raise TypeError(f"cannot encode regularizer {reg!r}")


def decode_regularizer(obj: dict[str, Any] | None) -> RegularizerSpec:
    if obj is None:
        return None
    kind = obj.get("type")
    if kind == "log_prior_on_mu":
        return LogPriorOnMu(a=obj["a"], b=obj["b"])
    if kind == "box_on_mu":
        return BoxOnMu(lo=obj["lo"], hi=obj["hi"])
    raise ValueError(f"unknown regularizer type {kind!r}")


def encode_scenario(scenario: SimulationScenario) -> dict[str, Any]:
    p_model = scenario.per_item_p_model
    return {
        "prior": encode_prior(scenario.prior),
        "mu": scenario.mu,
        "num_users": scenario.num_users,
        "n_range": list(scenario.n_range),
        "seed": scenario.seed,
        "per_item_p_model": (
            None if p_model is None else {"alpha": p_model.alpha, "beta": p_model.beta}
        ),
    }


def decode_scenario(obj: dict[str, Any]) -> SimulationScenario:
    p_model = obj.get("per_item_p_model")
    return SimulationScenario(
        prior=decode_prior(obj["prior"]),
        mu=obj["mu"],
        num_users=obj["num_users"],
        n_range=(int(obj["n_range"][0]), int(obj["n_range"][1])),
        seed=int(obj.get("seed", 0)),
        per_item_p_model=(
            None if p_model is None else BetaPerItemP(p_model["alpha"], p_model["beta"])
        ),
    )


def write_json(path, obj: dict[str, Any]) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON ({exc.msg})") from None


# ------------------------------------------------------------ fit reports

def fit_to_dict(
    report: FitReport,
    *,
    labels_flipped: bool = False,
    delta: float | None = None,
) -> dict[str, Any]:
    out: dict[str, Any] = {
        "params": encode_params(report.final_params),
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "iterations": report.iterations,
        "final_loglik": report.final_loglik,
        "clamp_events": [
            {"iteration": e.iteration, "parameter": e.parameter, "value": e.value}
            for e in report.clamp_events
        ],
        "labels_flipped": labels_flipped,
    }
    if delta is not None:
        out["delta"] = delta
    return out


def write_fit(path, report: FitReport, **kwargs) -> None:
    write_json(path, fit_to_dict(report, **kwargs))


def read_fit(path) -> dict[str, Any]:
    obj = read_json(path)
    obj["params"] = decode_params(obj["params"])
    obj["clamp_events"] = [
        ClampEvent(e["iteration"], e["parameter"], e["value"])
        for e in obj.get("clamp_events", [])
    ]
    return obj


def _param_columns(params: ModelParams) -> list[tuple[str, float]]:
    prior = params.prior
    if isinstance(prior, TwoPointPrior):
        cols = [("q1", prior.q1), ("eta_lo", prior.eta_lo), ("eta_hi", prior.eta_hi)]
    elif isinstance(prior, BetaPrior):
        cols = [("alpha", prior.alpha), ("beta", prior.beta)]
    else:
        raise TypeError("trajectories exist only for two-point and Beta fits")
    cols.append(("mu", params.mu))
    return cols


def write_trajectory(path, report: FitReport) -> None:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [name for name, _ in _param_columns(report.final_params)]
    writer.writerow(["iteration", *names, "loglik"])
    for point in report.trajectory:
        values = [_fmt(v) for _, v in _param_columns(point.params)]
        writer.writerow([point.iteration, *values, _fmt(point.loglik)])
    atomic_write_text(path, buf.getvalue())


def read_trajectory(path) -> list[dict[str, float]]:
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for line_no, row in enumerate(reader, start=2):
            try:
                out.append(
                    {
                        k: (int(v) if k == "iteration" else float(v))
                        for k, v in row.items()
                    }
                )
            except (TypeError, ValueError) as exc:
                raise ParseError(path, line_no, f"bad row: {exc}") from None
    return out


# ------------------------------------------------- posteriors & decisions

def _tail_columns(summaries: Sequence[PosteriorSummary]) -> list[float]:
    stars = [s for s, _ in summaries[0].tail_probs]
    for summary in summaries:
        if [s for s, _ in summary.tail_probs] != stars:
            raise ValueError("summaries disagree on evaluated tail points")
    return stars


def write_posteriors(path, summaries: Sequence[PosteriorSummary]) -> None:
    if not summaries:
        raise ValueError("no summaries to write")
    stars = _tail_columns(summaries)
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["user_id", "n_labels", "map_eta", "mean_eta"]
        + [f"tail_{_fmt(s)}" for s in stars]
    )
    for s in summaries:
        writer.writerow(
            [s.user_id, s.n_labels, _fmt(s.map_eta), _fmt(s.mean_eta)]
            + [_fmt(p) for _, p in s.tail_probs]
        )
    atomic_write_text(path, buf.getvalue())


def read_posteriors(path) -> list[dict[str, Any]]:
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for line_no, row in enumerate(reader, start=2):
            try:
                rec: dict[str, Any] = {
                    "user_id": row["user_id"],
                    "n_labels": int(row["n_labels"]),
                    "map_eta": float(row["map_eta"]),
                    "mean_eta": float(row["mean_eta"]),
                    "tail_probs": tuple(
                        (float(k[len("tail_"):]), float(v))
                        for k, v in row.items()
                        if k.startswith("tail_")
                    ),
                }
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(path, line_no, f"bad row: {exc}") from None
            out.append(rec)
    return out


def write_decisions(path, decisions: Sequence[FilterDecision]) -> None:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["user_id", "attentive", "rule", "score"])
    for d in decisions:
        writer.writerow(
            [
                d.user_id,
                "true" if d.attentive else "false",
                json.dumps(encode_rule(d.rule), sort_keys=True),
                _fmt(d.score),
            ]
        )
    atomic_write_text(path, buf.getvalue())


def read_decisions(path) -> list[FilterDecision]:
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["user_id", "attentive", "rule", "score"]:
            raise ParseError(path, 1, "expected header user_id,attentive,rule,score")
        for line_no, row in enumerate(reader, start=2):
            try:
                flag = {"true": True, "false": False}[row["attentive"]]
                out.append(
                    FilterDecision(
                        user_id=row["user_id"],
                        attentive=flag,
                        rule=decode_rule(json.loads(row["rule"])),
                        score=float(row["score"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(path, line_no, f"bad row: {exc}") from None
    return out


# ------------------------------------------------------------ sweep report

SWEEP_COLUMNS = [
    "cell",
    "family",
    "m",
    "n_min",
    "n_max",
    "mu",
    "mu_variant",
    "rule",
    "seeds_ok",
    "seeds_failed",
    "delta_mean",
    "delta_std",
    "accuracy_mean",
    "accuracy_std",
    "note",
]


def write_sweep(path, rows: Sequence[dict[str, Any]]) -> None:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                _fmt(row[c])
                if isinstance(row.get(c), float) and math.isfinite(row[c])
                else ("" if row.get(c) is None else row.get(c))
                for c in SWEEP_COLUMNS
            ]
        )
    atomic_write_text(path, buf.getvalue())


def read_sweep(path) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
