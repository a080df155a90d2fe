"""Seeded input generator for the benchmark, independent of prefqc.simulate.

Labels follow the model's law directly: a user with attentiveness eta
chooses option A with probability 1/2 + eta * (mu - 1/2). Each user labels
a distinct random subset of a shared item pool, and all records are written
in one seeded random order across users, as in a real annotation log. The
true eta and label count of every user are kept for the output checks.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class BulkSpec:
    """Population and log shape of one bulk workload."""

    truth: str  # "beta" or "two_point"
    truth_params: tuple[float, ...]  # (alpha, beta) or (q1, eta_lo, eta_hi)
    mu: float
    users: int
    n_range: tuple[int, int]  # inclusive label-count range per user
    item_pool: int


@dataclass(frozen=True)
class Dataset:
    user_ids: list[str]
    true_eta: np.ndarray
    n_labels: np.ndarray
    records: int
    unique_rows: int  # distinct (sum_z, n) pairs
    bytes: int


def _draw_eta(spec: BulkSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.truth == "beta":
        alpha, beta = spec.truth_params
        return rng.beta(alpha, beta, spec.users)
    q1, eta_lo, eta_hi = spec.truth_params
    return np.where(rng.random(spec.users) < q1, eta_lo, eta_hi)


def generate(spec: BulkSpec, seed: int, path: Path) -> Dataset:
    """Write an annotations JSONL file to `path`; the same seed, the same bytes."""
    rng = np.random.default_rng([seed, spec.users, spec.n_range[1]])
    eta = _draw_eta(spec, rng)
    n_lo, n_hi = spec.n_range
    n = rng.integers(n_lo, n_hi + 1, size=spec.users)
    user_of = np.repeat(np.arange(spec.users), n)
    items = np.concatenate(
        [rng.choice(spec.item_pool, size=k, replace=False) for k in n]
    )
    p_a = 0.5 + eta[user_of] * (spec.mu - 0.5)
    labels = (rng.random(user_of.size) < p_a).astype(np.int64)
    order = rng.permutation(user_of.size)

    user_width = len(str(spec.users - 1))
    item_width = len(str(spec.item_pool - 1))
    user_ids = [json.dumps(f"u{j:0{user_width}d}") for j in range(spec.users)]
    item_ids = [json.dumps(f"i{k:0{item_width}d}") for k in range(spec.item_pool)]
    text = "".join(
        f'{{"user_id": {user_ids[u]}, "item_id": {item_ids[i]}, "label": {z}}}\n'
        for u, i, z in zip(
            user_of[order].tolist(), items[order].tolist(), labels[order].tolist()
        )
    )
    data = text.encode("utf-8")
    path.write_bytes(data)

    sum_z = np.bincount(user_of, weights=labels, minlength=spec.users)
    rows = np.unique(np.stack([sum_z, n], axis=1), axis=0)
    return Dataset(
        user_ids=[json.loads(u) for u in user_ids],
        true_eta=eta,
        n_labels=n,
        records=int(user_of.size),
        unique_rows=int(rows.shape[0]),
        bytes=len(data),
    )
