"""Slow, obviously correct reference implementations for tests to compare against.

Each function here is a plain per-record loop with the behaviour the
library's optimised code must reproduce exactly: the same values, the same
output bytes, the same error type, message and line number. Tests compare
the two on generated inputs; the library never imports this module.
"""

import json
from pathlib import Path

from prefqc import (
    AnnotationRecord,
    FilteredDataset,
    MissingDecisionError,
    ParseError,
    UserHistory,
)


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
