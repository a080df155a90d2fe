"""Compare two prefqc output directories.

Usage:
    python tools/outdiff.py A B

For the files of A and B (by relative path) it reports:
- files found on one side only, and the sha256 of each file whose bytes differ;
- for each differing CSV, the largest absolute and relative change per
  numeric column (rows matched by position), and how many cells differ in
  each other column;
- for a CSV with `user_id` and `attentive` columns (decisions.csv), the
  users whose decision flips;
- for each differing JSON file (fit.json), the keys whose values differ,
  as dotted paths;
- for each differing JSONL file, how many lines each side holds that the
  other does not (as multisets, so line order alone is no difference).

Exits 0 when both directories hold the same files with the same bytes, 1
when they differ, and 2 when either is not a directory.
"""

import csv
import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _files(root: Path) -> dict[str, Path]:
    return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}


def _rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _float(text: str | None) -> float | None:
    """`text` as a number; None for other text, or for a short row's missing cell."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _change(x: float, y: float) -> tuple[float, float]:
    """(absolute, relative) change from x to y; equal NaNs do not change."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    diff = abs(y - x)
    return diff, diff / max(abs(x), abs(y))


def csv_changes(a: Path, b: Path) -> dict:
    """Per-column changes between two CSVs, rows matched by position."""
    (head_a, rows_a), (head_b, rows_b) = _rows(a), _rows(b)
    report: dict = {}
    if head_a != head_b:
        report["header"] = [head_a, head_b]
    if len(rows_a) != len(rows_b):
        report["rows"] = [len(rows_a), len(rows_b)]
    columns = {}
    for name in (h for h in head_a if h in head_b):
        pairs = [(ra[name], rb[name]) for ra, rb in zip(rows_a, rows_b)]
        numbers = [(_float(x), _float(y)) for x, y in pairs]
        if all(x is not None and y is not None for x, y in numbers):
            changes = [_change(x, y) for x, y in numbers]
            worst = [max((c[k] for c in changes), default=0.0) for k in (0, 1)]
            if any(worst):
                columns[name] = {"max_abs": worst[0], "max_rel": worst[1]}
        else:
            differ = sum(x != y for x, y in pairs)
            if differ:
                columns[name] = {"cells_differ": differ}
    if columns:
        report["columns"] = columns
    if {"user_id", "attentive"} <= set(head_a) & set(head_b):
        before = {r["user_id"]: r["attentive"] for r in rows_a}
        after = {r["user_id"]: r["attentive"] for r in rows_b}
        flips = sorted(u for u in before.keys() & after.keys() if before[u] != after[u])
        if flips:
            report["decision_flips"] = flips
    return report


def json_changes(x, y, prefix: str = "") -> list[str]:
    """Dotted paths of the keys whose values differ between two JSON values."""
    if isinstance(x, dict) and isinstance(y, dict):
        return [
            path
            for key in sorted(x.keys() | y.keys())
            for path in (
                json_changes(x[key], y[key], f"{prefix}{key}.")
                if key in x and key in y
                else [f"{prefix}{key}"]
            )
        ]
    return [] if x == y else [prefix.rstrip(".") or "(root)"]


def jsonl_changes(a: Path, b: Path) -> dict:
    lines_a = Counter(a.read_bytes().splitlines())
    lines_b = Counter(b.read_bytes().splitlines())
    return {
        "only_in_a": sum((lines_a - lines_b).values()),
        "only_in_b": sum((lines_b - lines_a).values()),
    }


def compare(a: Path, b: Path) -> dict:
    """The differences between output directories a and b; empty when none."""
    files_a, files_b = _files(a), _files(b)
    report: dict = {}
    for side, names in (("only_in_a", files_a.keys() - files_b.keys()),
                        ("only_in_b", files_b.keys() - files_a.keys())):
        if names:
            report[side] = sorted(names)
    changed = {}
    for name in sorted(files_a.keys() & files_b.keys()):
        pa, pb = files_a[name], files_b[name]
        digests = sha256_of(pa), sha256_of(pb)
        if digests[0] == digests[1]:
            continue
        entry: dict = {"sha256": list(digests)}
        if name.endswith(".csv"):
            entry.update(csv_changes(pa, pb))
        elif name.endswith(".jsonl"):
            entry.update(jsonl_changes(pa, pb))
        elif name.endswith(".json"):
            entry["keys"] = json_changes(
                json.loads(pa.read_text(encoding="utf-8")),
                json.loads(pb.read_text(encoding="utf-8")),
            )
        changed[name] = entry
    if changed:
        report["changed"] = changed
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    for root in (a, b):
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    report = compare(a, b)
    if not report:
        print(f"identical: {len(_files(a))} files")
        return 0
    print(json.dumps(report, indent=1, sort_keys=True))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
