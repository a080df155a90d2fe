"""File formats: JSONL datasets, CSV reports, JSON configs.

Every format round-trips exactly: floats are serialized with repr (shortest
string that parses back to the same double), readers rebuild the library's
own types, and parse failures carry the file path and 1-based line number.
Writers go through a temp file plus os.replace, so a crash mid-write never
leaves a truncated output behind.
"""

import csv
import dataclasses
import io as _stdio
import json
import math
import os
import sys
import tempfile
from json.scanner import make_scanner
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

from .em import ClampEvent, FitReport, RegularizerSpec, family_of
from .model import AnnotationColumns, AnnotationRecord, ModelParams, first_seen

if TYPE_CHECKING:
    from .filtering import FilterDecision, PosteriorSummary, SelectionRule
    from .simulate import ScoredPair, SimulationScenario


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


# ------------------------------------------------------ the two file formats

def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _read_csv(path, convert, header: list[str] | None = None) -> list:
    """convert(row) for each row dict; a row it rejects is located by line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if header is not None and reader.fieldnames != header:
            raise ParseError(path, 1, f"expected header {','.join(header)}")
        out = []
        for row in reader:
            try:
                out.append(convert(row))
            except (KeyError, TypeError, ValueError) as exc:
                # line_num counts the physical lines read, blank ones included.
                raise ParseError(path, reader.line_num, f"bad row: {exc}") from None
    return out


def _jsonl_objects(path) -> Iterator[tuple[int, Any]]:
    """(1-based line number, parsed value) for each non-blank line."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"invalid JSON ({exc.msg})") from None
            yield line_no, obj


def _id_error(path, line_no: int, what: str, obj: dict, keys: tuple[str, ...]):
    """ParseError for ids that are not JSON strings (str() would merge 5 and "5")."""
    if any(obj[key] is None for key in keys):
        return ParseError(path, line_no, f"bad {what}: null {' or '.join(keys)}")
    key = next(key for key in keys if type(obj[key]) is not str)
    got = json.dumps(obj[key])
    return ParseError(path, line_no, f"bad {what}: {key} must be a JSON string, got {got}")


# ---------------------------------------------------------------- datasets

def _annotation_fields(path, line_no: int, line: str) -> tuple[str, str, int]:
    """(user_id, item_id, label) of one stripped line, or its ParseError.

    The definition of a valid record line; read_annotation_columns' fast
    path accepts exactly the lines this accepts, with the same values.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(path, line_no, f"invalid JSON ({exc.msg})") from None
    try:
        user_id, item_id, label = obj["user_id"], obj["item_id"], obj["label"]
    except (KeyError, TypeError) as exc:
        raise ParseError(path, line_no, f"bad record: {exc}") from None
    if type(user_id) is not str or type(item_id) is not str:
        raise _id_error(path, line_no, "record", obj, ("user_id", "item_id"))
    # Exact type check: a float would truncate, and bool is an int.
    if type(label) is not int or label not in (0, 1):
        raise ParseError(
            path,
            line_no,
            f"bad record: label must be the integer 0 or 1, got {json.dumps(label)}",
        )
    return user_id, item_id, label


# The reader takes the file in chunks of about this many bytes, each cut
# after a line break, so its memory does not grow with the file.
_CHUNK_BYTES = 1 << 20
# A chunk with an id longer than this many bytes takes the per-line path:
# a chunk's keys for a column are one row this wide per line.
_MAX_KEY_BYTES = 128

# A line write_annotation_columns writes: _HEAD, the user id, _MID, the
# item id, _TAIL, the label digit and "}".
_HEAD = b'{"user_id": "'
_MID = b'", "item_id": "'
_TAIL = b'", "label": '


def _template(text: bytes) -> list[tuple[int, np.uint64]]:
    """(offset, little-endian 8-byte word) reads that together cover `text`."""
    return [
        (at, np.uint64(int.from_bytes(text[at:at + 8], "little")))
        for at in sorted({*range(0, len(text) - 7, 8), len(text) - 8})
    ]


_HEAD_WORDS, _MID_WORDS, _TAIL_WORDS = map(_template, (_HEAD, _MID, _TAIL))
# _KEEP[k] keeps the first k bytes of a little-endian word.
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _matches(words: np.ndarray, at: np.ndarray, template) -> np.ndarray:
    """Whether the bytes from each of `at` begin with the template's."""
    ok = np.ones(len(at), dtype=bool)
    for offset, word in template:
        ok &= words[at + offset] == word
    return ok


def _line_chunks(fh) -> Iterator[bytes]:
    """The file's bytes in pieces that end with a line break.

    Line breaks are "\\r\\n", "\\r" and "\\n", each turned into "\\n" as text
    mode does, so pieces count lines as a text-mode file iterates them. A
    last line without a break gets one.
    """
    carry = b""
    while True:
        data = fh.read(_CHUNK_BYTES)
        buf = carry + data
        if not data:
            cut = len(buf)
        else:
            # A "\r" that ends the buffer may be the first half of "\r\n".
            cut = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1)) + 1
            if cut == 0:
                carry = buf
                continue
        piece, carry = buf[:cut], buf[cut:]
        if b"\r" in piece:
            piece = piece.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if piece and not piece.endswith(b"\n"):
            piece += b"\n"
        if piece:
            yield piece
        if not data:
            return


def _unicode_escapes(a: np.ndarray, at: np.ndarray) -> bool:
    """Whether each backslash at `at` is followed by "u" and four hex digits."""
    ok = a[at + 1] == 0x75
    for k in range(2, 6):
        c = a[at + k]
        ok &= ((c - 0x30) < 10) | (((c | 0x20) - 0x61) < 6)  # uint8 wraps
    return bool(ok.all())


def _certified_lines(a: np.ndarray, words: np.ndarray, size: int, escapes: bool):
    """A chunk's id spans and labels, if every line is laid out as
    write_annotation_columns writes it; else None.

    `a` is the chunk's `size` bytes plus zero padding, `words[i]` the 8
    bytes from `a[i]`, and `escapes` whether the chunk holds a backslash (a
    byte search, far cheaper than a numpy pass). A certified line is _HEAD,
    the user id, _MID, the item id, _TAIL, "0" or "1" and "}", where no id
    holds a control byte or a quote, every backslash starts a \\uXXXX
    escape (the only escape write_annotation_columns writes), and no id is
    longer than _MAX_KEY_BYTES. json.loads reads such a line's ids as their
    bytes decoded from UTF-8 with the escapes decoded, and its label as the
    digit. Returns the (start, length) of each line's user id and item id,
    and its labels.
    """
    # Control bytes (every "\n" among them), quotes and backslashes.
    b = a[:size]
    special = np.flatnonzero((b < 0x20) | (b == 0x22) | (b == 0x5C))
    if escapes:
        slash = a[special] == 0x5C
        if not _unicode_escapes(a, special[slash]):
            return None
        special = special[~slash]
    breaks = np.flatnonzero(a[special] == 0x0A)  # index in `special` of each "\n"
    # Ten quotes and the "\n" per line: the head's three quotes come first,
    # and the 4th and the 8th end the two ids.
    if np.any(np.diff(breaks, prepend=-1) != 11):
        return None
    end = special[breaks]
    start = np.concatenate(([0], end[:-1] + 1))
    user_end, item_end = special[breaks - 7], special[breaks - 3]
    ok = _matches(words, start, _HEAD_WORDS) & _matches(words, user_end, _MID_WORDS)
    ok &= _matches(words, item_end, _TAIL_WORDS)
    ok &= (end == item_end + len(_TAIL) + 2) & (a[end - 1] == 0x7D)
    ok &= (a[end - 2] | 1) == 0x31  # the label digit is 0 or 1
    user_start, item_start = start + len(_HEAD), user_end + len(_MID)
    user_len, item_len = user_end - user_start, item_end - item_start
    ok &= (user_len <= _MAX_KEY_BYTES) & (item_len <= _MAX_KEY_BYTES)
    if not ok.all():
        return None
    labels = (a[end - 2] - 0x30).astype(np.int8)
    return (user_start, user_len), (item_start, item_len), labels


def _first_seen_codes(
    a: np.ndarray, words: np.ndarray, start, length, code: dict, decode
):
    """The codes of the ids at `a[start:start+length]`, new ids joining
    `code` in order of first appearance.

    Ids are keyed by their bytes, zero-padded to a fixed width: one word
    when all fit in 8 bytes, else rows as wide as the longest. No id holds
    a zero byte, so equal keys mean equal bytes. `decode` turns each
    distinct key into its id, and codes go by the id, so two spellings of
    one id (an escaped and a plain one) share its code.
    """
    width = int(length.max(initial=0))
    if width <= 8:
        keys = words[start] & _KEEP[length]
    else:
        rows = np.lib.stride_tricks.sliding_window_view(a, width)[start]
        rows[np.arange(width) >= length[:, None]] = 0
        keys = rows.view(f"S{width}").ravel()
    uniq, inverse = np.unique(keys, return_inverse=True)
    by_first = first_seen(inverse)
    raw = uniq[by_first].view("S8") if width <= 8 else uniq[by_first]
    codes = np.empty(len(uniq), dtype=np.intp)
    codes[by_first] = [code.setdefault(decode(b), len(code)) for b in raw.tolist()]
    return codes[inverse]


def _unescaped(raw: bytes) -> str:
    """The id that a certified line's id bytes spell, \\uXXXX escapes decoded."""
    text = raw.decode("utf-8")
    return json.loads(f'"{text}"') if "\\" in text else text


def read_annotation_columns(path) -> AnnotationColumns:
    """Read an annotations file into columns, ids numbered by first appearance.

    The accepted input is that of _annotation_fields, line by line: the
    same lines are accepted, with the same ids, codes and labels, and the
    same lines rejected, with the same error; bytes that are not UTF-8
    raise UnicodeDecodeError, as a text-mode read does.

    The file is read in chunks of about _CHUNK_BYTES, each cut after a line
    break, and each chunk takes one of two paths. A chunk whose every line
    is laid out as write_annotation_columns writes it, with ids free of
    control bytes and quotes and no escape but \\uXXXX (see
    _certified_lines), is read with numpy. Any other chunk is read line by
    line by json's C scanner, the decoder json.loads itself uses: on a
    stripped line, json.loads succeeds exactly when one value spans the
    whole line. A line that fails a check there goes back through
    _annotation_fields, which raises the error for it.
    """
    user_code: dict[str, int] = {}
    item_code: dict[str, int] = {}
    parts = []
    lines_before = 0
    with open(path, "rb") as fh:
        for piece in _line_chunks(fh):
            n_lines, columns = _chunk_columns(
                path, piece, lines_before, user_code, item_code
            )
            parts.append(columns)
            lines_before += n_lines
    users, items, labels = (
        np.concatenate([np.empty(0, dtype)] + [part[j] for part in parts])
        for j, dtype in enumerate((np.intp, np.intp, np.int8))
    )
    return AnnotationColumns(list(user_code), list(item_code), users, items, labels)


def _chunk_columns(path, piece: bytes, lines_before: int, user_code, item_code):
    """One chunk's line count, and (user codes, item codes, labels) of its
    records in line order.

    Only a chunk whose first line starts as a written line tries the numpy
    path: a file in another layout pays nothing for it. New ids join
    `user_code` and `item_code` in the order they first appear.
    """
    if piece.startswith(_HEAD):
        a = np.frombuffer(piece + bytes(_MAX_KEY_BYTES), dtype=np.uint8)
        words = np.ndarray((len(a) - 7,), dtype="<u8", buffer=a, strides=(1,))
        escapes = b"\\" in piece
        certified = _certified_lines(a, words, len(piece), escapes)
        if certified is not None:
            user_span, item_span, labels = certified
            # Only a chunk with a backslash pays for a per-id escape check.
            decode = _unescaped if escapes else bytes.decode
            return len(labels), (
                _first_seen_codes(a, words, *user_span, user_code, decode),
                _first_seen_codes(a, words, *item_span, item_code, decode),
                labels,
            )
    text = piece.decode("utf-8").split("\n")
    users, items, labels = [], [], []
    scan = make_scanner(json.JSONDecoder())
    for k, line in enumerate(text[:-1]):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = scan(line, 0)
            user_id, item_id, label = obj["user_id"], obj["item_id"], obj["label"]
            exact = (
                end == len(line)
                and type(user_id) is str
                and type(item_id) is str
                and type(label) is int
                and (label == 0 or label == 1)
            )
        except (StopIteration, ValueError, KeyError, TypeError):
            exact = False
        if not exact:
            user_id, item_id, label = _annotation_fields(
                path, lines_before + k + 1, line
            )
        users.append(user_code.setdefault(user_id, len(user_code)))
        items.append(item_code.setdefault(item_id, len(item_code)))
        labels.append(label)
    return len(text) - 1, (
        np.array(users, dtype=np.intp),
        np.array(items, dtype=np.intp),
        np.array(labels, dtype=np.int8),
    )


def read_annotations(path) -> list[AnnotationRecord]:
    return read_annotation_columns(path).to_records()


def _json_ids(ids: Sequence) -> list[str]:
    return [json.dumps(x) for x in ids]


# The JSONL writers format each line with json.dumps' default separators
# (", " and ": ") and the keys in this order: the bytes json.dumps of the
# record dict gives. Line texts come from tables built once per id: an
# annotation line is its user's head joined to its (item, label) tail.

def _item_label_rows(columns: AnnotationColumns) -> np.ndarray:
    """Each record's row in a table of two rows per item, label 0 first."""
    return 2 * columns.items + columns.labels


def write_annotation_columns(path, columns: AnnotationColumns) -> None:
    users, items = _json_ids(columns.user_ids), _json_ids(columns.item_ids)
    heads = np.array([f'{{"user_id": {u}, "item_id": ' for u in users], dtype=object)
    tails = np.array(
        [f'{i}, "label": {z}}}\n' for i in items for z in (0, 1)], dtype=object
    )
    lines = np.empty(2 * len(columns), dtype=object)
    lines[0::2] = heads[columns.users]
    lines[1::2] = tails[_item_label_rows(columns)]
    atomic_write_text(path, "".join(lines.tolist()))


def write_annotations(path, records: Iterable[AnnotationRecord]) -> None:
    write_annotation_columns(path, AnnotationColumns.from_records(records))


def write_truth(path, truth: Iterable[tuple[str, float]]) -> None:
    _write_csv(path, ["user_id", "eta"], ([user_id, _fmt(eta)] for user_id, eta in truth))


def read_truth(path) -> list[tuple[str, float]]:
    return _read_csv(
        path, lambda row: (row["user_id"], float(row["eta"])), ["user_id", "eta"]
    )


def write_pair_columns(path, columns: AnnotationColumns) -> None:
    """DPO-style export: chosen side per item, 'A' when the label is 1."""
    lines = np.array(
        [
            f'{{"item_id": {i}, "chosen": "{side}"}}\n'
            for i in _json_ids(columns.item_ids)
            for side in "BA"
        ],
        dtype=object,
    )
    atomic_write_text(path, "".join(lines[_item_label_rows(columns)].tolist()))


def write_pairs(path, records: Iterable[AnnotationRecord]) -> None:
    """DPO-style export: chosen side per item, 'A' when the label is 1."""
    write_pair_columns(path, AnnotationColumns.from_records(records))


def read_pairs(path) -> list[tuple[str, str]]:
    out = []
    for line_no, obj in _jsonl_objects(path):
        try:
            item_id, chosen = obj["item_id"], obj["chosen"]
        except (KeyError, TypeError) as exc:
            raise ParseError(path, line_no, f"bad pair: {exc}") from None
        if type(item_id) is not str:
            raise _id_error(path, line_no, "pair", obj, ("item_id",))
        if chosen not in ("A", "B"):
            raise ParseError(path, line_no, f"chosen must be A or B, got {chosen!r}")
        out.append((item_id, chosen))
    return out


_SCORED_PAIR_HEADER = ["item_id", "score_a", "score_b"]


def read_scored_pairs(path) -> list["ScoredPair"]:
    from .simulate import ScoredPair

    return _read_csv(
        path,
        lambda row: ScoredPair(
            item_id=row["item_id"],
            score_a=float(row["score_a"]),
            score_b=float(row["score_b"]),
        ),
        _SCORED_PAIR_HEADER,
    )


def write_scored_pairs(path, pairs: Iterable["ScoredPair"]) -> None:
    _write_csv(
        path,
        _SCORED_PAIR_HEADER,
        ([p.item_id, _fmt(p.score_a), _fmt(p.score_b)] for p in pairs),
    )


# --------------------------------------------------- priors, params, rules

def _plain(value):
    """A field value as JSON holds it: tuples, nested ones too, as lists."""
    return [_plain(v) for v in value] if isinstance(value, (tuple, list)) else value


def _tuples(value):
    """A JSON field value as its dataclass holds it: lists as tuples."""
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _class(name: str) -> type:
    """The package's public class `name`; its module is imported on first use."""
    return getattr(sys.modules[__package__], name)


def _encode(kind: str, table: dict[str, str], value) -> dict[str, Any]:
    """{"type": tag, <field>: <value>, ...} in the dataclass's field order.

    The table's classes are tried in order, each imported only when reached:
    a value's own module is loaded already.
    """
    tag = next(
        (tag for tag, name in table.items() if isinstance(value, _class(name))), None
    )
    if tag is None:
        raise TypeError(f"cannot encode {kind} {value!r}")
    return {"type": tag} | {
        f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)
    }


def _require_object(kind: str, obj) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"a {kind} must be a JSON object, got {obj!r}")


def _decode(kind: str, table: dict[str, str], obj):
    """The dataclass instance an _encode dict describes.

    A field with a default may be left out; a missing required field raises
    KeyError naming it, and keys that name no field are ignored.
    """
    _require_object(kind, obj)
    tag = obj.get("type")
    name = table.get(tag) if isinstance(tag, str) else None
    if name is None:
        raise ValueError(f"unknown {kind} type {tag!r}")
    cls = _class(name)
    return cls(**{
        f.name: _tuples(obj[f.name])
        for f in dataclasses.fields(cls)
        if f.name in obj or f.default is dataclasses.MISSING
    })


# One table per kind, so that decode_prior rejects a rule's tag. Each tag
# maps to its class's public name: a fit meets only the fitted families and
# the regularizers, and so loads neither simulate nor filtering.
_PRIORS = {
    "two_point": "TwoPointPrior",
    "beta": "BetaPrior",
    "logistic_normal_mixture": "LogisticNormalMixturePrior",
    "beta_mixture": "BetaMixture",
    "logistic_normal": "LogisticNormal",
    "discrete_masses": "DiscreteMasses",
}
_RULES = {
    "top_fraction": "TopFraction",
    "threshold": "Threshold",
    "tail_probability": "TailProbability",
}
_REGULARIZERS = {"log_prior_on_mu": "LogPriorOnMu", "box_on_mu": "BoxOnMu"}


def encode_prior(prior) -> dict[str, Any]:
    return _encode("prior", _PRIORS, prior)


def decode_prior(obj: dict[str, Any]):
    return _decode("prior", _PRIORS, obj)


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


def encode_rule(rule: "SelectionRule") -> dict[str, Any]:
    return _encode("rule", _RULES, rule)


def decode_rule(obj: dict[str, Any]) -> "SelectionRule":
    return _decode("rule", _RULES, obj)


def encode_regularizer(reg: RegularizerSpec) -> dict[str, Any] | None:
    return None if reg is None else _encode("regularizer", _REGULARIZERS, reg)


def decode_regularizer(obj: dict[str, Any] | None) -> RegularizerSpec:
    return None if obj is None else _decode("regularizer", _REGULARIZERS, obj)


def encode_scenario(scenario: "SimulationScenario") -> dict[str, Any]:
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


def decode_scenario(obj: dict[str, Any]) -> "SimulationScenario":
    from .simulate import BetaPerItemP, SimulationScenario

    _require_object("scenario", obj)
    p_model = obj.get("per_item_p_model")
    return SimulationScenario(
        prior=decode_prior(obj["prior"]),
        mu=obj["mu"],
        num_users=obj["num_users"],
        n_range=_tuples(obj["n_range"]),
        seed=obj.get("seed", 0),
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
        "fallback_rows": report.fallback_rows,
        "newton_steps": report.newton_steps,
        "score_norm": report.score_norm,
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
    if family_of(prior) is None:
        raise TypeError("trajectories exist only for two-point and Beta fits")
    fields = dataclasses.fields(prior)
    return [(f.name, getattr(prior, f.name)) for f in fields] + [("mu", params.mu)]


def write_trajectory(path, report: FitReport) -> None:
    names = [name for name, _ in _param_columns(report.final_params)]
    rows = (
        [p.iteration, *(_fmt(v) for _, v in _param_columns(p.params)), _fmt(p.loglik)]
        for p in report.trajectory
    )
    _write_csv(path, ["iteration", *names, "loglik"], rows)


def read_trajectory(path) -> list[dict[str, float]]:
    return _read_csv(
        path,
        lambda row: {k: int(v) if k == "iteration" else float(v) for k, v in row.items()},
    )


# ------------------------------------------------- posteriors & decisions

def _tail_columns(summaries: Sequence["PosteriorSummary"]) -> list[float]:
    stars = [s for s, _ in summaries[0].tail_probs]
    for summary in summaries:
        if [s for s, _ in summary.tail_probs] != stars:
            raise ValueError("summaries disagree on evaluated tail points")
    return stars


def write_posteriors(path, summaries: Sequence["PosteriorSummary"]) -> None:
    if not summaries:
        raise ValueError("no summaries to write")
    stars = _tail_columns(summaries)
    header = ["user_id", "n_labels", "map_eta", "mean_eta"]
    header += [f"tail_{_fmt(s)}" for s in stars]
    rows = (
        [s.user_id, s.n_labels, _fmt(s.map_eta), _fmt(s.mean_eta)]
        + [_fmt(p) for _, p in s.tail_probs]
        for s in summaries
    )
    _write_csv(path, header, rows)


def _posterior_row(row: dict[str, str]) -> dict[str, Any]:
    return {
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


def read_posteriors(path) -> list[dict[str, Any]]:
    return _read_csv(path, _posterior_row)


_DECISION_HEADER = ["user_id", "attentive", "rule", "score"]
_ATTENTIVE = {"true": True, "false": False}


def write_decisions(path, decisions: Sequence["FilterDecision"]) -> None:
    # Each rule object is encoded once. The key is its identity, not its
    # value: Threshold(0.0) == Threshold(-0.0), but they spell differently.
    encoded: dict[int, str] = {}

    def rule_json(rule: "SelectionRule") -> str:
        text = encoded.get(id(rule))
        if text is None:
            text = encoded[id(rule)] = json.dumps(encode_rule(rule), sort_keys=True)
        return text

    rows = (
        [d.user_id, "true" if d.attentive else "false", rule_json(d.rule), _fmt(d.score)]
        for d in decisions
    )
    _write_csv(path, _DECISION_HEADER, rows)


def read_decisions(path) -> list["FilterDecision"]:
    from .filtering import FilterDecision

    # infer writes one rule text on every row, so each distinct text is
    # decoded once. The key is the text, not the rule: -0.0 and 0.0 stay apart.
    decoded: dict[str, "SelectionRule"] = {}

    def rule_of(text: str) -> "SelectionRule":
        rule = decoded.get(text)
        if rule is None:
            rule = decoded[text] = decode_rule(json.loads(text))
        return rule

    return _read_csv(
        path,
        lambda row: FilterDecision(
            user_id=row["user_id"],
            attentive=_ATTENTIVE[row["attentive"]],
            rule=rule_of(row["rule"]),
            score=float(row["score"]),
        ),
        _DECISION_HEADER,
    )


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
    "converged",
    "iterations_mean",
    "delta_mean",
    "delta_std",
    "accuracy_mean",
    "accuracy_std",
    "note",
]


def write_sweep(path, rows: Sequence[dict[str, Any]]) -> None:
    cells = (
        [
            _fmt(row[c])
            if isinstance(row.get(c), float) and math.isfinite(row[c])
            else ("" if row.get(c) is None else row.get(c))
            for c in SWEEP_COLUMNS
        ]
        for row in rows
    )
    _write_csv(path, SWEEP_COLUMNS, cells)


def read_sweep(path) -> list[dict[str, Any]]:
    return _read_csv(path, dict)
