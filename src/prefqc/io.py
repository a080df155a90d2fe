"""File formats: JSONL datasets, CSV reports, JSON configs.

Every format round-trips exactly: floats are serialized with repr (shortest
string that parses back to the same double), readers rebuild the library's
own types, and parse failures carry the file path and 1-based line number.
Every CSV file has one dialect, csv.writer's minimal quoting with "\\n" line
ends, except that a field holding a bare "\\r" is quoted too, so that a csv
reader does not split a line there. Writers go through a temp file plus
os.replace, so a crash mid-write never leaves a truncated output behind.
"""

import csv
import dataclasses
import io as _stdio
import json
import math
import os
import re
import sys
import tempfile
from itertools import chain
from json.scanner import make_scanner
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

from .em import ClampEvent, FitReport, RegularizerSpec
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

# Characters that make csv.writer quote a field.
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_quoted(text: str) -> str:
    """`text` as csv.writer writes it in a row of several fields.

    The writer ends its lines with "\\r\\n", so that it quotes a bare carriage
    return too: a csv reader splits an unquoted one as a line end.
    """
    buf = _stdio.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((text, "x"))
    return buf.getvalue()[:-4]


def _csv_fields(texts: Sequence[str]) -> Sequence[str]:
    """Each text as a CSV field: one that holds a comma, a quote or a line
    break is quoted by `_csv_quoted`, the others need no quoting."""
    if not _CSV_SPECIAL.search("".join(texts)):
        return texts
    return [_csv_quoted(t) if _CSV_SPECIAL.search(t) else t for t in texts]


def _spread(texts: list[str], inverse: np.ndarray) -> list[str]:
    """Each user's row text."""
    return list(map(texts.__getitem__, inverse.tolist()))


def _write_lines(path, header: Sequence[str], *columns: Sequence[str]) -> None:
    """A CSV file: its header's line, then line k joined from each column's
    k-th text (the last ending in a newline)."""
    lines = "".join(chain.from_iterable(zip(*columns)))
    atomic_write_text(path, ",".join(_csv_fields(header)) + "\n" + lines)


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """A CSV file of a header and rows of fields, each field spelled by str()."""
    lines = [",".join(_csv_fields([str(f) for f in row])) + "\n" for row in rows]
    _write_lines(path, header, lines)


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
# after a line break, so its memory does not grow with the file; a chunk's
# byte masks then stay in a core's cache.
_CHUNK_BYTES = 1 << 19
# A chunk with an id longer than this many bytes takes the per-line path.
_MAX_KEY_BYTES = 128

# A line write_annotation_columns writes: _HEAD, the user id, _MID, the
# item id, _TAIL, the label digit, "}" and the line break.
_HEAD = b'{"user_id": "'
_MID = b'", "item_id": "'
_TAIL = b'", "label": '


def _pattern(text: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(mask, value) of 16 bytes as two little-endian words: the bytes of
    `text`, any byte after them, and "0" standing for "0" or "1"."""
    mask = bytes(0xFE if c == 0x30 else 0xFF for c in text).ljust(16, b"\0")
    return np.frombuffer(mask, "<u8"), np.frombuffer(text.ljust(16, b"\0"), "<u8")


_HEAD_16, _MID_16, _TAIL_16 = map(_pattern, (_HEAD, _MID, _TAIL + b"0}\n"))
# _KEEP[k] keeps the first k bytes of a little-endian word.
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _matches(a16: np.ndarray, at: np.ndarray, pattern) -> bool:
    """Whether the 16 bytes `a16[i]` from each of `at` match the pattern."""
    (mask_lo, mask_hi), (value_lo, value_hi) = pattern
    got = a16[at].view("<u8")
    return not (((got[::2] ^ value_lo) & mask_lo) | ((got[1::2] ^ value_hi) & mask_hi)).any()


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


def _certified_lines(a: np.ndarray, size: int, escapes: bool):
    """A chunk's id spans and labels, if every line is laid out as
    write_annotation_columns writes it; else None.

    `a` is the chunk's `size` bytes plus zero padding, and `escapes`
    whether the chunk holds a backslash (a byte search, far cheaper than a
    numpy pass). A certified line is _HEAD, the user id, _MID, the item id,
    _TAIL, "0" or "1" and "}", where no id holds a control byte or a
    quote, every backslash starts a \\uXXXX escape (the only escape
    write_annotation_columns writes), and no id is longer than
    _MAX_KEY_BYTES. json.loads reads such a line's ids as their bytes
    decoded from UTF-8 with the escapes decoded, and its label as the
    digit. Returns the (start, length) of each line's user id and item id,
    and its labels.
    """
    b = a[:size]
    lines = np.count_nonzero(b == 0x0A)
    if np.count_nonzero(b < 0x20) != lines:  # a control byte in an id
        return None
    if escapes and not _unicode_escapes(a, np.flatnonzero(b == 0x5C)):
        return None
    # Ten quotes a line: _HEAD's three, the one that ends the user id and
    # starts _MID, _MID's other three, the one that ends the item id and
    # starts _TAIL, and _TAIL's other two. The matches below pin them, line
    # after line, and the line break that ends each line.
    quotes = np.flatnonzero(b == 0x22)
    if len(quotes) != 10 * lines:
        return None
    quotes = quotes.reshape(-1, 10)
    user_end, item_end = quotes[:, 3], quotes[:, 7]
    end = item_end + len(_TAIL) + 2
    start = np.concatenate(([0], end[:-1] + 1))
    user_start, item_start = start + len(_HEAD), user_end + len(_MID)
    user_len, item_len = user_end - user_start, item_end - item_start
    if max(user_len.max(), item_len.max()) > _MAX_KEY_BYTES:
        return None
    a16 = np.ndarray((len(a) - 15,), dtype="V16", buffer=a, strides=(1,))
    if not (
        _matches(a16, start, _HEAD_16)
        and _matches(a16, user_end, _MID_16)
        and _matches(a16, item_end, _TAIL_16)
    ):
        return None
    labels = (a[end - 2] - 0x30).astype(np.int8)
    return (user_start, user_len), (item_start, item_len), labels


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _hashed(words: np.ndarray) -> np.ndarray:
    """One key per row of little-endian words: a 55-bit hash shifted up to
    bit 9, with bit 8 set, so its low byte is 0 and the key is not 0.

    Each word is folded in and mixed with splitmix64's finalizer. A zero
    word, past an id's end, leaves the hash as it is, so an id's key does
    not depend on how wide the rows are.
    """
    h = np.full(len(words), _MIX)
    for column in words.T:
        x = h ^ column
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        h = np.where(column != 0, x ^ (x >> np.uint64(31)), h)
    return (h << np.uint64(9)) | np.uint64(256)


# The key of an empty slot: no id has it, since its low byte is 0 but bit
# 8 is not set (see _SeenIds).
_NO_KEY = np.uint64(1 << 9)


class _SeenIds:
    """One id column's ids by code, and the id spellings a read has seen
    on the numpy path, in a hash table from each spelling's key to its
    entry: its code and its bytes, in the order seen.

    An id of at most 8 bytes is keyed by its bytes as one zero-padded
    word: no id holds a zero byte, so equal keys mean equal bytes, and only
    the empty id has a zero low byte. A longer id is keyed by _hashed of
    its bytes, and the bytes kept let a chunk in which two spellings share
    a key be sent down the per-line path. The table is open-addressed with
    linear probing and at most a quarter full, so a lookup takes about one
    probe however many ids the read has seen, and it doubles as it fills.

    While every spelling seen is an id's UTF-8 bytes, with no escape, each
    id has one spelling, a new key is a new id, and `ids` is the whole
    map. A chunk with a backslash, or one read line by line, needs `code`,
    the dict from id to code, built on first use; `ids` is then left as
    it was.
    """

    def __init__(self):
        self.ids: list[str] = []
        self._code: dict[str, int] | None = None
        self.entries = 0
        self.codes = np.zeros(1 << 9, dtype=np.intp)
        self.raw = np.zeros(1 << 9, dtype="S8")
        self.slot_keys = np.empty(0, dtype=np.uint64)
        self.slot_entry = np.empty(0, dtype=np.int32)
        self._rehash(1 << 11)

    @property
    def code(self) -> dict[str, int]:
        """Each id's code."""
        if self._code is None:
            self._code = dict(zip(self.ids, range(len(self.ids))))
        return self._code

    def id_list(self) -> list[str]:
        """The ids, in the order of their codes."""
        return self.ids if self._code is None else list(self._code)

    def _rehash(self, size: int) -> None:
        """Move the table's keys to a new one of `size` slots."""
        held = np.flatnonzero(self.slot_keys != _NO_KEY)
        keys, entry = self.slot_keys[held], self.slot_entry[held]
        self.shift = np.uint64(65 - size.bit_length())
        self.slot_keys = np.full(size, _NO_KEY)
        self.slot_entry = np.zeros(size, dtype=np.int32)
        self._put(keys, entry, self._home(keys))

    def _home(self, keys: np.ndarray) -> np.ndarray:
        h = keys * _MIX
        return (((h ^ (h >> np.uint64(31))) * _MIX) >> self.shift).astype(np.intp)

    def _probe(self, keys: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Each key's slot, probed from `slot` on: the one that holds it,
        else the first empty one."""
        todo = np.arange(len(keys))
        while len(todo):
            held = self.slot_keys[slot[todo]]
            todo = todo[(held != keys[todo]) & (held != _NO_KEY)]
            slot[todo] = (slot[todo] + 1) & (len(self.slot_keys) - 1)
        return slot

    def _put(self, keys, entry, slot) -> None:
        """Put distinct keys that the table does not hold in it, probing
        from `slot` on."""
        while len(keys):
            slot = self._probe(keys, slot)
            self.slot_keys[slot] = keys  # of keys that reach one slot, one is put
            put = self.slot_keys[slot] == keys
            self.slot_entry[slot[put]] = entry[put]
            keys, entry, slot = keys[~put], entry[~put], slot[~put]

    def _add(self, keys, codes, raw, slot) -> None:
        """Add new spellings, each key's probe having reached `slot`."""
        n, m = self.entries, self.entries + len(keys)
        if m > len(self.codes):
            self.codes, self.raw = (
                np.concatenate((x[:n], np.zeros(m, x.dtype))) for x in (self.codes, self.raw)
            )
        if raw.itemsize > self.raw.itemsize:
            self.raw = self.raw.astype(raw.dtype)
        self.codes[n:m], self.raw[n:m] = codes, raw
        self.entries = m
        if 4 * m > len(self.slot_keys):
            self._rehash(1 << (4 * m).bit_length())
            slot = self._home(keys)
        self._put(keys, np.arange(n, m), slot)

    def codes_of(self, a: np.ndarray, words: np.ndarray, start, length, escapes: bool):
        """The codes of the ids at `a[start:start+length]`, or None on a
        hash collision. Only spellings not seen before are decoded, and
        new ids take codes in order of first appearance. `escapes` is
        whether the chunk holds a backslash."""
        keys = words[start] & _KEEP[np.minimum(length, 8)]
        raw = keys.view("S8")  # each id's bytes, while none is longer
        wide = np.flatnonzero(length > 8)
        if len(wide):
            width = -(-int(length.max()) // 8)
            rows = np.lib.stride_tricks.sliding_window_view(a, 8 * width)[start]
            rows = rows.view("<u8")  # each id's bytes, zero past its end
            rows &= _KEEP[(length[:, None] - 8 * np.arange(width)).clip(0, 8)]
            raw = rows.view(f"S{8 * width}").ravel()
            keys[wide] = _hashed(rows[wide])
        slot = self._probe(keys, self._home(keys))
        entry = self.slot_entry[slot]
        seen = self.slot_keys[slot] == keys
        # Each spelling must have the bytes of the first one with its key,
        # before this chunk or in it.
        if len(wide) and (self.raw[entry[seen]] != raw[seen]).any():
            return None
        codes = self.codes[entry]
        new = np.flatnonzero(~seen)
        if not len(new):
            return codes
        uniq, inverse = np.unique(keys[new], return_inverse=True)
        one = np.empty(len(uniq), dtype=np.intp)
        one[inverse] = new  # a line with each new key
        if len(wide) and (raw[one][inverse] != raw[new]).any():
            return None
        order = first_seen(inverse)
        spelled = _unescaped(raw[one[order]].tolist())
        new_codes = np.empty(len(uniq), dtype=np.intp)
        if self._code is None and not escapes:
            new_codes[order] = np.arange(len(self.ids), len(self.ids) + len(uniq))
            self.ids += spelled
        else:
            code = self.code
            new_codes[order] = [code.setdefault(t, len(code)) for t in spelled]
        codes[new] = new_codes[inverse]
        self._add(uniq, new_codes, raw[one], slot[one])
        return codes


def _unescaped(raw: list[bytes]) -> list[str]:
    """The ids that certified lines' id bytes spell, \\uXXXX escapes decoded."""
    text = b"\n".join(raw).decode("utf-8")  # no id holds a line break
    if "\\" in text:
        return json.loads('["' + text.replace("\n", '", "') + '"]')
    return text.split("\n")


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
    users, items = _SeenIds(), _SeenIds()
    parts = []
    lines_before = 0
    with open(path, "rb") as fh:
        for piece in _line_chunks(fh):
            n_lines, columns = _chunk_columns(path, piece, lines_before, users, items)
            parts.append(columns)
            lines_before += n_lines
    columns = (
        np.concatenate([np.empty(0, dtype)] + [part[j] for part in parts])
        for j, dtype in enumerate((np.intp, np.intp, np.int8))
    )
    return AnnotationColumns(users.id_list(), items.id_list(), *columns)


def _chunk_columns(path, piece: bytes, lines_before: int, users, items):
    """One chunk's line count, and (user codes, item codes, labels) of its
    records in line order.

    Only a chunk whose first line starts as a written line tries the numpy
    path: a file in another layout pays nothing for it. New ids join
    `users` and `items` (_SeenIds) in the order they first appear.
    """
    if piece.startswith(_HEAD):
        a = np.frombuffer(piece + bytes(_MAX_KEY_BYTES), dtype=np.uint8)
        words = np.ndarray((len(a) - 7,), dtype="<u8", buffer=a, strides=(1,))
        escapes = b"\\" in piece
        certified = _certified_lines(a, len(piece), escapes)
        if certified is not None:
            user_span, item_span, labels = certified
            # On a collision the chunk goes line by line, which gives the
            # users coded here the same codes: codes go by id.
            user_codes = users.codes_of(a, words, *user_span, escapes)
            item_codes = None if user_codes is None else items.codes_of(a, words, *item_span, escapes)
            if item_codes is not None:
                return len(labels), (user_codes, item_codes, labels)
    text = piece.decode("utf-8").split("\n")
    user_codes, item_codes, labels = [], [], []
    user_code, item_code = users.code, items.code
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
        user_codes.append(user_code.setdefault(user_id, len(user_code)))
        item_codes.append(item_code.setdefault(item_id, len(item_code)))
        labels.append(label)
    return len(text) - 1, (
        np.array(user_codes, dtype=np.intp),
        np.array(item_codes, dtype=np.intp),
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


def located(path: str, build, **fields):
    """build(**fields); a ValueError it raises names `path`, a JSON path.

    A message that starts with one of the fields' names is raised again as
    `path.<message>`, so that it names the field's own path, and any other
    as `path: <message>`. An empty path leaves the message as it is.
    """
    try:
        return build(**fields)
    except ValueError as exc:
        if not path:
            raise
        dot = "." if str(exc).split(" ", 1)[0] in fields else ": "
        raise ValueError(f"{path}{dot}{exc}") from None


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _tagged_class(kind: str, table: dict[str, str], obj) -> type:
    """The class that the "type" tag of object `obj` names in `table`."""
    _require_object(kind, obj)
    tag = obj.get("type")
    name = table.get(tag) if isinstance(tag, str) else None
    if name is None:
        raise ValueError(f"unknown {kind} type {tag!r}")
    return _class(name)


def _decode(kind: str, table: dict[str, str], obj, path: str):
    """The dataclass instance an _encode dict at JSON path `path` describes.

    A field with a default may be left out, and keys that name no field are
    ignored. Each error names `path` as `located` does; a missing required
    field is `path.<field> is missing`, or with no path a KeyError naming it.
    """
    cls = located(path, lambda: _tagged_class(kind, table, obj))
    fields = [f.name for f in dataclasses.fields(cls)
              if f.name in obj or f.default is dataclasses.MISSING]
    missing = next((name for name in fields if name not in obj), None)
    if missing is not None and path:
        raise ValueError(f"{path}.{missing} is missing")
    return located(path, cls, **{name: _tuples(obj[name]) for name in fields})


# One table per kind, so that decode_prior rejects a rule's tag. Each tag
# maps to its class's public name: a fit meets only the fitted families and
# the regularizers, and so loads neither simulate nor filtering.
_PRIORS = {
    "two_point": "TwoPointPrior",
    "beta": "BetaPrior",
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


def decode_prior(obj: dict[str, Any], path: str = ""):
    return _decode("prior", _PRIORS, obj, path)


def encode_params(params: ModelParams) -> dict[str, Any]:
    return {
        "prior": encode_prior(params.prior),
        "mu": params.mu,
        "mu_mode": params.mu_mode,
    }


def decode_params(obj: dict[str, Any], path: str = "") -> ModelParams:
    return located(
        path,
        ModelParams,
        prior=decode_prior(obj["prior"], _join(path, "prior")),
        mu=obj["mu"],
        mu_mode=obj.get("mu_mode", "fixed"),
    )


def encode_rule(rule: "SelectionRule") -> dict[str, Any]:
    return _encode("rule", _RULES, rule)


def decode_rule(obj: dict[str, Any], path: str = "") -> "SelectionRule":
    return _decode("rule", _RULES, obj, path)


def encode_regularizer(reg: RegularizerSpec) -> dict[str, Any] | None:
    return None if reg is None else _encode("regularizer", _REGULARIZERS, reg)


def decode_regularizer(obj: dict[str, Any] | None, path: str = "") -> RegularizerSpec:
    return None if obj is None else _decode("regularizer", _REGULARIZERS, obj, path)


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


def decode_scenario(obj: dict[str, Any], path: str = "") -> "SimulationScenario":
    """The scenario a JSON object at JSON path `path` describes."""
    from .simulate import BetaPerItemP, SimulationScenario

    _require_object("scenario", obj)
    p_model = obj.get("per_item_p_model")
    return located(
        path,
        SimulationScenario,
        prior=decode_prior(obj["prior"], _join(path, "prior")),
        mu=obj["mu"],
        num_users=obj["num_users"],
        n_range=_tuples(obj["n_range"]),
        seed=obj.get("seed", 0),
        per_item_p_model=(
            None
            if p_model is None
            else located(_join(path, "per_item_p_model"), BetaPerItemP,
                         alpha=p_model["alpha"], beta=p_model["beta"])
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
    """A fit.json's fields, with params decoded; its flags must be JSON bools.

    infer flips labels on labels_flipped, so a string "false" would flip them.
    """
    obj = read_json(path)
    for key in ("labels_flipped", "converged"):
        if key in obj and not isinstance(obj[key], bool):
            got = json.dumps(obj[key])
            raise ParseError(path, None, f"{key} must be a JSON bool, got {got}")
    obj["params"] = decode_params(obj["params"], "params")
    obj["clamp_events"] = [
        ClampEvent(e["iteration"], e["parameter"], e["value"])
        for e in obj.get("clamp_events", [])
    ]
    return obj


def _param_columns(params: ModelParams) -> list[tuple[str, float]]:
    prior = params.prior
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

def write_posterior_rows(
    path,
    user_ids: Sequence[str],
    inverse: np.ndarray,
    n_labels: Sequence[int],
    map_eta: np.ndarray,
    mean_eta: np.ndarray,
    eta_stars: Sequence[float],
    tails: np.ndarray,
) -> None:
    """posteriors.csv: user k's id, then the label count, MAP, mean and tails
    (a column per entry of `eta_stars`) of row `inverse[k]`."""
    header = ["user_id", "n_labels", "map_eta", "mean_eta"]
    header += [f"tail_{s!r}" for s in eta_stars]
    texts = [
        f",{n},{m!r},{e!r}" + "".join([f",{p!r}" for p in t]) + "\n"
        for n, m, e, t in zip(n_labels, map_eta.tolist(), mean_eta.tolist(), tails.tolist())
    ]
    _write_lines(path, header, _csv_fields(user_ids), _spread(texts, inverse))


def write_posteriors(path, summaries: Sequence["PosteriorSummary"]) -> None:
    """posteriors.csv, each summary a row of its own; all must hold the same
    eta_stars."""
    if not summaries:
        raise ValueError("no summaries to write")
    stars = [s for s, _ in summaries[0].tail_probs]
    for summary in summaries:
        if [s for s, _ in summary.tail_probs] != stars:
            raise ValueError("summaries disagree on evaluated tail points")
    write_posterior_rows(
        path,
        [s.user_id for s in summaries],
        np.arange(len(summaries)),
        [s.n_labels for s in summaries],
        np.array([s.map_eta for s in summaries], dtype=float),
        np.array([s.mean_eta for s in summaries], dtype=float),
        [float(s) for s in stars],
        np.array([[p for _, p in s.tail_probs] for s in summaries], dtype=float),
    )


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


def write_decision_rows(
    path,
    user_ids: Sequence[str],
    attentive: Sequence[bool],
    rules: Iterable["SelectionRule"],
    scores: Iterable[float],
    inverse: np.ndarray | None = None,
) -> None:
    """decisions.csv: user k's id and decision, then the rule and score of
    row `inverse[k]` (row k when `inverse` is None)."""
    # Each rule object is encoded once. The key is its identity, not its
    # value: Threshold(0.0) == Threshold(-0.0), but they spell differently.
    encoded: dict[int, str] = {}

    def rule_field(rule: "SelectionRule") -> str:
        text = encoded.get(id(rule))
        if text is None:
            rule_json = json.dumps(encode_rule(rule), sort_keys=True)
            text = encoded[id(rule)] = _csv_fields([rule_json])[0]
        return text

    texts = [f",{rule_field(r)},{float(p)!r}\n" for r, p in zip(rules, scores)]
    _write_lines(
        path,
        _DECISION_HEADER,
        _csv_fields(user_ids),
        [",true" if a else ",false" for a in attentive],
        texts if inverse is None else _spread(texts, inverse),
    )


def write_decisions(path, decisions: Sequence["FilterDecision"]) -> None:
    """decisions.csv, one line per decision."""
    write_decision_rows(
        path,
        [d.user_id for d in decisions],
        [d.attentive for d in decisions],
        [d.rule for d in decisions],
        [d.score for d in decisions],
    )


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
