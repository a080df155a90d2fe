"""The columnar annotation path against the per-record reference loops.

`reference` holds plain per-record implementations of reading, grouping,
filtering and writing annotations. The library's column code and its
record wrappers must give the same records, histories, bytes and errors
(type, message and line) on every input, well-formed or not.
"""

import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from prefqc import (
    AnnotationRecord,
    EmConfig,
    FilterDecision,
    MissingDecisionError,
    ParseError,
    QuadratureGrid,
    Threshold,
    TopFraction,
    em_fit,
    filter_dataset,
    histories_from_records,
    select_users,
    summarize_posterior,
)
from prefqc import io as fio
from prefqc.cli import EXIT_OK, EXIT_VALIDATION, main
from prefqc.filtering import filter_mask
from prefqc.model import AnnotationColumns, UserHistory, user_counts

USER_IDS = ["u0", "u1", "é", 'a"b', "x\\y/z", "雪", "\u2028", "😀", "\x85", ""]
ITEM_IDS = ["i0", "i1", "i2", "ü", "\t", "q/\u0001", "𝔸"]
PADDING = ["", " ", "\t", " \t ", "\xa0", "\u2028", "\x0c"]


def _escape_all(text: str) -> str:
    """A JSON string literal with every character written as \\uXXXX."""
    units = text.encode("utf-16-be")
    return '"' + "".join(
        f"\\u{int.from_bytes(units[k:k + 2], 'big'):04x}" for k in range(0, len(units), 2)
    ) + '"'


@st.composite
def good_lines(draw) -> str:
    """One valid record line, written in any of the ways JSON allows."""
    user_id = draw(st.sampled_from(USER_IDS))
    item_id = draw(st.sampled_from(ITEM_IDS))
    label = draw(st.sampled_from([0, 1]))
    style = draw(
        st.sampled_from(["canonical", "raw", "compact", "escaped", "reordered", "extra"])
    )
    obj = {"user_id": user_id, "item_id": item_id, "label": label}
    if style == "canonical":
        line = json.dumps(obj)
    elif style == "raw":
        line = json.dumps(obj, ensure_ascii=False)
    elif style == "compact":
        line = json.dumps(obj, separators=(",", ":"))
    elif style == "escaped":
        line = (
            f'{{"user_id":{_escape_all(user_id)}, "item_id" : {_escape_all(item_id)},'
            f'"label":{label}}}'
        )
    elif style == "reordered":
        keys = draw(st.permutations(list(obj)))
        line = json.dumps({k: obj[k] for k in keys})
    else:
        # Extra keys, and a repeated key whose last value wins.
        line = '{"user_id": "shadowed", "note": [1, {"a": null}], ' + json.dumps(obj)[1:]
    return draw(st.sampled_from(PADDING)) + line + draw(st.sampled_from(PADDING))


BAD_LABELS = [2, -1, 1.0, 0.0, True, False, "1", None, 0.5, [1], 1e0]
BAD_IDS = [5, None, True, [1], {"x": 1}, 1.5]


@st.composite
def bad_lines(draw) -> str:
    """A line (or lines) that the reader must reject."""
    obj = {
        "user_id": draw(st.sampled_from(USER_IDS)),
        "item_id": draw(st.sampled_from(ITEM_IDS)),
        "label": draw(st.sampled_from([0, 1])),
    }
    kinds = ["label", "id", "missing", "multiline", "two", "scalar", "garbage", "bom", "nan"]
    kind = draw(st.sampled_from(kinds))
    if kind == "label":
        obj["label"] = draw(st.sampled_from(BAD_LABELS))
    elif kind == "id":
        obj[draw(st.sampled_from(["user_id", "item_id"]))] = draw(st.sampled_from(BAD_IDS))
    elif kind == "missing":
        del obj[draw(st.sampled_from(list(obj)))]
    elif kind == "multiline":
        return json.dumps(obj, indent=draw(st.sampled_from([1, 2, "\t"])))
    elif kind == "two":
        return json.dumps(obj) + draw(st.sampled_from(["", " ", "\t"])) + json.dumps(obj)
    elif kind == "scalar":
        return draw(st.sampled_from(["[1, 2]", '"s"', "5", "null", "true", "[]", "{}"]))
    elif kind == "garbage":
        return draw(st.sampled_from(["{", "nope", '{"user_id": "u"', "{'a': 1}", '"\\x"']))
    elif kind == "bom":
        return "\ufeff" + json.dumps(obj)
    else:
        return json.dumps(obj).replace(f'"label": {obj["label"]}', '"label": NaN')
    return json.dumps(obj)


@st.composite
def annotation_files(draw) -> bytes:
    """Files of valid lines, blank lines and at most one bad line."""
    lines = draw(
        st.lists(
            st.one_of(good_lines(), st.sampled_from(["", "   ", " \t"])), max_size=12
        )
    )
    bad = draw(st.none() | bad_lines())
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    newlines = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + nl for line, nl in zip(lines, newlines))
    if lines and draw(st.booleans()):
        text = text[: -len(newlines[-1])]  # no final newline
    if draw(st.sampled_from([False] * 9 + [True])):
        text = "\ufeff" + text
    return text.encode("utf-8")


def _outcome(func, *args):
    """What a call returned, or the error it raised, in comparable form."""
    try:
        return "ok", func(*args)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line_no
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _column_histories(path):
    """Each user's (sum_z, n), as `user_counts` gives it from the file's columns."""
    columns = fio.read_annotation_columns(path)
    codes, sum_z, n = user_counts(columns)
    return [
        UserHistory(columns.user_ids[c], s, k)
        for c, s, k in zip(codes.tolist(), sum_z.tolist(), n.tolist())
    ]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("columnar")


class TestReader:
    @settings(max_examples=300)
    @given(data=annotation_files())
    def test_reader_matches_reference(self, workdir, data):
        path = workdir / "annotations.jsonl"
        path.write_bytes(data)
        expected = _outcome(reference.read_annotations, path)
        assert _outcome(fio.read_annotations, path) == expected
        if expected[0] == "ok":
            assert all(type(r.label) is int for r in fio.read_annotations(path))
            columns = fio.read_annotation_columns(path)
            assert columns.labels.dtype == np.int8
            assert columns.to_records() == expected[1]

    @given(data=annotation_files())
    def test_reader_matches_reference_after_a_written_line(self, workdir, data):
        # A chunk whose first line is written as the writer writes it tries
        # the numpy pass; any other line in it sends the chunk line by line.
        path = workdir / "after_written.jsonl"
        path.write_bytes(_written([("u0", "i0", 1)]) + data)
        expected = _outcome(reference.read_annotations, path)
        assert _outcome(fio.read_annotations, path) == expected

    # The reader takes its file in chunks; tiny ones put a seam in every line.
    @pytest.mark.parametrize("chunk_bytes", [1, 7, 64])
    @settings(max_examples=100)
    @given(data=annotation_files())
    def test_reader_matches_reference_in_small_chunks(self, workdir, chunk_bytes, data):
        path = workdir / f"chunked_{chunk_bytes}.jsonl"
        path.write_bytes(data)
        expected = _outcome(reference.read_annotations, path)
        with mock.patch.object(fio, "_CHUNK_BYTES", chunk_bytes):
            assert _outcome(fio.read_annotations, path) == expected

    @given(data=annotation_files())
    def test_grouping_matches_reference(self, workdir, data):
        path = workdir / "annotations.jsonl"
        path.write_bytes(data)
        try:
            records = reference.read_annotations(path)
        except ParseError:
            return
        expected = _outcome(reference.histories_from_records, records)
        assert _outcome(histories_from_records, records) == expected
        assert _outcome(_column_histories, path) == expected

    @pytest.mark.parametrize(
        "bad",
        [json.dumps({"user_id": "u", "item_id": "j", "label": z}) for z in BAD_LABELS]
        + [json.dumps({"user_id": x, "item_id": "j", "label": 1}) for x in BAD_IDS]
        + [json.dumps({"user_id": "u", "item_id": x, "label": 0}) for x in BAD_IDS]
        + ['{"user_id": "u", "item_id": "j", "label": NaN}', '{"item_id": "j", "label": 1}']
        + ["[1, 2]", '"s"', "5", "null", "true", "[]", "{}", "{", "nope", "{'a': 1}"]
        + ['{"user_id": "u", "item_id": "j", "label": 1} {"label": 0}', '"\\x"']
        + ['\ufeff{"user_id": "u", "item_id": "j", "label": 1}', '{"user_id": "u",']
        # The writer's layout around the wrong keys.
        + ['{"user_ix": "u", "item_id": "j", "label": 1}',
           '{"user_id": "u", "item_ix": "j", "label": 1}',
           '{"user_id": "u", "a": "j", "label": 1}',
           '{"user_id": "u", "item_id": "j", "labex": 1}'],
    )
    def test_each_bad_line_matches_reference(self, tmp_path, bad):
        path = tmp_path / "a.jsonl"
        good = json.dumps({"user_id": "u", "item_id": "i", "label": 1})
        path.write_text(f"{good}\n\n{bad}\n{good}\n", encoding="utf-8")
        expected = _outcome(reference.read_annotations, path)
        assert expected[0] == "ParseError" and expected[2] == 3
        assert _outcome(fio.read_annotations, path) == expected

    def test_reader_keeps_first_error_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        good = json.dumps({"user_id": "u", "item_id": "i", "label": 1})
        path.write_text(f"{good}\n\n{good[:-1]}\n{good} {good}\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            fio.read_annotation_columns(path)
        assert info.value.line_no == 3
        assert str(info.value).endswith("invalid JSON (Expecting ',' delimiter)")

    def test_ids_share_codes_in_first_seen_order(self, tmp_path):
        path = tmp_path / "a.jsonl"
        rows = [("b", "x", 1), ("a", "y", 0), ("b", "y", 0), ("c", "x", 1)]
        reference.write_annotations(path, [AnnotationRecord(*r) for r in rows])
        columns = fio.read_annotation_columns(path)
        assert columns.user_ids == ["b", "a", "c"]
        assert columns.item_ids == ["x", "y"]
        assert columns.users.tolist() == [0, 1, 0, 2]
        assert columns.items.tolist() == [0, 1, 1, 0]
        assert columns.labels.tolist() == [1, 0, 0, 1]


def _written(rows) -> bytes:
    """The bytes write_annotation_columns gives for (user, item, label) rows."""
    return "".join(
        json.dumps({"user_id": u, "item_id": i, "label": z}) + "\n" for u, i, z in rows
    ).encode("utf-8")


def _same_as_reference(path, chunk_bytes: int) -> tuple:
    """The reader's outcome on `path` with the given chunk size, checked
    against the reference: records, id order, codes, dtypes and errors."""
    expected = _outcome(reference.read_annotations, path)
    with mock.patch.object(fio, "_CHUNK_BYTES", chunk_bytes):
        got = _outcome(fio.read_annotation_columns, path)
    if expected[0] != "ok":
        assert got == expected
        return got
    columns = got[1]
    records = expected[1]
    assert columns.to_records() == records
    assert columns.user_ids == list(dict.fromkeys(r.user_id for r in records))
    assert columns.item_ids == list(dict.fromkeys(r.item_id for r in records))
    assert (columns.users.dtype, columns.items.dtype, columns.labels.dtype) == (
        np.intp, np.intp, np.int8
    )
    return got


class TestChunkSeams:
    """Chunk boundaries, line breaks and the two paths of the reader."""

    ROWS = [(f"u{k % 5}", f"i{k % 7}", k % 2) for k in range(40)]

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 64, 1 << 20])
    def test_crlf_split_across_a_chunk_boundary(self, tmp_path, chunk_bytes):
        lines = _written(self.ROWS).decode().splitlines()
        lines[-1] = lines[-1].replace('"label": ', '"label": 7, "x": ')
        path = tmp_path / "a.jsonl"
        path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        # The first read ends between the first "\r" and its "\n"; the bad
        # last line shows that the line count holds after each seam.
        for size in (chunk_bytes, len(lines[0]) + 1):
            assert _same_as_reference(path, size)[2] == len(lines)
        path.write_bytes("\r".join(lines).encode())  # old Mac breaks, no final one
        assert _same_as_reference(path, chunk_bytes)[2] == len(lines)

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 64, 1 << 20])
    def test_no_final_newline_and_bom(self, tmp_path, chunk_bytes):
        path = tmp_path / "a.jsonl"
        data = _written(self.ROWS)[:-1]
        path.write_bytes(data)
        assert _same_as_reference(path, chunk_bytes)[0] == "ok"
        path.write_bytes("\ufeff".encode() + data)
        got = _same_as_reference(path, chunk_bytes)
        assert got[0] == "ParseError" and got[2] == 1

    @pytest.mark.parametrize("chunk_bytes", [7, 64, 1000])
    @pytest.mark.parametrize("bad_line", [2, 25, 40])
    def test_bad_line_in_a_later_chunk_keeps_its_number(self, tmp_path, chunk_bytes, bad_line):
        lines = _written(self.ROWS).decode().splitlines()
        lines[bad_line - 1] = lines[bad_line - 1].replace('"label": ', '"label": 7, "x": ')
        lines[5] = ""  # a blank line before it still counts
        path = tmp_path / "a.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = _same_as_reference(path, chunk_bytes)
        assert got[0] == "ParseError" and got[2] == bad_line

    @pytest.mark.parametrize("width", [1, 8, 9, 36, 200])
    @pytest.mark.parametrize("chunk_bytes", [64, 1 << 20])
    def test_writer_format_ids_of_each_width(self, tmp_path, width, chunk_bytes):
        rng = random.Random(width)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_ ./:~!#$%&'()*+,;<=>?@[]^`{|}"
        users = ["".join(rng.choices(alphabet, k=width)) for _ in range(6)]
        items = ["".join(rng.choices(alphabet, k=width)) for _ in range(9)]
        rows = [(rng.choice(users), rng.choice(items), rng.randrange(2)) for _ in range(300)]
        data = _written(rows)
        path = tmp_path / "a.jsonl"
        path.write_bytes(data)
        with mock.patch.object(fio, "make_scanner", wraps=fio.make_scanner) as scanner:
            _same_as_reference(path, chunk_bytes)
        # Ids up to _MAX_KEY_BYTES long take the numpy path, longer ones the
        # per-line scanner.
        assert scanner.called == (width > fio._MAX_KEY_BYTES)

    def test_only_the_chunk_with_an_escaped_id_is_read_line_by_line(self, tmp_path):
        rows = [(f"user{k % 13}", f"item{k % 17}", k % 2) for k in range(200)]
        path = tmp_path / "a.jsonl"
        scanned = []
        chunk_columns = fio._chunk_columns

        def spy(path, piece, lines_before, *codes):
            calls = scanner.call_count
            n_lines, columns = chunk_columns(path, piece, lines_before, *codes)
            if scanner.call_count > calls:
                scanned.append(range(lines_before, lines_before + n_lines))
            return n_lines, columns

        with mock.patch.object(fio, "make_scanner", wraps=fio.make_scanner) as scanner, \
                mock.patch.object(fio, "_chunk_columns", spy):
            path.write_bytes(_written(rows))
            _same_as_reference(path, 512)
            assert scanned == []
            rows[120] = ("a\\b", "item3", 1)  # json.dumps writes "a\\\\b"
            path.write_bytes(_written(rows))
            _same_as_reference(path, 512)
        assert len(scanned) == 1 and 120 in scanned[0] and len(scanned[0]) < len(rows)

    @pytest.mark.parametrize("chunk_bytes", [64, 512, 1 << 20])
    def test_written_non_ascii_ids_take_the_numpy_path(self, tmp_path, chunk_bytes):
        # json.dumps writes each of these with \uXXXX escapes, a character
        # outside the BMP as a surrogate pair.
        ids = ["é", "雪", "😀", "\u2028", "\x85", "a\x7fb", "naïve-ü"]
        rng = random.Random(chunk_bytes)
        users = ids + [f"user{k}" for k in range(5)]
        items = [f"{rng.choice(ids)}{k}" for k in range(20)]
        rows = [(rng.choice(users), rng.choice(items), rng.randrange(2)) for _ in range(300)]
        columns = AnnotationColumns.from_records(
            [AnnotationRecord(u, i, z) for u, i, z in rows]
        )
        path = tmp_path / "a.jsonl"
        fio.write_annotation_columns(path, columns)
        assert b"\\u" in path.read_bytes()
        with mock.patch.object(fio, "make_scanner", wraps=fio.make_scanner) as scanner:
            got = _same_as_reference(path, chunk_bytes)
        assert not scanner.called
        assert got[1].user_ids == columns.user_ids

    def test_escaped_and_plain_spellings_of_an_id_share_its_code(self, tmp_path):
        # Writer-layout lines whose ids spell one id in several ways: plain,
        # \uXXXX in either case, and escapes of a quote and a backslash.
        spellings = [
            ("A", "A"),
            ("\\u0041", "A"),
            ("\\u00e9", "é"),
            ("\\u00E9", "é"),
            ("é", "é"),
            ("\\ud83d\\ude00", "😀"),
            ("q\\u0022q", 'q"q'),
            ("s\\u005cs", "s\\s"),
        ]
        lines = [
            f'{{"user_id": "{raw}", "item_id": "i{k}", "label": {k % 2}}}\n'
            for k, (raw, _) in enumerate(spellings * 3)
        ]
        path = tmp_path / "a.jsonl"
        path.write_bytes("".join(lines).encode("utf-8"))
        with mock.patch.object(fio, "make_scanner", wraps=fio.make_scanner) as scanner:
            got = _same_as_reference(path, 1 << 20)
        assert not scanner.called
        assert got[1].user_ids == ["A", "é", "😀", 'q"q', "s\\s"]
        assert got[1].users.tolist()[:8] == [0, 0, 1, 1, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "raw", ["\\u00g9", "\\u00e", "\\x41", "\\\\u0041", "\\n", "\\/", "\\U0041"]
    )
    def test_other_backslashes_send_the_chunk_line_by_line(self, tmp_path, raw):
        lines = _written(self.ROWS).decode().splitlines(keepends=True)
        lines[7] = f'{{"user_id": "x{raw}", "item_id": "i0", "label": 1}}\n'
        path = tmp_path / "a.jsonl"
        path.write_bytes("".join(lines).encode("utf-8"))
        with mock.patch.object(fio, "make_scanner", wraps=fio.make_scanner) as scanner:
            _same_as_reference(path, 1 << 20)
        assert scanner.called

    @pytest.mark.parametrize("chunk_bytes", [7, 64, 1 << 20])
    def test_non_ascii_and_escaped_ids_mixed_with_certified_lines(self, tmp_path, chunk_bytes):
        rng = random.Random(chunk_bytes)
        ids = ["u0", "é", "雪", "😀", "\u2028", 'a"b', "x\\y", "\t", ""]
        lines = [json.dumps({"user_id": "u0", "item_id": "u0", "label": 1})]
        for _ in range(200):
            user_id, item_id = rng.choice(ids), rng.choice(ids)
            obj = {"user_id": user_id, "item_id": item_id, "label": rng.randrange(2)}
            style = rng.randrange(4)
            if style == 0:
                lines.append(json.dumps(obj))  # escaped as the writer does
            elif style == 1:
                lines.append(json.dumps(obj, ensure_ascii=False))  # raw UTF-8
            elif style == 2:
                lines.append(json.dumps(obj, separators=(",", ":")))
            else:
                lines.append(" " + json.dumps(obj) + "\t")
        path = tmp_path / "a.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _same_as_reference(path, chunk_bytes)

    def test_invalid_utf8_is_rejected_on_both_paths(self, tmp_path):
        good = _written([("u", "i", 1)])
        for bad in (b'{"user_id": "\xff", "item_id": "i", "label": 1}\n', b"\xff\n"):
            path = tmp_path / "a.jsonl"
            path.write_bytes(good + bad + good)
            with pytest.raises(UnicodeDecodeError):
                reference.read_annotations(path)
            with pytest.raises(UnicodeDecodeError):
                fio.read_annotation_columns(path)


def _line(user_raw: str, item_raw: str, label: int) -> str:
    """A writer-layout line with the ids' JSON spellings as given."""
    return f'{{"user_id": "{user_raw}", "item_id": "{item_raw}", "label": {label}}}\n'


class TestSeenIds:
    """The numpy path decodes each id spelling once per read, keyed by its
    bytes when short and by a hash of them when long."""

    # Plain, escaped and long spellings, users and items disjoint.
    USERS = ["u0", "u1", "\\u00e9", "\\u00e9\\u00e9", "a-user-id-longer-than-8", "usr\\u96ea9"]
    ITEMS = ["i0", "item-with-a-long-name-%d", "\\ud83d\\ude00", "i\\u0041"]

    def _file(self, tmp_path) -> tuple:
        rng = random.Random(5)
        items = [raw % k if "%d" in raw else raw for raw in self.ITEMS for k in range(3)]
        lines = [
            _line(rng.choice(self.USERS), rng.choice(items), rng.randrange(2))
            for _ in range(400)
        ]
        path = tmp_path / "a.jsonl"
        path.write_bytes("".join(lines).encode("utf-8"))
        return path, {*self.USERS, *items}

    @pytest.mark.parametrize("chunk_bytes", [64, 4096, None])
    def test_each_raw_spelling_is_decoded_once(self, tmp_path, chunk_bytes):
        path, spellings = self._file(tmp_path)
        chunk_bytes = chunk_bytes or fio._CHUNK_BYTES
        with mock.patch.object(fio, "_unescaped", wraps=fio._unescaped) as decode, \
                mock.patch.object(fio, "make_scanner", wraps=fio.make_scanner) as scanner:
            _same_as_reference(path, chunk_bytes)
        assert not scanner.called
        decoded = [raw.decode("utf-8") for call in decode.call_args_list for raw in call.args[0]]
        assert sorted(decoded) == sorted(spellings)

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 64])
    def test_spellings_across_chunks_get_the_reference_codes(self, tmp_path, chunk_bytes):
        # "A" first plain then escaped, "é" first escaped then as UTF-8
        # bytes, and an id longer than 8 bytes, plain and escaped.
        rows = [
            ("A", "\\u00e9", 1),
            ("long-user-id", "x", 0),
            ("\\u0041", "é", 1),
            ("b", "long-user-\\u0069d", 0),
            ("long-user-\\u0069d", "long-user-id", 1),
            ("é", "\\u0041", 0),
            ("A", "é", 1),
        ]
        path = tmp_path / "a.jsonl"
        path.write_bytes("".join(_line(*row) for row in rows).encode("utf-8"))
        with mock.patch.object(fio, "make_scanner", wraps=fio.make_scanner) as scanner:
            got = _same_as_reference(path, chunk_bytes)
        assert not scanner.called
        assert got[1].user_ids == ["A", "long-user-id", "b", "é"]
        assert got[1].item_ids == ["é", "x", "long-user-id", "A"]

    @pytest.mark.parametrize("chunk_bytes", [64, 4096, 1 << 19])
    def test_a_forced_hash_collision_gives_the_same_columns(self, tmp_path, chunk_bytes):
        path, _ = self._file(tmp_path)
        with mock.patch.object(fio, "_CHUNK_BYTES", chunk_bytes):
            plain = fio.read_annotation_columns(path)
            # Every id longer than 8 bytes gets one key.
            with mock.patch.object(
                fio, "_hashed", lambda words: np.full(len(words), 256, dtype=np.uint64)
            ), mock.patch.object(fio, "make_scanner", wraps=fio.make_scanner) as scanner:
                collided = fio.read_annotation_columns(path)
        assert scanner.called  # the chunks with a collision went line by line
        assert (collided.user_ids, collided.item_ids) == (plain.user_ids, plain.item_ids)
        for name in ("users", "items", "labels"):
            got, want = getattr(collided, name), getattr(plain, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        _same_as_reference(path, chunk_bytes)

    def test_simulated_item_ids_get_distinct_hashes(self):
        # simulate's item ids: a user id "u" + 5 digits, "-" and 4 digits,
        # 11 bytes, so keyed by _hashed. Each word must be mixed into the
        # hash of the words before it: xoring one hash per word together
        # gives some of these a common key.
        user, item = np.divmod(np.arange(1_000_000), 50)
        ids = np.zeros((len(user), 16), dtype=np.uint8)
        ids[:, 0], ids[:, 6] = ord("u"), ord("-")
        for k in range(5):
            ids[:, 5 - k] = 0x30 + user // 10**k % 10
        for k in range(4):
            ids[:, 10 - k] = 0x30 + item // 10**k % 10
        assert ids[123_456].tobytes().rstrip(b"\0") == b"u02469-0006"
        keys = fio._hashed(ids.view("<u8"))
        assert len(np.unique(keys)) == len(keys)

    @pytest.mark.parametrize("chunk_bytes", [4096, None])
    def test_thousands_of_new_ids_in_a_chunk(self, tmp_path, chunk_bytes):
        # More new spellings in one chunk than the first table has slots,
        # short and long ones, each item id once, as simulate writes them.
        lines = [
            _line(f"u{k // 50}", f"u{k // 50}-{k % 50:04d}" if k % 3 else f"i{k}", k % 2)
            for k in range(6000)
        ]
        path = tmp_path / "a.jsonl"
        path.write_bytes("".join(lines).encode("utf-8"))
        with mock.patch.object(fio, "make_scanner", wraps=fio.make_scanner) as scanner:
            got = _same_as_reference(path, chunk_bytes or fio._CHUNK_BYTES)
        assert not scanner.called
        assert len(got[1].item_ids) == 6000

    @pytest.mark.parametrize("chunk_bytes", [64, 4096])
    def test_ids_coded_before_and_after_a_chunk_read_line_by_line(self, tmp_path, chunk_bytes):
        # The middle lines' keys come in another order, so their chunks go
        # line by line and need the id-to-code dict, built from the ids the
        # numpy path had coded; the last chunks mix those ids with new ones.
        rows = [(f"u{k % 9}", f"item-number-{k % 13}", k % 2) for k in range(60)]
        lines = [_line(*row) for row in rows]
        for k in range(20, 30):
            user, item, label = rows[k]
            lines[k] = f'{{"item_id": "{item}", "user_id": "{user}", "label": {label}}}\n'
        lines += [_line(f"u{k}", f"i\\u00e9{k}", 1) for k in range(9, 12)]
        path = tmp_path / "a.jsonl"
        path.write_bytes("".join(lines).encode("utf-8"))
        with mock.patch.object(fio, "make_scanner", wraps=fio.make_scanner) as scanner:
            _same_as_reference(path, chunk_bytes)
        assert scanner.called

    @pytest.mark.parametrize(
        "bad",
        [
            _line("a\x01b", "i0", 1),  # a control byte inside an id
            _line("a\tb", "i0", 1),
            _line("a", "i0", 1)[:-1] + '"\n',  # an 11th quote ends the line
            _line('a"b', "i0", 1),  # or sits inside an id
        ],
        ids=["control", "tab", "trailing-quote", "quote-in-id"],
    )
    @pytest.mark.parametrize("chunk_bytes", [64, 1 << 19])
    def test_a_stray_control_byte_or_quote_goes_line_by_line(
        self, tmp_path, bad, chunk_bytes
    ):
        lines = [_line(f"u{k % 5}", f"i{k % 7}", k % 2) for k in range(40)]
        lines[23] = bad
        path = tmp_path / "a.jsonl"
        path.write_bytes("".join(lines).encode("utf-8"))
        with mock.patch.object(fio, "make_scanner", wraps=fio.make_scanner) as scanner:
            got = _same_as_reference(path, chunk_bytes)
        assert scanner.called
        assert got[0] == "ParseError" and got[2] == 24


class TestDuplicates:
    # Line 5 is the first record that repeats an earlier pair, though the
    # pair on lines 1 and 6 was seen first and repeats more often.
    ROWS = [
        ("a", "x", 1),
        ("b", "y", 0),
        ("a", "y", 1),
        ("b", "x", 0),
        ("b", "y", 1),
        ("a", "x", 0),
        ("a", "x", 1),
        ("a", "y", 0),
    ]
    MESSAGE = "duplicate (user_id, item_id): ('b', 'y')"

    def test_first_repeat_is_named(self, tmp_path):
        path = tmp_path / "a.jsonl"
        records = [AnnotationRecord(*r) for r in self.ROWS]
        reference.write_annotations(path, records)
        for group in (
            reference.histories_from_records,
            histories_from_records,
            lambda recs: _column_histories(path),
        ):
            with pytest.raises(ValueError) as info:
                group(records)
            assert str(info.value) == self.MESSAGE

    def test_cli_fit_reports_it(self, tmp_path, capsys):
        path = tmp_path / "a.jsonl"
        reference.write_annotations(path, [AnnotationRecord(*r) for r in self.ROWS])
        config = _config(tmp_path / "fit.json", annotations=path, out_dir=tmp_path / "o",
                         family="two_point", mu=0.8)
        assert main(["fit", "--config", config]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"


records_strategy = st.lists(
    st.builds(
        AnnotationRecord,
        st.sampled_from(USER_IDS),
        st.sampled_from(ITEM_IDS),
        st.sampled_from([0, 1]),
    ),
    max_size=30,
)


class TestFilterAndWriters:
    @given(records=records_strategy, data=st.data())
    def test_filter_matches_reference(self, records, data):
        decided = data.draw(st.lists(st.sampled_from(USER_IDS), max_size=12))
        decisions = [
            FilterDecision(uid, data.draw(st.booleans()), TopFraction(0.5), 0.0)
            for uid in decided
        ]
        expected = _outcome(reference.filter_dataset, records, decisions)
        assert _outcome(filter_dataset, records, decisions) == expected
        columns = AnnotationColumns.from_records(records)
        got = _outcome(filter_mask, columns, decisions)
        if expected[0] == "ok":
            kept = columns.take(got[1])
            assert kept.to_records() == list(expected[1].records)
            assert kept.user_order() == list(expected[1].kept_user_ids)
        else:
            assert got == expected
            with pytest.raises(MissingDecisionError) as info:
                filter_dataset(records, decisions)
            assert info.value.user_ids == tuple(
                dict.fromkeys(r.user_id for r in records if r.user_id not in decided)
            )

    @given(records=records_strategy)
    def test_writers_match_reference(self, workdir, records):
        columns = AnnotationColumns.from_records(records)
        for ours, cols, theirs in (
            (
                fio.write_annotations,
                fio.write_annotation_columns,
                reference.write_annotations,
            ),
            (fio.write_pairs, fio.write_pair_columns, reference.write_pairs),
        ):
            theirs(workdir / "expected", records)
            ours(workdir / "records", records)
            cols(workdir / "columns", columns)
            expected = (workdir / "expected").read_bytes()
            assert (workdir / "records").read_bytes() == expected
            assert (workdir / "columns").read_bytes() == expected


# ------------------------------------------------------------ the CLI path

def _config(path, **cfg):
    path.write_text(json.dumps(cfg, default=str), encoding="utf-8")
    return str(path)


def _log(path, users=60, item_pool=90, mu=0.3, seed=3):
    """A log in random order: users label shared items, mu below one half."""
    rng = np.random.default_rng(seed)
    records = []
    for j, eta in enumerate(rng.beta(3.0, 5.0, users)):
        for item in rng.choice(item_pool, size=int(rng.integers(10, 40)), replace=False):
            label = int(rng.random() < 0.5 + eta * (mu - 0.5))
            records.append(AnnotationRecord(f"user-{j:02d}", f"item-{item}", label))
    random.Random(seed).shuffle(records)
    reference.write_annotations(path, records)


RECORD_APIS = {
    "public": (fio.read_annotations, histories_from_records, filter_dataset,
               fio.write_annotations, fio.write_pairs),
    "reference": (reference.read_annotations, reference.histories_from_records,
                  reference.filter_dataset, reference.write_annotations,
                  reference.write_pairs),
}


@pytest.mark.parametrize("api", sorted(RECORD_APIS))
@pytest.mark.parametrize("family", ["two_point", "beta"])
def test_cli_equals_record_api(tmp_path, capsys, api, family):
    """fit, infer and filter write what the record-based API writes, byte for byte."""
    read, group, filter_, write_annotations, write_pairs = RECORD_APIS[api]
    data = tmp_path / "annotations.jsonl"
    _log(data)
    cli_out, api_out = tmp_path / "cli", tmp_path / "api"
    api_out.mkdir()

    # fit: mu below one half flips every label before grouping.
    fit_cfg = _config(tmp_path / "fit.json", annotations=data, out_dir=cli_out,
                      family=family, mu=0.3)
    assert main(["fit", "--config", fit_cfg]) == EXIT_OK
    capsys.readouterr()
    records = read(data)
    flipped = [AnnotationRecord(r.user_id, r.item_id, 1 - r.label) for r in records]
    report = em_fit(group(flipped), EmConfig(family=family, mu=1.0 - 0.3))
    fio.write_fit(api_out / "fit.json", report, labels_flipped=True)
    fio.write_trajectory(api_out / "trajectory.csv", report)

    # infer: grouped on flipped labels, filtered and written on the originals.
    infer_cfg = _config(tmp_path / "infer.json", annotations=data, out_dir=cli_out,
                        fit=cli_out / "fit.json", eta_stars=[0.3, 0.6],
                        rule={"type": "top_fraction", "fraction": 0.5})
    assert main(["infer", "--config", infer_cfg]) == EXIT_OK
    histories = group(flipped)
    params = fio.read_fit(api_out / "fit.json")["params"]
    grid = QuadratureGrid.uniform()
    summaries = [summarize_posterior(h, params, grid, [0.3, 0.6]) for h in histories]
    decisions = select_users(summaries, TopFraction(0.5))
    filtered = filter_(records, decisions)
    fio.write_posteriors(api_out / "posteriors.csv", summaries)
    fio.write_decisions(api_out / "decisions.csv", decisions)
    write_annotations(api_out / "filtered.jsonl", filtered.records)
    write_pairs(api_out / "pairs.jsonl", filtered.records)
    assert capsys.readouterr().out == (
        f"infer: kept {len(filtered.kept_user_ids)}/{len(histories)} users, "
        f"{len(filtered.records)}/{len(records)} records -> {cli_out}\n"
    )
    for name in ("fit.json", "trajectory.csv", "posteriors.csv", "decisions.csv",
                 "filtered.jsonl", "pairs.jsonl"):
        assert (cli_out / name).read_bytes() == (api_out / name).read_bytes(), name
    assert 0 < len(filtered.records) < len(records)

    # filter, with every decision: a different rule from the same summaries.
    threshold = select_users(summaries, Threshold(0.45))
    fio.write_decisions(tmp_path / "threshold.csv", threshold)
    filter_out = tmp_path / "filter"
    filter_cfg = _config(tmp_path / "filter.json", annotations=data, out_dir=filter_out,
                         decisions=tmp_path / "threshold.csv")
    assert main(["filter", "--config", filter_cfg]) == EXIT_OK
    filtered = filter_(records, threshold)
    write_annotations(api_out / "filtered.jsonl", filtered.records)
    write_pairs(api_out / "pairs.jsonl", filtered.records)
    assert capsys.readouterr().out == (
        f"filter: kept {len(filtered.kept_user_ids)} users, "
        f"{len(filtered.records)}/{len(records)} records -> {filter_out}\n"
    )
    for name in ("filtered.jsonl", "pairs.jsonl"):
        assert (filter_out / name).read_bytes() == (api_out / name).read_bytes(), name

    # filter, with seven users' decisions missing: the error lists them in
    # order of first appearance in the log, not in decisions-file order.
    missing = {f"user-{j:02d}" for j in (3, 11, 17, 29, 40, 52, 58)}
    partial = [d for d in threshold if d.user_id not in missing]
    fio.write_decisions(tmp_path / "partial.csv", partial)
    partial_cfg = _config(tmp_path / "partial.json", annotations=data,
                          out_dir=tmp_path / "partial", decisions=tmp_path / "partial.csv")
    assert main(["filter", "--config", partial_cfg]) == EXIT_VALIDATION
    with pytest.raises(MissingDecisionError) as info:
        filter_(records, partial)
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert str(info.value).endswith("(+2 more)")
    assert list(info.value.user_ids) != sorted(info.value.user_ids)


def test_cli_parse_error_equals_reference(tmp_path, capsys):
    data = tmp_path / "annotations.jsonl"
    _log(data, users=5)
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[7] = lines[7].replace('"label": ', '"label": 7, "x": ')
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        reference.read_annotations(data)
    assert info.value.line_no == 8
    cfg = _config(tmp_path / "fit.json", annotations=data, out_dir=tmp_path / "o",
                  family="two_point", mu=0.8)
    assert main(["fit", "--config", cfg]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert str(info.value).endswith("label must be the integer 0 or 1, got 7")
