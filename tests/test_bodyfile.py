import io
import logging
from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracerecon import (
    IngestError,
    ObjectRecord,
    load_metadata,
    parse_bodyfile,
    write_bodyfile,
)
from tracerecon.bodyfile import MAX_TIME, format_record, read_bodyfile

from conftest import FIXTURES

PREFETCH_LINE = (
    "0|C:/WINDOWS/Prefetch/FIREFOX.EXE-28641590.pf|1234|r/rrwxrwxrwx|0|0|5120"
    "|1311516151|1311516151|1311516151|1293332784"
)


def test_field_positions_map_to_macb_kinds():
    records, diagnostics = parse_bodyfile(PREFETCH_LINE + "\n")
    assert diagnostics == []
    (record,) = records
    assert record.path == "C:/WINDOWS/Prefetch/FIREFOX.EXE-28641590.pf"
    assert record.accessed == 1311516151
    assert record.modified == 1311516151
    assert record.metachanged == 1311516151
    assert record.created == 1293332784
    assert not record.deleted


def test_blank_and_comment_lines_are_skipped_silently():
    records, diagnostics = parse_bodyfile("\n   \n# a comment\n" + PREFETCH_LINE + "\n")
    assert len(records) == 1
    assert diagnostics == []


def test_all_zero_times_drop_the_record_with_a_diagnostic():
    records, diagnostics = parse_bodyfile("0|x|1|m|0|0|0|0|0|0|0\n")
    assert records == []
    assert len(diagnostics) == 1
    assert diagnostics[0].line_no == 1
    assert "no usable timestamps" in diagnostics[0].message


@pytest.mark.parametrize("name", ["", " (deleted)"])
def test_an_empty_name_is_diagnosed_as_such(name):
    records, diagnostics = parse_bodyfile(f"0|{name}|1|m|0|0|0|1|1|1|1\n")
    assert records == []
    assert [str(d) for d in diagnostics] == [f"line 1: empty name: {name!r}"]


def test_wrong_field_count_is_diagnosed_with_its_line_number():
    text = PREFETCH_LINE + "\n0|too|few|fields\n" + PREFETCH_LINE + "\n"
    records, diagnostics = parse_bodyfile(text)
    assert len(records) == 2
    assert [d.line_no for d in diagnostics] == [2]
    assert "11 fields" in diagnostics[0].message


@pytest.mark.parametrize(
    "raw",
    [
        "0|x|1|m|0|0|0|nonsense|0|0|5\n",
        "0|x|1|m|0|0|0|-3|0|0|5\n",
        "0|x|1|m|uid|0|0|1|0|0|5\n",
    ],
)
def test_unparseable_numeric_fields_are_diagnosed(raw):
    records, diagnostics = parse_bodyfile(raw)
    assert records == []
    assert len(diagnostics) == 1


def test_times_beyond_year_9999_are_diagnosed():
    last = "0|C:/x|1|r|0|0|1|253402300799|0|0|0\n"
    beyond = "0|C:/y|1|r|0|0|1|0|253402300800|0|0\n"
    records, diagnostics = parse_bodyfile(last + beyond)
    assert [r.accessed for r in records] == [253402300799]
    (diag,) = diagnostics
    assert diag.line_no == 2 and "mtime" in diag.message


TIME_TEXTS = ["0", "5", "-1", " 7", "x", "", str(MAX_TIME), str(MAX_TIME + 1), "\u0661"]


@given(st.lists(st.sampled_from(TIME_TEXTS), min_size=4, max_size=4))
def test_the_first_bad_time_field_is_the_one_diagnosed(raws):
    records, diagnostics = parse_bodyfile("0|C:/x|1|r|0|0|1|" + "|".join(raws) + "\n")
    for label, raw in zip(("atime", "mtime", "ctime", "crtime"), raws):
        try:
            value = int(raw)
        except ValueError:
            expected = f"{label} is not an integer: {raw!r}"
            break
        if value < 0:
            expected = f"{label} is negative: {value}"
            break
        if value > MAX_TIME:
            expected = f"{label} is beyond 9999-12-31T23:59:59Z: {value}"
            break
    else:
        times = [int(raw) or None for raw in raws]
        if not any(times):
            assert [d.message for d in diagnostics] == ["no usable timestamps: 'C:/x'"]
        else:
            assert (records, diagnostics) == ([ObjectRecord("C:/x", *times)], [])
        return
    assert records == [] and [d.message for d in diagnostics] == [expected]


def test_empty_input_is_not_an_error():
    assert parse_bodyfile("") == ([], [])


def test_deleted_suffix_sets_the_flag_and_is_stripped_from_the_path():
    records, _ = parse_bodyfile("0|C:/profile/cookies.sqlite-journal (deleted)|1|m|0|0|0|0|0|0|99\n")
    (record,) = records
    assert record.deleted
    assert record.path == "C:/profile/cookies.sqlite-journal"


def test_backslashes_normalize_to_forward_slashes_preserving_case():
    records, _ = parse_bodyfile(r"0|C:\WINDOWS\Prefetch\App.pf|1|m|0|0|0|0|7|0|0" + "\n")
    assert records[0].path == "C:/WINDOWS/Prefetch/App.pf"


def test_duplicate_paths_stay_distinct_records():
    text = (
        "0|C:/p/cookies.sqlite-journal|1|m|0|0|0|0|0|0|100\n"
        "0|C:/p/cookies.sqlite-journal (deleted)|2|m|0|0|0|0|0|0|200\n"
    )
    records, _ = parse_bodyfile(text)
    assert len(records) == 2
    assert records[0].path == records[1].path
    assert (records[0].deleted, records[1].deleted) == (False, True)


def test_parsing_preserves_input_order():
    lines = [f"0|C:/f{i}|1|m|0|0|0|0|{100 - i}|0|0" for i in range(10)]
    records, _ = parse_bodyfile("\n".join(lines) + "\n")
    assert [r.path for r in records] == [f"C:/f{i}" for i in range(10)]


def test_per_row_fixture_yields_six_records_with_duplicates():
    records = load_metadata(FIXTURES / "computer1_ff3_rows.body")
    assert len(records) == 6
    # the prefetch file and the url classifier file each appear twice
    paths = [r.path for r in records]
    assert paths.count("C:/WINDOWS/Prefetch/Firefox.exe-28641590.pf") == 2


def test_file_and_stdin_split_the_same_bytes_only_at_newlines(tmp_path, monkeypatch):
    data = (
        b"0|C:/a\rb.txt|1|r|0|0|1|0|1311516151|0|0\n"
        b"0|C:/c.txt|2|r|0|0|1|0|1311516152|0|0\n"
    )
    path = tmp_path / "cr.body"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    from_file = load_metadata(path)
    assert load_metadata("-") == from_file
    assert [r.path for r in from_file] == ["C:/a\rb.txt", "C:/c.txt"]


def test_crlf_files_parse_like_lf_files(tmp_path):
    lines = [PREFETCH_LINE, "0|C:/c.txt|2|r|0|0|1|0|1311516152|0|0"]
    crlf, lf = tmp_path / "crlf.body", tmp_path / "lf.body"
    crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    lf.write_bytes(("\n".join(lines) + "\n").encode())
    assert load_metadata(crlf) == load_metadata(lf)
    assert len(load_metadata(crlf)) == 2


def test_missing_file_raises_naming_the_path(tmp_path):
    missing = tmp_path / "nope.body"
    with pytest.raises(IngestError, match="nope.body"):
        load_metadata(missing)


def test_pipe_in_path_cannot_be_serialized():
    record = ObjectRecord(path="C:/we|ird", modified=5)
    with pytest.raises(ValueError):
        format_record(record)


@pytest.mark.parametrize(
    "path, deleted",
    [("C:\\x", False), ("C:/x\ny", False), ("C:/x (deleted)", False),
     ("C:/x(deleted-realloc)", True), ("C:/x ", True)],
)
def test_a_path_that_would_read_back_as_another_cannot_be_serialized(path, deleted):
    with pytest.raises(ValueError, match="would not read back as itself"):
        format_record(ObjectRecord(path=path, modified=5, deleted=deleted))


class _Failing(io.BytesIO):
    """A binary stream whose second line cannot be read."""

    def __iter__(self):
        yield b"0|C:/a|1|r|0|0|1|0|5|0|0\n"
        raise OSError(5, "Input/output error")


def test_a_failed_read_is_an_ingest_error_naming_the_source():
    records = read_bodyfile(_Failing(), "disk.body")
    assert next(records).path == "C:/a"
    with pytest.raises(IngestError) as exc_info:
        next(records)
    assert str(exc_info.value) == "cannot read metadata disk.body: [Errno 5] Input/output error"


@contextmanager
def _logged():
    """The diagnostics the bodyfile module logs inside the block, as a growing list."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("tracerecon.bodyfile")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def test_diagnostics_are_logged_as_they_are_reached():
    data = b"0|C:/a|1|r|0|0|1|0|5|0|0\nbad\n0|C:/b|1|r|0|0|1|0|5|0|0\n"
    with _logged() as messages:
        records = read_bodyfile(io.BytesIO(data), "in.body")
        assert next(records).path == "C:/a" and messages == []
        assert next(records).path == "C:/b"
        assert messages == ["in.body: line 2: expected 11 fields, found 1"]


# Pieces of bodyfile fields, with the characters that whole-text and per-line
# decoding could treat differently: \r, NEL (\x85), U+2028, bytes that are
# not UTF-8, and the parser's own syntax.
FIELD_PIECES = [
    b"C:/a", b"C:\\b", b" (deleted)", b"(deleted-realloc)", b"#", b" ", b"\t", b"\r",
    b"\xc2\x85", b"\xe2\x80\xa8", b"\xff", b"\xe2\x80", b"\xf0\x9f\x98", b"x", b"7",
]
NUMBERS = [b"1311516151", b"7", b"0", str(MAX_TIME).encode(), b"-1",
           str(MAX_TIME + 1).encode(), b" 7", b"x", b"\xff", b""]
LINE_ENDS = [b"\n", b"\r\n", b"\r\r\n", b"\xff\n", b"\xe2\x80\n", b"\xc2\x85\n", b"\xe2\x80\xa8\n"]
field_bytes = st.lists(
    st.one_of(st.sampled_from(FIELD_PIECES), st.binary(max_size=2)), max_size=3
).map(b"".join)
# Mostly lines of eleven fields whose numbers mostly parse, so records and
# every kind of diagnostic are both common.
record_bytes = st.builds(
    lambda name, head, numbers: b"|".join([b"0", name, *head, *numbers]),
    field_bytes,
    st.lists(field_bytes, min_size=2, max_size=2),
    st.lists(st.sampled_from(NUMBERS[:4] * 6 + NUMBERS), min_size=7, max_size=7),
)
line_bytes = st.one_of(
    record_bytes,
    st.lists(field_bytes, max_size=12).map(b"|".join),
    st.sampled_from([b"", b"  ", b"# comment", b"  #x|1", b"\r", b"\xc2\x85"]),
)
stream_bytes = st.builds(
    lambda lines, last: b"".join(line + end for line, end in lines) + last,
    st.lists(st.tuples(line_bytes, st.sampled_from(LINE_ENDS)), max_size=12),
    st.one_of(st.just(b""), line_bytes),  # a last line without its newline
)


@given(stream_bytes)
def test_the_stream_reads_what_whole_text_parsing_reads(data):
    expected, diagnostics = parse_bodyfile(data.decode("utf-8", "surrogateescape"))
    with _logged() as messages:
        records = list(read_bodyfile(io.BytesIO(data), "in.body"))
    assert records == expected
    assert messages == [f"in.body: {diag}" for diag in diagnostics]
    for record in records:
        checked = ObjectRecord(
            record.path,
            record.accessed,
            record.modified,
            record.metachanged,
            record.created,
            deleted=record.deleted,
        )
        assert type(record) is ObjectRecord
        assert record == checked and hash(record) == hash(checked)


# zero time values read back as absent, so present times start at 1; the
# deleted marker is parser syntax and may not be part of a generated name
path_chars = st.characters(
    blacklist_characters="|\n\r\\", blacklist_categories=("Cs", "Cc")
)
paths_strategy = (
    st.text(path_chars, min_size=1, max_size=40)
    .map(lambda s: "C:/" + s.strip())
    .filter(lambda p: len(p) > 3 and not p.endswith("(deleted)"))
)
records_strategy = st.builds(
    ObjectRecord,
    path=paths_strategy,
    accessed=st.one_of(st.none(), st.integers(1, 2**32)),
    modified=st.integers(1, 2**32),  # guarantees at least one timestamp
    metachanged=st.one_of(st.none(), st.integers(1, 2**32)),
    created=st.one_of(st.none(), st.integers(1, 2**32)),
    deleted=st.booleans(),
)


@given(st.lists(records_strategy, max_size=8))
def test_serialize_then_reparse_round_trips(records):
    buffer = io.StringIO()
    write_bodyfile(records, buffer)
    reparsed, diagnostics = parse_bodyfile(buffer.getvalue())
    # zero-valued times read back as absent, which the generator avoids
    assert diagnostics == []
    assert reparsed == records


@given(
    st.builds(
        ObjectRecord,
        path=st.text(min_size=1, max_size=12),
        modified=st.integers(1, MAX_TIME),
        deleted=st.booleans(),
    )
)
def test_a_record_either_serializes_to_itself_or_raises(record):
    try:
        line = format_record(record)
    except ValueError:
        return
    assert parse_bodyfile(line + "\n") == ([record], [])
