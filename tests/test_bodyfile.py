import io

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
from tracerecon.bodyfile import format_record

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
