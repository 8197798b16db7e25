import io
import itertools
import sys
from contextlib import contextmanager, redirect_stderr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracerecon import (
    IngestError,
    ObjectRecord,
    SignatureError,
    SignaturePack,
    TimestampKind,
    TraceCategory,
    load_metadata,
    match_pack,
    parse_bodyfile,
    parse_signature_pack,
    write_bodyfile,
)
from tracerecon import bodyfile, signatures
from tracerecon.bodyfile import MAX_TIME, format_record, read_bodyfile
from tracerecon.signatures import Signature, TracePattern, fold, path_prefilter

from conftest import FIXTURES
from reference_ingest import reference_ingest

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


@pytest.mark.parametrize(
    "times, message",
    [
        ({"modified": 0}, "mtime would not read back as itself: 0"),
        ({"modified": 5, "created": 0}, "crtime would not read back as itself: 0"),
        ({"accessed": MAX_TIME + 1}, f"atime would not read back as itself: {MAX_TIME + 1}"),
        ({"accessed": 0, "created": MAX_TIME + 1}, "atime would not read back as itself: 0"),
    ],
)
def test_a_time_that_would_not_read_back_cannot_be_serialized(times, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        format_record(ObjectRecord(path="C:/x", **times))


class _Failing(io.BytesIO):
    """A binary stream whose first ``read1`` gives one line and whose second fails."""

    def __init__(self):
        super().__init__(b"0|C:/a|1|r|0|0|1|0|5|0|0\n")

    def read1(self, size=-1):
        if self.tell():
            raise OSError(5, "Input/output error")
        return super().read1(size)


def test_a_failed_read_is_an_ingest_error_naming_the_source():
    records = read_bodyfile(_Failing(), "disk.body")
    assert next(records).path == "C:/a"
    with pytest.raises(IngestError) as exc_info:
        next(records)
    assert str(exc_info.value) == "cannot read metadata disk.body: [Errno 5] Input/output error"


@contextmanager
def _stderr():
    """What is written to stderr inside the block, as a function giving its lines so far."""
    stream = io.StringIO()
    with redirect_stderr(stream):
        yield lambda: stream.getvalue().split("\n")[:-1]


def test_diagnostics_are_written_as_they_are_reached():
    data = b"0|C:/a|1|r|0|0|1|0|5|0|0\nbad\n0|C:/b|1|r|0|0|1|0|5|0|0\n"
    with _stderr() as messages:
        records = read_bodyfile(io.BytesIO(data), "in.body")
        assert next(records).path == "C:/a" and messages() == []
        assert next(records).path == "C:/b"
        assert messages() == ["in.body: line 2: expected 11 fields, found 1"]


class _Refusing(io.StringIO):
    """A stderr on a full disk: every write fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")


def test_a_diagnostic_that_cannot_be_written_is_dropped_not_taken_for_a_read_error():
    data = b"bad\n0|C:/b|1|r|0|0|1|0|5|0|0\n"
    with redirect_stderr(_Refusing()):
        records = list(read_bodyfile(io.BytesIO(data), "in.body"))
    assert [record.path for record in records] == ["C:/b"]


# Pieces of bodyfile fields, with the characters that whole-text and per-line
# decoding could treat differently: \r, NEL (\x85), U+2028, bytes that are
# not UTF-8, and the parser's own syntax.
FIELD_PIECES = [
    b"C:/a", b"C:\\b", b" (deleted)", b"(deleted-realloc)", b"#", b" ", b"\t", b"\r",
    b"\xc2\x85", b"\xe2\x80\xa8", b"\xff", b"\xe2\x80", b"\xf0\x9f\x98", b"x", b"7",
]
NUMBERS = [b"1311516151", b"7", b"0", str(MAX_TIME).encode(), b"-1",
           str(MAX_TIME + 1).encode(), b" 7", b"x", b"\xff", b"",
           # where the line regex stops and int() goes on: 11 and 12 digits,
           # zero padding, signs, "_", a non-ASCII digit, 19 digits and a
           # number past int()'s default limit of 4,300 digits
           b"99999999999", b"100000000000", b"0001311516151", b"00", b"-0", b"+5",
           b"1_000", "\u0661".encode(), b"9" * 19, b"9" * 5000]
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


def streams(lines):
    """Bodyfile bytes of up to 13 ``lines`` with assorted line ends."""
    return st.builds(
        lambda body, last: b"".join(line + end for line, end in body) + last,
        st.lists(st.tuples(lines, st.sampled_from(LINE_ENDS)), max_size=12),
        st.one_of(st.just(b""), lines),  # a last line without its newline
    )


stream_bytes = streams(line_bytes)


@given(stream_bytes)
def test_the_stream_reads_what_whole_text_parsing_reads(data):
    expected, diagnostics = reference_ingest(data)
    assert parse_bodyfile(data.decode("utf-8", "surrogateescape")) == (expected, diagnostics)
    with _stderr() as messages:
        records = list(read_bodyfile(io.BytesIO(data), "in.body"))
    assert records == expected
    assert messages() == [f"in.body: {diag}" for diag in diagnostics]
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


# Literals that names built from FIELD_PIECES hold: ``c:/a`` as typed, ``c:/ax``,
# which holds ``c:/a``, ``:/b`` only once ``C:\b`` has its backslash
# normalized, and ``(deleted`` only where the suffix is not removed, as in
# ``C:/a (deleted)x``.
PREFILTER_PACK = SignaturePack([
    Signature("A", 5, (
        TracePattern(TraceCategory.CORE, TimestampKind.MODIFIED, ".*c:/a"),
        TracePattern(TraceCategory.SUPPORTING, TimestampKind.MODIFIED, ".*c:/ax"),
        TracePattern(TraceCategory.SUPPORTING, TimestampKind.ACCESSED, ":/b"),
        TracePattern.for_path(TraceCategory.SHARED, TimestampKind.CREATED, "C:/a"),
    )),
    Signature("B", 9, (
        TracePattern.for_path(TraceCategory.SHARED, TimestampKind.CREATED, "C:/a"),
        TracePattern(TraceCategory.CORE, TimestampKind.METACHANGED, "\\(deleted"),
    )),
])
# Signature A alone: no name made only of a (deleted) suffix is a candidate.
SUFFIXLESS_PACK = SignaturePack(PREFILTER_PACK.signatures[:1])


def _literals(pack):
    return {trace.literal for patterns in pack.buckets.values() for trace in patterns}


PREFILTER_LITERALS = _literals(PREFILTER_PACK)


def _holds_literal(record):
    return any(literal in fold(record.path) for literal in PREFILTER_LITERALS)


# Lines whose numbers all parse, so most are records, named from FIELD_PIECES.
valid_record_bytes = st.builds(
    lambda name, numbers: b"|".join([b"0", name, b"1", b"r", *numbers]),
    st.lists(st.sampled_from(FIELD_PIECES), min_size=1, max_size=3).map(b"".join),
    st.lists(st.sampled_from(NUMBERS[:4]), min_size=7, max_size=7),
)


@settings(max_examples=300)
@given(st.one_of(stream_bytes, streams(st.one_of(line_bytes, valid_record_bytes))))
def test_the_prefilter_changes_neither_matches_nor_diagnostics(data):
    with _stderr() as every_message:
        records = list(read_bodyfile(io.BytesIO(data), "in.body"))
    with _stderr() as messages:
        kept = list(read_bodyfile(io.BytesIO(data), "in.body", path_prefilter(PREFILTER_PACK)))
    rest = iter(records)
    assert all(record in rest for record in kept)  # a subsequence of the records
    assert list(filter(_holds_literal, kept)) == list(filter(_holds_literal, records))
    assert match_pack(PREFILTER_PACK, kept) == match_pack(PREFILTER_PACK, records)
    assert messages() == every_message()


@settings(max_examples=400)
@given(
    st.one_of(stream_bytes, streams(st.one_of(line_bytes, valid_record_bytes))),
    st.sampled_from([1, 2, 7, 64, bodyfile._BLOCK_SIZE]),
    st.sampled_from([0, signatures._FIND_LITERALS]),
    st.sampled_from([None, PREFILTER_PACK, SUFFIXLESS_PACK]),
)
# A plain line that is no candidate, then a last line without "\n" that is
# one: the plain run stops at the candidate, which ends with the text.
@example(b"0|C:/x|1|r|0|0|1|5|5|5|5\n0|C:/a|1|r|0|0|1|5|5|5|5",
         bodyfile._BLOCK_SIZE, signatures._FIND_LITERALS, PREFILTER_PACK)
# The same with a last line that is not plain.
@example(b"0|C:/x|1|r|0|0|1|5|5|5|5\n0|C:/a (deleted)|1|r|0|0|1|5|5|5|5",
         bodyfile._BLOCK_SIZE, signatures._FIND_LITERALS, PREFILTER_PACK)
# Lines of one, no and nine "|", and of one and nine with "\r\n" ends: the
# run reads a name across their line ends, so it cannot prove them.
@example(b"0|C:/x|1|r|0|0|1|5|5|5|5\n0|C:\n/\nx|1|r|0|0|1|5|5|5|5\n",
         bodyfile._BLOCK_SIZE, signatures._FIND_LITERALS, PREFILTER_PACK)
@example(b"0|C:/x|1|r|0|0|1|5|5|5|5\r\n0|C:/x\r\n|1|r|0|0|1|5|5|5|5\r\n",
         bodyfile._BLOCK_SIZE, signatures._FIND_LITERALS, PREFILTER_PACK)
def test_the_block_reader_reads_what_the_line_reader_reads(data, block_size, find_literals, pack):
    # With find_literals 0 the prefilter searches a block with its trie regex.
    hits = path_prefilter(pack) if pack else None
    expected, diagnostics = reference_ingest(data, _literals(pack) if pack else None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bodyfile, "_BLOCK_SIZE", block_size)
        patch.setattr(signatures, "_FIND_LITERALS", find_literals)
        with _stderr() as messages:
            records = list(read_bodyfile(io.BytesIO(data), "in.body", hits))
    assert records == expected
    assert messages() == [f"in.body: {diag}" for diag in diagnostics]


def test_only_candidates_and_lines_that_are_not_plain_are_parsed_alone(monkeypatch):
    parsed, parse = [], bodyfile._parse_line

    def parse_line(line):
        parsed.append(line)
        return parse(line)

    plain = "0|C:/x/{}|1|r|0|0|1|5|5|5|5"
    lines = [plain.format(i) for i in range(50)]
    lines[10] = plain.format("C:/A")  # a candidate: its name holds "c:/a"
    # Plain, but for PREFILTER_PACK a candidate by "(deleted" in the suffix it drops.
    lines[20] = plain.format("gone (deleted)")
    lines[25] = plain.format("(25)")  # plain: a name may end in ")"
    lines[30] = "0|bad"
    lines[35] = plain.replace("C:/x/{}", " (deleted)")  # not plain: empty once the suffix goes
    # One "|", then nine: the run reads the name across the line end, cannot
    # prove its match and reads the lines of it, lines[36:45], alone.
    cut = lines[40].index("|1|r|")
    lines[40], lines[41] = lines[40][:cut], lines[40][cut:]
    lines[45] = plain.format("C:/A/45")
    data = "\r\n".join(lines).encode() + b"\n"
    monkeypatch.setattr(bodyfile, "_parse_line", parse_line)
    for pack, alone, paths in (
        (PREFILTER_PACK, [10, 20, 30, 35], ["C:/x/C:/A", "C:/x/gone", "C:/x/C:/A/45"]),
        (SUFFIXLESS_PACK, [10, 30, 35], ["C:/x/C:/A", "C:/x/C:/A/45"]),
    ):
        parsed.clear()
        with _stderr() as messages:
            records = list(read_bodyfile(io.BytesIO(data), "in.body", path_prefilter(pack)))
        assert parsed == [lines[i] for i in alone + list(range(36, 46))]
        assert [record.path for record in records] == paths
        assert messages() == [
            "in.body: line 31: expected 11 fields, found 2",
            "in.body: line 36: empty name: ' (deleted)'",
            "in.body: line 41: expected 11 fields, found 2",
            "in.body: line 42: expected 11 fields, found 10",
        ]


def test_lines_that_hold_eleven_fields_only_together_are_each_diagnosed():
    plain = "0|C:/x|1|r|0|0|1|5|5|5|5"
    # Cut into two lines, and into three, as one "|", none and nine.
    cuts = [(cut,) for cut in range(1, len(plain))]
    cuts += itertools.combinations_with_replacement(range(1, len(plain)), 2)
    for cut, end in itertools.product(cuts, ["\n", "\r\n"]):
        pieces = [plain[i:j] for i, j in zip((0, *cut), (*cut, None))]
        data = end.join([plain, *pieces, plain, ""]).encode()
        for hits, literals in ((None, None), (path_prefilter(PREFILTER_PACK), PREFILTER_LITERALS)):
            expected, diagnostics = reference_ingest(data, literals)
            with _stderr() as messages:
                records = list(read_bodyfile(io.BytesIO(data), "in.body", hits))
            assert records == expected
            assert messages() == [f"in.body: {diag}" for diag in diagnostics]


def test_the_run_matches_each_character_at_most_once(monkeypatch):
    matched, run = [], bodyfile._PLAIN_RUN

    class CountingRun:
        @staticmethod
        def match(text, pos, endpos):
            found = run.match(text, pos, endpos)
            matched.append(found.end() - pos)
            return found

    monkeypatch.setattr(bodyfile, "_PLAIN_RUN", CountingRun)
    # Pairs of lines of one and nine "|", which the run reads as one line each.
    text = "0|C:/x\n|1|r|0|0|1|5|5|5|5\n" * 200
    diagnostics = []
    assert list(bodyfile._block_records([text], diagnostics.append, lambda block: [])) == []
    assert len(diagnostics) == 400
    assert sum(matched) <= len(text)


def _outcome(parse, line):
    try:
        record = parse(line)
    except ValueError as exc:
        return "error", str(exc)
    return "record", type(record), record._asdict()


def _assert_both_paths_agree(line):
    assert _outcome(bodyfile._parse_line, line) == _outcome(bodyfile._parse_fields, line)


@settings(max_examples=500)
@given(st.one_of(line_bytes, valid_record_bytes))
def test_the_line_regex_agrees_with_field_by_field_parsing(data):
    _assert_both_paths_agree(data.decode("utf-8", "surrogateescape"))


def _with_fields(line, replacements):
    fields = line.split("|")
    for position, text in replacements.items():
        fields[position] = text
    return "|".join(fields)


# Each boundary number alone in each numeric field of a plain line, and every
# spelling of four zero times, which too few random lines reach.
BOUNDARY_LINES = [
    _with_fields(PREFETCH_LINE, {position: number.decode("utf-8", "surrogateescape")})
    for position in range(4, 11)
    for number in NUMBERS
] + [
    _with_fields(PREFETCH_LINE, dict(zip(range(7, 11), zeros)))
    for zeros in itertools.product(["0", "00"], repeat=4)
]


def test_boundary_numbers_read_alike_on_both_paths():
    for line in BOUNDARY_LINES:
        _assert_both_paths_agree(line)


def test_no_result_depends_on_the_int_digit_limit():
    # 640 is the lowest limit Python accepts, 0 means none.
    bodyfile_text = "\n".join(BOUNDARY_LINES)
    pack_text = "action: A\nthreshold: " + "9" * 5000 + "\ncore modified x\n"

    def read_all():
        with pytest.raises(SignatureError) as exc_info:
            parse_signature_pack(pack_text)
        return parse_bodyfile(bodyfile_text), str(exc_info.value)

    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        capped = read_all()
        sys.set_int_max_str_digits(0)
        assert read_all() == capped
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_plain_line_is_read_without_splitting_its_fields(monkeypatch):
    def split_fields(line):
        raise AssertionError(f"split: {line!r}")

    monkeypatch.setattr(bodyfile, "_parse_fields", split_fields)
    records, diagnostics = parse_bodyfile(PREFETCH_LINE.replace("/", "\\") + "\n")
    assert diagnostics == []
    assert records == [
        ObjectRecord("C:/WINDOWS/Prefetch/FIREFOX.EXE-28641590.pf", *[1311516151] * 3, 1293332784)
    ]


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


# 0 reads back as absent and MAX_TIME + 1 is rejected, so neither may be written.
edge_times = st.one_of(st.integers(1, MAX_TIME), st.sampled_from((0, MAX_TIME, MAX_TIME + 1)))


@given(
    st.builds(
        ObjectRecord,
        path=st.text(min_size=1, max_size=12),
        accessed=st.one_of(st.none(), edge_times),
        modified=edge_times,
        metachanged=st.one_of(st.none(), edge_times),
        created=st.one_of(st.none(), edge_times),
        deleted=st.booleans(),
    )
)
def test_a_record_either_serializes_to_itself_or_raises(record):
    try:
        line = format_record(record)
    except ValueError:
        return
    assert parse_bodyfile(line + "\n") == ([record], [])
