"""Bodyfile metadata ingestion.

Parses the pipe-delimited body format produced by The Sleuth Kit 3.x
(``fls -m`` / ``ils -m`` style) into :class:`~tracerecon.model.ObjectRecord`
values, and serializes records back out for round trips and simulator
exports.

Field layout, bit-exact::

    MD5|name|inode|mode_as_string|UID|GID|size|atime|mtime|ctime|crtime

Every input of the package, a file or stdin, is opened in binary by
:func:`open_input` and split only at ``\\n``.  A bodyfile is streamed:
:func:`read_bodyfile` reads it in blocks of whole lines, up to 16 KiB at a
time, decodes each block whole and yields its records, so memory stays
flat as the input grows.  Every line is checked and diagnosed; given the
``hits`` of ``scan``'s prefilter, a record is yielded only for a candidate
line, by the rule of :func:`~tracerecon.signatures.path_prefilter`.  A
line parsed on its own is checked whole by one compiled regex, and its
fields are split and checked one at a time only when that regex rejects
it, which gives the same records and diagnostics.  :func:`parse_bodyfile`
reads its text as one block.  A bodyfile record drops its trailing ``\\r``
characters, so a raw ``\\r`` inside a name is kept.  ``|`` is forbidden
inside fields, and the four time fields are decimal epoch seconds where 0
means "absent"; values beyond 9999-12-31T23:59:59Z cannot be rendered and
are rejected, and so is a name left empty once its ``(deleted)`` suffix is
removed.  Lines beginning with ``#`` and blank lines are ignored.  Names
are UTF-8; bytes that do not decode are kept as lone surrogates
(``surrogateescape``), since TSK writes file names as the raw bytes it
found.

NTFS-oriented kind mapping: ``atime`` is Accessed, ``mtime`` is Modified,
``crtime`` is Created and ``ctime`` is carried as MetaChanged.

Every line the program writes to stderr, a diagnostic, ``scan``'s count or
an error, goes through :func:`write_stderr`.
"""

from __future__ import annotations

import itertools
import os
import re
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from contextlib import AbstractContextManager, nullcontext
from io import BufferedIOBase, TextIOBase
from pathlib import Path

from .model import ObjectRecord, read_int

FIELD_COUNT = 11

# The last second datetime can represent, and its text in messages.
MAX_TIME = 253402300799
LAST_TIME = "9999-12-31T23:59:59Z"

# The marker TSK appends to the name of a deleted file; a record's path drops it.
DELETED_SUFFIX = re.compile(r"\s*\(deleted(?:-realloc)?\)$")


class IngestError(Exception):
    """Raised when an input cannot be read or an output cannot be written."""


class ParseDiagnostic(namedtuple("ParseDiagnostic", "line_no message")):
    """A non-fatal problem found while parsing; the run continues."""

    line_no: int  # 1-based
    message: str

    __slots__ = ()

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


_TIME_LABELS = ("atime", "mtime", "ctime", "crtime")


def _plain(field: str, name_end: str, group: str) -> str:
    """Regex text of the lines that every check of _parse_fields accepts in its plainest form.

    That is eleven fields; a name that is not empty and does not end in
    ``)``, so it holds no (deleted) suffix; UID, GID and size of at most 18
    ASCII digits, which int() reads under any digit limit; and four times of
    at most 11 digits, below MAX_TIME, not all zero.  ``field`` is the class
    of a field's characters, ``name_end`` that class less ``)``, and
    ``group`` opens the group of the name and of each time.
    """
    time = group + "[0-9]{1,11})"
    return (
        field + r"*\|" + group + field + "*" + name_end + r")\|" + field + r"*\|" + field
        + r"*\|-?[0-9]{1,18}\|-?[0-9]{1,18}\|-?[0-9]{1,18}\|(?!0+\|0+\|0+\|0+(?![0-9]))"
        + r"\|".join([time] * 4)
    )


# One line, without its line end; its groups are the name and the four times.
# Every other line takes the field-by-field path.
_PLAIN_LINE = re.compile(_plain("[^|]", "[^|)]", "("))
# The longest run of plain lines, each ended by "\r*\n", that starts where it
# is matched.  No field may hold a newline, so no match runs into a bad line.
# A run may pass over a "#" line: it yields nothing, and neither does a
# comment.  Two choices only make it faster: no group is kept (about 9% on a
# typical bodyfile), and the field classes also leave out NUL, which no file
# name holds, since re tests a negated class of three or more characters
# with one bitmap lookup and one of two with two comparisons (about 15%).
_PLAIN_RUN = re.compile("(?:" + _plain("[^\\x00\\n|]", "[^\\x00\\n)|]", "(?:") + r"\r*\n)*")

# Bytes read at a time.  A block is held several times over while it is read
# (bytes, text, folded text), so this sets the reader's memory: the traced
# peak of a 50,000-line scan is about 270 KiB with 16 KiB blocks, 940 KiB
# with 64 KiB and 13 MiB with 1 MiB, and larger blocks are not faster.
_BLOCK_SIZE = 16384


def _record(
    name: str, atime: int, mtime: int, ctime: int, crtime: int, deleted: bool
) -> ObjectRecord:
    """The record of a checked line, built without running ObjectRecord's checks again."""
    return tuple.__new__(
        ObjectRecord, (name, atime or None, mtime or None, ctime or None, crtime or None, deleted)
    )


def _parse_fields(line: str) -> ObjectRecord:
    """:func:`_parse_line` for any line, checking one split field at a time."""
    fields = line.split("|")
    if len(fields) != FIELD_COUNT:
        raise ValueError(f"expected {FIELD_COUNT} fields, found {len(fields)}")
    try:
        # UID, GID and size are checked, not kept.
        read_int(fields[4]), read_int(fields[5]), read_int(fields[6])
    except ValueError:
        raise ValueError("UID/GID/size fields must be integers") from None
    times = []
    for label, raw in zip(_TIME_LABELS, fields[7:]):
        try:
            value = read_int(raw)
        except ValueError:
            raise ValueError(f"{label} is not an integer: {raw!r}") from None
        if value < 0:
            raise ValueError(f"{label} is negative: {value}")
        if value > MAX_TIME:
            raise ValueError(f"{label} is beyond {LAST_TIME}: {value}")
        times.append(value)
    name = fields[1].replace("\\", "/")
    # A name holds no newline, so the suffix can only match before a final ")".
    suffix = DELETED_SUFFIX.search(name) if name.endswith(")") else None
    if suffix:
        name = name[:suffix.start()]
    if not name:
        raise ValueError(f"empty name: {fields[1]!r}")
    if not any(times):
        raise ValueError(f"no usable timestamps: {fields[1]!r}")
    return _record(name, *times, suffix is not None)


def _parse_line(line: str) -> ObjectRecord:
    """Build the record of one line; raises ValueError with a reason on bad input.

    Every check of ``ObjectRecord(...)`` is made here, with the parser's own
    message, so the record is built without running them a second time.
    One regex checks a typical line; the lines it rejects go to
    :func:`_parse_fields`, which gives the same result for any line.
    """
    match = _PLAIN_LINE.fullmatch(line)
    if match is None:
        return _parse_fields(line)
    name, atime, mtime, ctime, crtime = match.groups()
    name = name.replace("\\", "/")
    return _record(name, int(atime), int(mtime), int(ctime), int(crtime), False)


def _block_records(
    blocks: Iterable[str],
    report: Callable[[ParseDiagnostic], object],
    hits: Callable[[str], list[int]] | None = None,
) -> Iterator[ObjectRecord]:
    """The records of ``blocks`` in input order; each diagnostic goes to ``report``.

    The blocks, joined, are the input text; each ends where a line does,
    except the last, whose last line may have no ``\\n``.  Lines are
    numbered from 1 and drop their trailing ``\\r`` characters.  Blank
    lines and ``#`` lines are skipped silently, and every other line is
    checked and diagnosed.

    With ``hits`` (for ``scan``, the
    :func:`~tracerecon.signatures.path_prefilter` of its pack, which states
    the candidate rule), each block, with backslashes made ``/``, is
    searched once, and a line's record is yielded exactly when ``hits``
    lists the line's start; without ``hits``, every line's record is.  One
    :data:`_PLAIN_RUN` call checks the run of lines before the next
    candidate and builds nothing.  Only a line where a run stops, being a
    candidate or not plain, goes to :func:`_parse_line`, so each diagnostic
    keeps its text and line number.
    """
    line_no = 0
    for block in blocks:
        end = len(block)
        # Without hits, every start is 0, so that every line is a candidate.
        starts = iter(hits(block.replace("\\", "/"))) if hits else itertools.repeat(0)
        start = next(starts, end)
        pos = 0
        while pos < end:
            if start > pos:
                # The run ends where the next candidate starts: a match cut
                # off inside a line backtracks through all of it before failing.
                stop = _PLAIN_RUN.match(block, pos, start).end()
                line_no += block.count("\n", pos, stop)
                if stop == end:
                    break
                pos = stop
            line_end = block.find("\n", pos)
            if line_end < 0:
                line_end = end
            line_no += 1
            line = block[pos:line_end].rstrip("\r")
            candidate = start <= pos
            if candidate:
                start = next(starts, end)
            pos = line_end + 1
            head = line.lstrip()
            if not head or head[0] == "#":
                continue
            try:
                record = _parse_line(line)
            except ValueError as exc:
                report(ParseDiagnostic(line_no, str(exc)))
                continue
            if candidate:
                yield record


def parse_bodyfile(text: str) -> tuple[list[ObjectRecord], list[ParseDiagnostic]]:
    """Parse bodyfile text into records plus diagnostics for malformed lines.

    Record order equals input order; nothing is merged or deduplicated, so
    duplicated paths (a live and a deleted entry for the same name) stay as
    distinct records.  Malformed lines and lines whose four times are all
    zero are reported as diagnostics and skipped; they never abort the run.
    The text is read as one block by the reader of :func:`read_bodyfile`.
    """
    diagnostics: list[ParseDiagnostic] = []
    records = list(_block_records([text], diagnostics.append))
    return records, diagnostics


def _blocks(stream: BufferedIOBase) -> Iterator[str]:
    """The text of ``stream`` in blocks of whole lines, each decoded with ``surrogateescape``.

    Each ``read1`` of at most :data:`_BLOCK_SIZE` bytes, which waits for no
    more than one read of the underlying file or pipe, is cut after its last
    ``\\n``, and the rest starts the next block; only the last block may
    end without one.
    """
    buffer = bytearray()
    while data := stream.read1(_BLOCK_SIZE):
        buffer += data
        cut = data.rfind(b"\n") + 1
        if cut:
            cut += len(buffer) - len(data)
            yield buffer[:cut].decode("utf-8", "surrogateescape")
            del buffer[:cut]
    if buffer:
        yield buffer.decode("utf-8", "surrogateescape")


def _read_error(what: str, source: str | Path, exc: OSError) -> IngestError:
    return IngestError(f"cannot read {what} {source}: {exc}")


def write_stderr(line: str) -> None:
    """Write ``line`` and a newline to ``sys.stderr`` as it is at the call.

    Nothing is written when the process has no stderr (``sys.stderr`` is
    None, as when descriptor 2 is closed at start-up), and a write that
    fails is dropped: there is nowhere left to report it.  What the failed
    write left in the stream's buffer goes to devnull
    (:func:`discard_unwritten`), so the flush at exit cannot fail on it.
    """
    stream = sys.stderr
    if stream is not None:
        try:
            stream.write(line + "\n")
        except OSError:
            discard_unwritten(stream)


def discard_unwritten(stream: TextIOBase) -> None:
    """Point the descriptor of ``stream`` at devnull after a write to it failed.

    The bytes of the failed write stay in the stream's buffer, and the
    interpreter's flush at exit would meet the same error and end the
    process with status 120.  A stream with no descriptor of its own, such
    as a ``StringIO``, is left alone.
    """
    try:
        fd = stream.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def open_input(source: str | Path, what: str) -> AbstractContextManager[BufferedIOBase]:
    """A binary handle on stdin if ``source`` is the string ``-``, else on the file.

    Use it in a ``with``: leaving it closes a file but never stdin.  A
    ``Path`` always names a file.  Failure to open raises
    :class:`IngestError`.
    """
    if source == "-":
        return nullcontext(sys.stdin.buffer)
    try:
        return open(source, "rb")
    except OSError as exc:
        raise _read_error(what, source, exc) from exc


def read_input(source: str | Path, what: str) -> bytes:
    """All the bytes of :func:`open_input`; failure raises :class:`IngestError`."""
    with open_input(source, what) as stream:
        try:
            return stream.read()
        except OSError as exc:
            raise _read_error(what, source, exc) from exc


def read_bodyfile(
    stream: BufferedIOBase, source: str | Path, hits: Callable[[str], list[int]] | None = None
) -> Iterator[ObjectRecord]:
    """Yield the records of a buffered binary bodyfile stream as its blocks are read.

    Each block, cut after its last ``\\n``, is decoded whole with
    ``surrogateescape``, which gives the text of decoding the whole input,
    since byte 0x0A never occurs inside a multi-byte UTF-8 sequence; the
    partial line after the cut starts the next block.  Each block is read
    by one ``read1``, so the lines of a pipe are read as they arrive.
    Nothing but the current block is held.  Each diagnostic is written to
    stderr by :func:`write_stderr` as it is reached, naming ``source``; a
    failed read raises :class:`IngestError`.  With ``hits``, the prefilter of
    :func:`~tracerecon.signatures.path_prefilter`, only the records of the
    candidate lines it lists are yielded.
    """

    def report(diag: ParseDiagnostic) -> None:
        write_stderr(f"{source}: {diag}")

    try:
        yield from _block_records(_blocks(stream), report, hits)
    except OSError as exc:
        raise _read_error("metadata", source, exc) from exc


def load_metadata(source: str | Path) -> list[ObjectRecord]:
    """Load object records from a bodyfile, or from stdin for ``-``.

    Each diagnostic is written to stderr as it is reached, as by
    :func:`read_bodyfile`; an unreadable source is fatal and raises
    :class:`IngestError` naming the path.
    """
    with open_input(source, "metadata") as stream:
        return list(read_bodyfile(stream, source))


def format_record(record: ObjectRecord) -> str:
    """Serialize one record back to a bodyfile line.

    Only the fields an ObjectRecord carries round-trip; MD5/inode/mode/UID/
    GID/size are emitted as placeholders.  A path that would read back as
    another raises ValueError: one that holds ``|``, ``\\`` or a newline,
    or ends in a ``(deleted)`` marker, or, on a deleted record, in
    whitespace that the marker's removal would take too.  So does a time
    that would not read back: 0, which reads as absent, or one past
    :data:`MAX_TIME`, which the parser rejects.  The message names the
    first such time in atime, mtime, ctime, crtime order.
    """
    path, accessed, modified, metachanged, created, deleted = record
    name = path + (" (deleted)" if deleted else "")
    if "|" in name:
        raise ValueError(f"path contains the field separator: {path!r}")
    if (
        "\\" in path
        or "\n" in path
        or DELETED_SUFFIX.search(path)
        or (deleted and path[-1:].isspace())
    ):
        raise ValueError(f"path would not read back as itself: {path!r}")
    times = []
    for label, value in zip(_TIME_LABELS, (accessed, modified, metachanged, created)):
        if value is not None and not 0 < value <= MAX_TIME:
            raise ValueError(f"{label} would not read back as itself: {value}")
        times.append(value or 0)
    return "0|{}|0|-|0|0|0|{}|{}|{}|{}".format(name, *times)


def write_bodyfile(records: Iterable[ObjectRecord], stream: TextIOBase) -> None:
    """Write records as newline-terminated bodyfile lines, input order kept."""
    for record in records:
        stream.write(format_record(record) + "\n")
