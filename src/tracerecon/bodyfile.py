"""Bodyfile metadata ingestion.

Parses the pipe-delimited body format produced by The Sleuth Kit 3.x
(``fls -m`` / ``ils -m`` style) into :class:`~tracerecon.model.ObjectRecord`
values, and serializes records back out for round trips and simulator
exports.

Field layout, bit-exact::

    MD5|name|inode|mode_as_string|UID|GID|size|atime|mtime|ctime|crtime

Every input of the package, a file or stdin, is opened in binary by
:func:`open_input` and split only at ``\\n``.  A bodyfile is streamed:
:func:`read_bodyfile` decodes and parses one line at a time and yields its
record, so memory stays flat as the input grows.  Given a path test, such
as ``scan``'s prefilter of its packs, it still checks and diagnoses every
line but builds a record only for a path the test accepts, since on a
typical disk few paths can match.  One compiled regex checks a typical
line whole and converts its times only for a wanted path; the fields are
split and checked one at a time only for the lines it rejects, which gives
the same records and diagnostics.  A bodyfile record drops its
trailing ``\\r`` characters, so a raw ``\\r`` inside a name is kept.  ``|`` is
forbidden inside fields, and the four time fields are decimal epoch
seconds where 0 means "absent"; values beyond 9999-12-31T23:59:59Z cannot
be rendered and are rejected, and so is a name left empty once its
``(deleted)`` suffix is removed.  Lines beginning with ``#`` and blank lines
are ignored.  Names are UTF-8; bytes that do not decode are kept as lone
surrogates (``surrogateescape``), since TSK writes file names as the raw
bytes it found.

NTFS-oriented kind mapping: ``atime`` is Accessed, ``mtime`` is Modified,
``crtime`` is Created and ``ctime`` is carried as MetaChanged.
"""

from __future__ import annotations

import logging
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from operator import methodcaller
from pathlib import Path
from typing import IO, Callable, ContextManager, Iterable, Iterator

from .model import ObjectRecord, read_int

log = logging.getLogger(__name__)

FIELD_COUNT = 11

# The last second datetime can represent, and its text in messages.
MAX_TIME = 253402300799
LAST_TIME = "9999-12-31T23:59:59Z"

_DELETED_SUFFIX = re.compile(r"\s*\(deleted(?:-realloc)?\)$")


class IngestError(Exception):
    """Raised when an input cannot be read or an output cannot be written."""


@dataclass(frozen=True)
class ParseDiagnostic:
    """A non-fatal problem found while parsing; the run continues."""

    line_no: int  # 1-based
    message: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


_TIME_LABELS = ("atime", "mtime", "ctime", "crtime")

# The lines that every check of _parse_fields accepts in its plainest form:
# eleven fields; a name that is not empty and does not end in ")", so it holds
# no (deleted) suffix; UID, GID and size of at most 18 ASCII digits, which
# int() reads under any digit limit; and four times of at most 11 digits,
# below MAX_TIME, not all zero.  Every other line takes the field-by-field path.
_PLAIN_LINE = re.compile(
    r"[^|]*\|([^|]*[^|)])\|[^|]*\|[^|]*\|-?[0-9]{1,18}\|-?[0-9]{1,18}\|-?[0-9]{1,18}"
    r"\|(?!0+\|0+\|0+\|0+\Z)([0-9]{1,11})\|([0-9]{1,11})\|([0-9]{1,11})\|([0-9]{1,11})"
)


def _record(
    name: str, atime: int, mtime: int, ctime: int, crtime: int, deleted: bool
) -> ObjectRecord:
    """The record of a checked line, built without running ObjectRecord's checks again."""
    record = object.__new__(ObjectRecord)
    record.__dict__.update(
        path=name,
        accessed=atime or None,
        modified=mtime or None,
        metachanged=ctime or None,
        created=crtime or None,
        deleted=deleted,
    )
    return record


def _parse_fields(line: str, wanted: Callable[[str], bool] | None) -> ObjectRecord | None:
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
    suffix = _DELETED_SUFFIX.search(name) if name.endswith(")") else None
    if suffix:
        name = name[:suffix.start()]
    if not name:
        raise ValueError(f"empty name: {fields[1]!r}")
    if not any(times):
        raise ValueError(f"no usable timestamps: {fields[1]!r}")
    if wanted is not None and not wanted(name):
        return None
    return _record(name, *times, suffix is not None)


def _parse_line(line: str, wanted: Callable[[str], bool] | None) -> ObjectRecord | None:
    """Build the record of one line; raises ValueError with a reason on bad input.

    Every check of ``ObjectRecord(...)`` is made here, with the parser's own
    message, so the record is built without running them a second time.
    A valid line whose normalized name ``wanted`` rejects gives None.  One
    regex checks a typical line, and converts none of its numbers when
    ``wanted`` rejects the name; the lines it rejects go to
    :func:`_parse_fields`, which gives the same result for any line.
    """
    match = _PLAIN_LINE.fullmatch(line)
    if match is None:
        return _parse_fields(line, wanted)
    name, atime, mtime, ctime, crtime = match.groups()
    name = name.replace("\\", "/")
    if wanted is not None and not wanted(name):
        return None
    return _record(name, int(atime), int(mtime), int(ctime), int(crtime), False)


def _records(
    lines: Iterable[str],
    report: Callable[[ParseDiagnostic], object],
    wanted: Callable[[str], bool] | None = None,
) -> Iterator[ObjectRecord]:
    """The records of ``lines`` in input order; each diagnostic goes to ``report``.

    Lines are numbered from 1 and drop their trailing ``\\n`` and ``\\r``
    characters.  Blank lines and ``#`` lines are skipped silently.  Every
    other line is checked, but a record is built only when ``wanted`` is
    None or accepts its path.
    """
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        try:
            record = _parse_line(line, wanted)
        except ValueError as exc:
            report(ParseDiagnostic(line_no, str(exc)))
            continue
        if record is not None:
            yield record


def parse_bodyfile(text: str) -> tuple[list[ObjectRecord], list[ParseDiagnostic]]:
    """Parse bodyfile text into records plus diagnostics for malformed lines.

    Record order equals input order; nothing is merged or deduplicated, so
    duplicated paths (a live and a deleted entry for the same name) stay as
    distinct records.  Malformed lines and lines whose four times are all
    zero are reported as diagnostics and skipped; they never abort the run.
    """
    diagnostics: list[ParseDiagnostic] = []
    records = list(_records(text.split("\n"), diagnostics.append))
    return records, diagnostics


def _read_error(what: str, source: str | Path, exc: OSError) -> IngestError:
    return IngestError(f"cannot read {what} {source}: {exc}")


def open_input(source: str | Path, what: str) -> ContextManager[IO[bytes]]:
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
    stream: IO[bytes], source: str | Path, wanted: Callable[[str], bool] | None = None
) -> Iterator[ObjectRecord]:
    """Yield the records of a binary bodyfile stream as its lines are read.

    Each line is decoded on its own with ``surrogateescape``, which gives
    the text of decoding the whole input, since byte 0x0A never occurs
    inside a multi-byte UTF-8 sequence.  Nothing but the current line is
    held.  Each diagnostic is logged as it is reached, naming ``source``; a
    failed read raises :class:`IngestError`.  Every line is checked and
    diagnosed, but with ``wanted`` (for ``scan``,
    :func:`~tracerecon.signatures.path_prefilter` of its pack) a record is
    yielded only for a path the test accepts, after backslashes become
    ``/`` and a ``(deleted)`` suffix is removed.
    """

    def report(diag: ParseDiagnostic) -> None:
        log.warning("%s: %s", source, diag)

    lines = map(methodcaller("decode", "utf-8", "surrogateescape"), stream)
    try:
        yield from _records(lines, report, wanted)
    except OSError as exc:
        raise _read_error("metadata", source, exc) from exc


def load_metadata(source: str | Path) -> list[ObjectRecord]:
    """Load object records from a bodyfile, or from stdin for ``-``.

    Diagnostics are emitted on the module logger; an unreadable source is
    fatal and raises :class:`IngestError` naming the path.
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
    path = record.path
    name = path + (" (deleted)" if record.deleted else "")
    if "|" in name:
        raise ValueError(f"path contains the field separator: {path!r}")
    if (
        "\\" in path
        or "\n" in path
        or _DELETED_SUFFIX.search(path)
        or (record.deleted and path[-1:].isspace())
    ):
        raise ValueError(f"path would not read back as itself: {path!r}")
    times = []
    for label, value in zip(
        _TIME_LABELS, (record.accessed, record.modified, record.metachanged, record.created)
    ):
        if value is not None and not 0 < value <= MAX_TIME:
            raise ValueError(f"{label} would not read back as itself: {value}")
        times.append(value or 0)
    return "0|{}|0|-|0|0|0|{}|{}|{}|{}".format(name, *times)


def write_bodyfile(records: Iterable[ObjectRecord], stream: IO[str]) -> None:
    """Write records as newline-terminated bodyfile lines, input order kept."""
    for record in records:
        stream.write(format_record(record) + "\n")
