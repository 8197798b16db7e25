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
record, so memory stays flat as the input grows.  A bodyfile record drops its
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

from .model import ObjectRecord

log = logging.getLogger(__name__)

FIELD_COUNT = 11

# 9999-12-31T23:59:59Z, the last second datetime can represent.
MAX_TIME = 253402300799

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


def _time_error(raws: list[str]) -> ValueError:
    """The error naming the first of the four time fields that is not a valid time.

    :func:`_parse_line` checks all four at once and calls this only when
    that check fails, to report the field the way a field-by-field check would.
    """
    for label, raw in zip(_TIME_LABELS, raws):
        try:
            value = int(raw)
        except ValueError:
            return ValueError(f"{label} is not an integer: {raw!r}")
        if value < 0:
            return ValueError(f"{label} is negative: {value}")
        if value > MAX_TIME:
            return ValueError(f"{label} is beyond 9999-12-31T23:59:59Z: {value}")
    raise AssertionError(f"no time field is bad in {raws!r}")


def _parse_line(line: str) -> ObjectRecord:
    """Build the record of one line; raises ValueError with a reason on bad input.

    Every check of ``ObjectRecord(...)`` is made here, with the parser's own
    message, so the record is built without running them a second time.
    """
    fields = line.split("|")
    if len(fields) != FIELD_COUNT:
        raise ValueError(f"expected {FIELD_COUNT} fields, found {len(fields)}")
    try:
        int(fields[4]), int(fields[5]), int(fields[6])  # UID, GID, size: checked, not kept
    except ValueError:
        raise ValueError("UID/GID/size fields must be integers") from None
    try:
        atime, mtime, ctime, crtime = map(int, fields[7:])
    except ValueError:
        raise _time_error(fields[7:]) from None
    if not (
        0 <= atime <= MAX_TIME
        and 0 <= mtime <= MAX_TIME
        and 0 <= ctime <= MAX_TIME
        and 0 <= crtime <= MAX_TIME
    ):
        raise _time_error(fields[7:])
    name = fields[1].replace("\\", "/")
    # A name holds no newline, so the suffix can only match before a final ")".
    suffix = _DELETED_SUFFIX.search(name) if name.endswith(")") else None
    if suffix:
        name = name[:suffix.start()]
    if not name:
        raise ValueError(f"empty name: {fields[1]!r}")
    if not (atime or mtime or ctime or crtime):
        raise ValueError(f"no usable timestamps: {fields[1]!r}")
    record = object.__new__(ObjectRecord)  # the checks are made: skip __init__
    record.__dict__.update(
        path=name,
        accessed=atime or None,
        modified=mtime or None,
        metachanged=ctime or None,
        created=crtime or None,
        deleted=suffix is not None,
    )
    return record


def _records(
    lines: Iterable[str], report: Callable[[ParseDiagnostic], object]
) -> Iterator[ObjectRecord]:
    """The records of ``lines`` in input order; each diagnostic goes to ``report``.

    Lines are numbered from 1 and drop their trailing ``\\n`` and ``\\r``
    characters.  Blank lines and ``#`` lines are skipped silently.
    """
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            record = _parse_line(line)
        except ValueError as exc:
            report(ParseDiagnostic(line_no, str(exc)))
            continue
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


def read_bodyfile(stream: IO[bytes], source: str | Path) -> Iterator[ObjectRecord]:
    """Yield the records of a binary bodyfile stream as its lines are read.

    Each line is decoded on its own with ``surrogateescape``, which gives
    the text of decoding the whole input, since byte 0x0A never occurs
    inside a multi-byte UTF-8 sequence.  Nothing but the current line is
    held.  Each diagnostic is logged as it is reached, naming ``source``; a
    failed read raises :class:`IngestError`.
    """

    def report(diag: ParseDiagnostic) -> None:
        log.warning("%s: %s", source, diag)

    lines = map(methodcaller("decode", "utf-8", "surrogateescape"), stream)
    try:
        yield from _records(lines, report)
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
    whitespace that the marker's removal would take too.
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
    times = (
        record.accessed or 0,
        record.modified or 0,
        record.metachanged or 0,
        record.created or 0,
    )
    return "0|{}|0|-|0|0|0|{}|{}|{}|{}".format(name, *times)


def write_bodyfile(records: Iterable[ObjectRecord], stream: IO[str]) -> None:
    """Write records as newline-terminated bodyfile lines, input order kept."""
    for record in records:
        stream.write(format_record(record) + "\n")
