"""Bodyfile metadata ingestion.

Parses the pipe-delimited body format produced by The Sleuth Kit 3.x
(``fls -m`` / ``ils -m`` style) into :class:`~tracerecon.model.ObjectRecord`
values, and serializes records back out for round trips and simulator
exports.

Field layout, bit-exact::

    MD5|name|inode|mode_as_string|UID|GID|size|atime|mtime|ctime|crtime

Every input of the package, a file or stdin, is read as bytes by
:func:`read_input` and split only at ``\\n``.  A bodyfile record drops its
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
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

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


def _parse_line(line: str) -> ObjectRecord:
    """Build the record of one line; raises ValueError with a reason on bad input."""
    fields = line.split("|")
    if len(fields) != FIELD_COUNT:
        raise ValueError(f"expected {FIELD_COUNT} fields, found {len(fields)}")
    try:
        for raw in fields[4:7]:  # UID, GID, size: checked, not kept
            int(raw)
    except ValueError:
        raise ValueError("UID/GID/size fields must be integers") from None
    times: list[int | None] = []
    for label, raw in zip(_TIME_LABELS, fields[7:]):
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{label} is not an integer: {raw!r}") from None
        if value < 0:
            raise ValueError(f"{label} is negative: {value}")
        if value > MAX_TIME:
            raise ValueError(f"{label} is beyond 9999-12-31T23:59:59Z: {value}")
        times.append(value or None)
    name = fields[1].replace("\\", "/")
    deleted = bool(_DELETED_SUFFIX.search(name))
    if deleted:
        name = _DELETED_SUFFIX.sub("", name)
    if not name:
        raise ValueError(f"empty name: {fields[1]!r}")
    try:
        # atime, mtime, ctime, crtime are the record's field order too.
        return ObjectRecord(name, *times, deleted=deleted)
    except ValueError:
        raise ValueError(f"no usable timestamps: {fields[1]!r}") from None


def parse_bodyfile(text: str) -> tuple[list[ObjectRecord], list[ParseDiagnostic]]:
    """Parse bodyfile text into records plus diagnostics for malformed lines.

    Record order equals input order; nothing is merged or deduplicated, so
    duplicated paths (a live and a deleted entry for the same name) stay as
    distinct records.  Malformed lines and lines whose four times are all
    zero are reported as diagnostics and skipped; they never abort the run.
    """
    records: list[ObjectRecord] = []
    diagnostics: list[ParseDiagnostic] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            records.append(_parse_line(line))
        except ValueError as exc:
            diagnostics.append(ParseDiagnostic(line_no, str(exc)))
    return records, diagnostics


def read_input(source: str | Path, what: str) -> bytes:
    """The bytes of stdin if ``source`` is the string ``-``, else of the file.

    A ``Path`` always names a file.  Failure raises :class:`IngestError`.
    """
    try:
        return sys.stdin.buffer.read() if source == "-" else Path(source).read_bytes()
    except OSError as exc:
        raise IngestError(f"cannot read {what} {source}: {exc}") from exc


def load_metadata(source: str | Path) -> list[ObjectRecord]:
    """Load object records from a bodyfile, or from stdin for ``-``.

    Diagnostics are emitted on the module logger; an unreadable source is
    fatal and raises :class:`IngestError` naming the path.
    """
    text = read_input(source, "metadata").decode("utf-8", errors="surrogateescape")
    records, diagnostics = parse_bodyfile(text)
    for diag in diagnostics:
        log.warning("%s: %s", source, diag)
    return records


def format_record(record: ObjectRecord) -> str:
    """Serialize one record back to a bodyfile line.

    Only the fields an ObjectRecord carries round-trip; MD5/inode/mode/UID/
    GID/size are emitted as placeholders.
    """
    name = record.path + (" (deleted)" if record.deleted else "")
    if "|" in name:
        raise ValueError(f"path contains the field separator: {record.path!r}")
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
