"""Bodyfile metadata ingestion.

Parses the pipe-delimited body format produced by The Sleuth Kit 3.x
(``fls -m`` / ``ils -m`` style) into :class:`~tracerecon.model.ObjectRecord`
values, and serializes records back out for round trips and simulator
exports.

Field layout, bit-exact::

    MD5|name|inode|mode_as_string|UID|GID|size|atime|mtime|ctime|crtime

Records end at ``\\n`` (a trailing ``\\r`` is dropped), so a raw ``\\r``
inside a name is kept, from a file and from stdin alike.  ``|`` is
forbidden inside fields, and the four time fields are decimal epoch
seconds where 0 means "absent"; values beyond 9999-12-31T23:59:59Z cannot
be rendered and are rejected.  Lines beginning with ``#`` and blank lines
are ignored.  Names are UTF-8; bytes that do not decode are kept as lone
surrogates (``surrogateescape``), since TSK writes file names as the raw
bytes it found.

NTFS-oriented kind mapping: ``atime`` is Accessed, ``mtime`` is Modified,
``crtime`` is Created and ``ctime`` is carried as MetaChanged.
"""

from __future__ import annotations

import io
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
    """Raised when a metadata source cannot be read at all."""


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
    try:
        # atime, mtime, ctime, crtime are the record's field order too.
        return ObjectRecord(name, *times, deleted=deleted)
    except ValueError:
        raise ValueError(f"no usable timestamps: {fields[1]!r}") from None


def parse_bodyfile(
    source: str | IO[str],
) -> tuple[list[ObjectRecord], list[ParseDiagnostic]]:
    """Parse bodyfile text into records plus diagnostics for malformed lines.

    Record order equals input order; nothing is merged or deduplicated, so
    duplicated paths (a live and a deleted entry for the same name) stay as
    distinct records.  Malformed lines and lines whose four times are all
    zero are reported as diagnostics and skipped; they never abort the run.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    records: list[ObjectRecord] = []
    diagnostics: list[ParseDiagnostic] = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            records.append(_parse_line(line))
        except ValueError as exc:
            diagnostics.append(ParseDiagnostic(line_no, str(exc)))
    return records, diagnostics


def load_metadata(source: str | Path) -> list[ObjectRecord]:
    """Load object records from a file path or ``-`` for stdin.

    Diagnostics are emitted on the module logger; an unreadable source is
    fatal and raises :class:`IngestError` naming the path.
    """
    try:
        data = sys.stdin.buffer.read() if str(source) == "-" else Path(source).read_bytes()
    except OSError as exc:
        raise IngestError(f"cannot read metadata from {source}: {exc}") from exc
    text = data.decode("utf-8", errors="surrogateescape")
    del data  # the text alone is held while parsing
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
