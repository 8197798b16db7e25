"""The line-by-line bodyfile reader that the block reader replaced, kept as a test reference.

It decodes each line on its own and runs Python on every line: it drops the
line end, skips blank and ``#`` lines and hands every other line to
``_parse_line``.  With ``literals`` it keeps a record only when its line,
with backslashes made ``/`` and folded, holds one of them.  So it has no
plain-run regex and no candidate search that could go wrong.
"""

import io

from tracerecon.bodyfile import ParseDiagnostic, _parse_line
from tracerecon.signatures import fold


def reference_ingest(data, literals=None):
    """The records and diagnostics of bodyfile bytes, one line at a time."""
    records, diagnostics = [], []
    for line_no, raw in enumerate(io.BytesIO(data), start=1):
        line = raw.decode("utf-8", "surrogateescape").rstrip("\r\n")
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        try:
            record = _parse_line(line)
        except ValueError as exc:
            diagnostics.append(ParseDiagnostic(line_no, str(exc)))
            continue
        key = fold(line.replace("\\", "/"))
        if literals is None or any(literal in key for literal in literals):
            records.append(record)
    return records, diagnostics
