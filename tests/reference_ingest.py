"""The line-by-line bodyfile reader that the block reader replaced, kept as a test reference.

It decodes each line on its own and runs Python on every line: it drops the
line end, skips blank and ``#`` lines and hands every other line, with
``wanted``, to ``_parse_line``.  So it has no plain-run regex and no
candidate search that could go wrong.
"""

import io

from tracerecon.bodyfile import ParseDiagnostic, _parse_line


def reference_ingest(data, wanted=None):
    """The records and diagnostics of bodyfile bytes, one line at a time."""
    records, diagnostics = [], []
    for line_no, raw in enumerate(io.BytesIO(data), start=1):
        line = raw.decode("utf-8", "surrogateescape").rstrip("\r\n")
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        try:
            record = _parse_line(line, wanted)
        except ValueError as exc:
            diagnostics.append(ParseDiagnostic(line_no, str(exc)))
            continue
        if record is not None:
            records.append(record)
    return records, diagnostics
