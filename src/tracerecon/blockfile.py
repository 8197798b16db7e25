"""Block files: the line grammar signature and scenario files share.

A block file is UTF-8 text split only at ``\\n``.  Each line is stripped;
blank lines and lines beginning with ``#`` are dropped.  The rest fall into
blocks separated by ``---``, each one action::

    action: <name up to end of line>
    threshold: <positive integer seconds>
    <body lines, read by the file type>
    ---

:func:`read_blocks` reads the ``action:`` and ``threshold:`` headers and
hands every other line of a block, unread, to the parser of the file type:
:func:`~tracerecon.signatures.parse_signature_pack` reads trace lines,
:func:`~tracerecon.simulator.parse_scenario` reads variant lines.  Both
name a timestamp kind with a word of :data:`KIND_WORDS`.  An error about
one line names that line; an error about a whole block (missing threshold,
duplicate name, and each file type's own block checks) names its
``action:`` line.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .model import TimestampKind, read_int

KIND_WORDS = {k.value: k for k in TimestampKind}


class BlockFileError(ValueError):
    """Fatal problem in a block file; carries the 1-based line number."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        self.message = message  # without the line suffix
        suffix = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{message}{suffix}")


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Numbered, stripped block-file lines, split only at ``\\n``; blanks and comments dropped.

    A space or tab escaped by an odd run of trailing backslashes is kept.  One
    leading UTF-8 byte-order mark, as some Windows editors write, is dropped.
    """
    text = text.removeprefix("\ufeff")
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line.endswith("\\"):
            after = raw.lstrip()[len(line):len(line) + 1]
            if after in (" ", "\t") and (len(line) - len(line.rstrip("\\"))) % 2:
                line += after
        if line and not line.startswith("#"):
            yield line_no, line


class Block(namedtuple("Block", "name threshold line_no body")):
    """One ``---``-separated block: its headers and its other lines."""

    name: str
    threshold: int
    line_no: int  # of the ``action:`` line
    body: list[tuple[int, str]]

    __slots__ = ()


def read_blocks(
    lines: Iterable[tuple[int, str]], error: type[BlockFileError]
) -> Iterator[Block]:
    """Group content lines into blocks, reading each block's headers.

    Every line of a block other than ``action:`` and ``threshold:`` goes to
    its body unread.  Problems are raised as ``error``; a block is checked
    for a threshold when it closes, before its body is handed out.
    """
    names: set[str] = set()
    name: str | None = None
    threshold: int | None = None
    start = 0
    body: list[tuple[int, str]] = []
    for line_no, line in itertools.chain(lines, [(0, "---")]):
        if line == "---":
            if name is not None:
                if threshold is None:
                    raise error(start, f"action {name!r} is missing a 'threshold:' line")
                yield Block(name, threshold, start, body)
            name, threshold, body = None, None, []
        elif line.startswith("action:"):
            if name is not None:
                raise error(line_no, "unexpected second 'action:' in block")
            name, start = line[len("action:"):].strip(), line_no
            if not name:
                raise error(line_no, "empty action name")
            if name in names:
                raise error(line_no, f"duplicate action name {name!r}")
            names.add(name)
        elif name is None:
            raise error(line_no, f"line before 'action:': {line!r}")
        elif line.startswith("threshold:"):
            if threshold is not None:
                raise error(line_no, "unexpected second 'threshold:' in block")
            raw_value = line[len("threshold:"):].strip()
            try:
                threshold = read_int(raw_value)
            except ValueError:
                raise error(line_no, f"threshold is not an integer: {raw_value!r}") from None
            if threshold <= 0:
                raise error(line_no, f"threshold must be positive, got {threshold}")
        else:
            body.append((line_no, line))
