"""The signature and scenario parsers as they were before the block-file grammar moved, kept as a test reference.

Each parser is copied whole, with the shared reader it used then: content
lines, blocks and their headers, and the ``if`` chain that read ``ma``,
``da`` and ``oa`` lines.  They build the package's own result and error
types, so a result or an error compares equal to the current parsers'.
An ``oa`` line's path is checked and then dropped, as the package does.
"""

import itertools
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

from tracerecon.blockfile import BlockFileError
from tracerecon.bodyfile import LAST_TIME, MAX_TIME
from tracerecon.model import TimestampKind, read_int
from tracerecon.signatures import (
    Signature,
    SignatureError,
    SignaturePack,
    TraceCategory,
    TracePattern,
)
from tracerecon.simulator import (
    ActionSpec,
    InstanceSchedule,
    PathVariant,
    Scenario,
    ScenarioError,
    ScheduleEntry,
)

_DELETED_SUFFIX = re.compile(r"\s*\(deleted(?:-realloc)?\)$")
_READS_AS_ABSENT = "would read back from the exported bodyfile as absent"

_CATEGORY_WORDS = {c.value: c for c in TraceCategory}
_KIND_WORDS = {k.value: k for k in TimestampKind}


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
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


@dataclass(frozen=True)
class _Block:
    """One ``---``-separated block: its headers and its other lines."""

    name: str
    threshold: int
    line_no: int  # of the ``action:`` line
    body: list[tuple[int, str]]


def _read_blocks(
    lines: Iterable[tuple[int, str]], error: type[BlockFileError]
) -> Iterator[_Block]:
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
                yield _Block(name, threshold, start, body)
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


def parse_signature_pack(text: str) -> SignaturePack:
    """Parse signature-file text into a pack.

    Any structural problem (unknown category or kind word, non-positive
    threshold, regex that does not compile, missing fields) is a fatal
    :class:`SignatureError` naming the offending line.  A regex that ``re``
    only warns about (a possible nested set, a global flag not at the start)
    does not compile either, on every Python.
    """
    signatures: list[Signature] = []
    # Set once per pack: a filter per pattern would slow every compile.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in _read_blocks(_content_lines(text), SignatureError):
            traces: list[TracePattern] = []
            for line_no, line in block.body:
                parts = line.split(None, 2)
                if len(parts) != 3:
                    raise SignatureError(line_no, f"malformed trace line: {line!r}")
                cat_word, kind_word, pattern = parts
                if cat_word not in _CATEGORY_WORDS:
                    raise SignatureError(line_no, f"unknown category {cat_word!r}")
                if kind_word not in _KIND_WORDS:
                    raise SignatureError(line_no, f"unknown timestamp kind {kind_word!r}")
                try:
                    traces.append(
                        TracePattern(_CATEGORY_WORDS[cat_word], _KIND_WORDS[kind_word], pattern)
                    )
                except (re.error, OverflowError, RecursionError, Warning) as exc:
                    raise SignatureError(line_no, f"regex does not compile: {exc}") from None
            if not traces:
                raise SignatureError(
                    block.line_no, f"action {block.name!r} defines no trace patterns"
                )
            signatures.append(Signature(block.name, block.threshold, tuple(traces)))
    return SignaturePack(signatures)


def _target_path(line_no: int, keyword: str, text: str) -> str:
    """The path of a target line, if the exported bodyfile reads it back unchanged."""
    path = text.strip()
    if "\\" in path:
        raise ScenarioError(line_no, f"'{keyword}' path contains '\\', read back as '/'")
    if _DELETED_SUFFIX.search(path):
        raise ScenarioError(line_no, f"'{keyword}' path ends in a bodyfile deletion marker")
    return path


def _is_header(line_no: int, line: str, header: str) -> bool:
    """Whether ``line`` is the bare ``header``; text after its colon is an error."""
    if not line.startswith(header):
        return False
    if line != header:
        rest = line[len(header):].strip()
        raise ScenarioError(line_no, f"unexpected text after {header!r}: {rest!r}")
    return True


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; structural problems raise :class:`ScenarioError`."""
    lines = _content_lines(text)
    blocks = itertools.takewhile(lambda item: not _is_header(*item, "schedule:"), lines)
    specs: dict[str, ActionSpec] = {}
    for block in _read_blocks(blocks, ScenarioError):
        # One (updates, defaults) pair per variant.
        variants: list[tuple[set, set]] = []
        for line_no, line in block.body:
            if _is_header(line_no, line, "variant:"):
                variants.append((set(), set()))
                continue
            parts = line.split(None, 1)
            keyword = parts[0]
            if keyword not in ("ma", "da", "oa"):
                raise ScenarioError(line_no, f"unrecognized line: {line!r}")
            if len(parts) != 2:
                raise ScenarioError(line_no, f"'{keyword}' line is missing its arguments")
            if "|" in parts[1]:
                raise ScenarioError(line_no, f"'{keyword}' line contains the field separator '|'")
            if not variants:
                variants.append((set(), set()))
            updates, defaults = variants[-1]
            if keyword == "oa":  # checked, then writes nothing
                _target_path(line_no, keyword, parts[1])
                continue
            sub = parts[1].split(None, 1)
            if len(sub) != 2 or sub[0] not in _KIND_WORDS:
                raise ScenarioError(
                    line_no, f"'{keyword}' needs a timestamp kind then its arguments"
                )
            kind = _KIND_WORDS[sub[0]]
            if keyword == "ma":
                updates.add((_target_path(line_no, keyword, sub[1]), kind))
                continue
            value_and_path = sub[1].split(None, 1)
            if len(value_and_path) != 2:
                raise ScenarioError(line_no, "'da' needs '<kind> <default epoch> <path>'")
            try:
                default = read_int(value_and_path[0])
            except ValueError:
                raise ScenarioError(line_no, f"bad default epoch {value_and_path[0]!r}")
            if default < 0:
                raise ScenarioError(line_no, "default epoch must be non-negative")
            if default == 0:
                raise ScenarioError(line_no, f"default epoch 0 {_READS_AS_ABSENT}")
            if default > MAX_TIME:
                raise ScenarioError(line_no, f"default epoch is past {LAST_TIME}: {default}")
            defaults.add((_target_path(line_no, keyword, value_and_path[1]), kind, default))
        if not variants:
            raise ScenarioError(block.line_no, f"action {block.name!r} defines no variants")
        try:
            specs[block.name] = ActionSpec(
                block.name,
                block.threshold,
                tuple(PathVariant(*map(frozenset, variant)) for variant in variants),
            )
        except ValueError as exc:
            raise ScenarioError(block.line_no, str(exc))

    entries: list[ScheduleEntry] = []
    for line_no, line in lines:
        # The action name is the text between the epoch and the variant, kept
        # as written, so a name with a tab or a run of spaces still matches.
        head = line.split(None, 1)
        tail = head[1].rsplit(None, 1) if len(head) == 2 else []
        if len(tail) != 2:
            raise ScenarioError(line_no, "schedule entry needs '<epoch> <action> <variant|?>'")
        epoch_token, (action_name, variant_token) = head[0], tail
        try:
            tau = read_int(epoch_token)
        except ValueError:
            raise ScenarioError(line_no, f"bad epoch value {epoch_token!r}")
        spec = specs.get(action_name)
        if spec is None:
            raise ScenarioError(line_no, f"unknown action in schedule: {action_name!r}")
        if tau > MAX_TIME - spec.threshold:
            raise ScenarioError(line_no, f"epoch plus threshold is past {LAST_TIME}: {tau}")
        if tau == 0:
            raise ScenarioError(line_no, f"epoch 0 can write time 0, which {_READS_AS_ABSENT}")
        if variant_token == "?":
            variant: int | None = None
        else:
            try:
                variant = read_int(variant_token)
            except ValueError:
                raise ScenarioError(
                    line_no, f"variant must be an index or '?': {variant_token!r}"
                )
            if not 0 <= variant < len(spec.variants):
                raise ScenarioError(line_no, f"action {action_name!r} has no variant {variant}")
        try:
            entries.append(ScheduleEntry(action_name, tau, variant))
        except ValueError as exc:
            raise ScenarioError(line_no, str(exc))
    return Scenario(specs, InstanceSchedule.of(entries))
