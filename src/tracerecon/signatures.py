"""Signature packs: per-action trace patterns, categories and thresholds.

A signature describes how one user action marks the file system: a set of
(regex, timestamp kind) trace patterns, each tagged with an update category,
plus the action's update threshold in seconds (the maximum delay between the
action and the last of its trace updates).

Categories:

* ``core`` - updated on every execution, and only by this action.  Core
  evidence pins down the most recent execution.
* ``support`` - updated irregularly (caching may suppress updates), but
  only ever by this action.  Each detection implies at least one instance.
* ``shared`` - updatable by several actions; detection alone cannot say
  which one ran.

Signature file grammar (line-oriented, UTF-8)::

    action: <name up to end of line>
    threshold: <positive integer seconds>
    <core|support|shared> <accessed|modified|created|metachanged> <regex to end of line>
    ... (one trace per line)
    ---

Blocks are separated by ``---``; ``#`` begins a comment line.  Patterns are
matched case-insensitively against full normalized paths with search
semantics (a pattern may match anywhere; a trailing ``$`` is honored).

Matching (:func:`match_pack`) walks the records once for the whole pack and
fills one bucket per (action, category) and per shared group.  Each distinct
(pattern, kind) pair is tried once per record, and its regex runs only when
the pattern's required literal (for ``.*/Prefetch/Firefox\\.EXE-.*\\.pf``,
``/prefetch/firefox.exe-``) occurs in the lowered path, in the spirit of
multi-pattern prefilters such as Aho-Corasick and Hyperscan.  The
prefilter is built inside each call, so loading a pack costs nothing extra.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Callable, Iterable, Iterator

from .model import (
    TIMESTAMP_FIELDS,
    ObjectRecord,
    TimestampKind,
    TraceState,
    trace_sort_key,
)


class TraceCategory(Enum):
    CORE = "core"
    SUPPORTING = "support"
    SHARED = "shared"


class SignatureError(ValueError):
    """Fatal signature-file problem; carries the 1-based line number."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        suffix = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{message}{suffix}")


@dataclass(frozen=True)
class TracePattern:
    """One trace rule: category, timestamp kind, and a path regex."""

    category: TraceCategory
    kind: TimestampKind
    source: str
    regex: re.Pattern = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.source:
            raise ValueError("trace pattern must not be empty")
        # Compile eagerly so a bad pattern fails at load time, not at match time.
        object.__setattr__(self, "regex", re.compile(self.source, re.IGNORECASE))

    def matches(self, path: str) -> bool:
        return self.regex.search(path) is not None


@dataclass(frozen=True)
class Signature:
    """All trace patterns for one action plus its update threshold."""

    action_name: str
    threshold: int
    traces: tuple[TracePattern, ...]

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError(f"signature {self.action_name!r}: threshold must be positive")
        if not self.traces:
            raise ValueError(f"signature {self.action_name!r}: needs at least one trace")

    def patterns(self, category: TraceCategory) -> tuple[TracePattern, ...]:
        return tuple(t for t in self.traces if t.category is category)


# A shared trace is identified by its (pattern source, kind) pair; the same
# pair listed by several signatures refers to the same on-disk evidence.
SharedKey = tuple[str, TimestampKind]


class SignaturePack:
    """An immutable set of signatures with an index of shared traces."""

    def __init__(self, signatures: Iterable[Signature]):
        self.signatures: tuple[Signature, ...] = tuple(signatures)
        seen: set[str] = set()
        for sig in self.signatures:
            if sig.action_name in seen:
                raise ValueError(f"duplicate action name in pack: {sig.action_name!r}")
            seen.add(sig.action_name)
        self.shared_index: dict[SharedKey, frozenset[str]] = self._build_shared_index()

    def _build_shared_index(self) -> dict[SharedKey, frozenset[str]]:
        shared_keys = {
            (trace.source, trace.kind)
            for sig in self.signatures
            for trace in sig.traces
            if trace.category is TraceCategory.SHARED
        }
        index: dict[SharedKey, set[str]] = {key: set() for key in shared_keys}
        for sig in self.signatures:
            for trace in sig.traces:
                key = (trace.source, trace.kind)
                if key in index:
                    index[key].add(sig.action_name)
        return {key: frozenset(names) for key, names in index.items()}

    def __iter__(self) -> Iterator[Signature]:
        return iter(self.signatures)

    def __len__(self) -> int:
        return len(self.signatures)

    def get(self, action_name: str) -> Signature:
        for sig in self.signatures:
            if sig.action_name == action_name:
                return sig
        raise KeyError(action_name)

    def shared_groups(self) -> list[tuple[frozenset[str], tuple[TracePattern, ...]]]:
        """Shared traces grouped by their candidate-action set.

        Traces referenced by the same set of actions are evidence of the
        same ambiguity and are clustered together downstream.  Groups are
        returned in a deterministic order.
        """
        by_candidates: dict[frozenset[str], list[TracePattern]] = {}
        seen: set[SharedKey] = set()
        for sig in self.signatures:
            for trace in sig.traces:
                key = (trace.source, trace.kind)
                if trace.category is not TraceCategory.SHARED or key in seen:
                    continue
                seen.add(key)
                candidates = self.shared_index[key]
                by_candidates.setdefault(candidates, []).append(trace)
        return [
            (candidates, tuple(patterns))
            for candidates, patterns in sorted(
                by_candidates.items(), key=lambda item: sorted(item[0])
            )
        ]


def merge_packs(packs: Iterable[SignaturePack]) -> SignaturePack:
    """Combine several packs into one; duplicate action names are fatal."""
    signatures: list[Signature] = []
    for pack in packs:
        signatures.extend(pack.signatures)
    return SignaturePack(signatures)


_CATEGORY_WORDS = {c.value: c for c in TraceCategory}
_KIND_WORDS = {k.value: k for k in TimestampKind}


def parse_signature_pack(source: str | IO[str]) -> SignaturePack:
    """Parse signature-file text into a pack.

    Any structural problem (unknown category or kind word, non-positive
    threshold, regex that does not compile, missing fields) is a fatal
    :class:`SignatureError` naming the offending line.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    signatures: list[Signature] = []

    name: str | None = None
    name_line = 0
    threshold: int | None = None
    traces: list[TracePattern] = []

    def finish_block(at_line: int) -> None:
        nonlocal name, threshold, traces
        if name is None and threshold is None and not traces:
            return  # empty block (stray separator) is harmless
        if name is None:
            raise SignatureError(at_line, "block is missing an 'action:' line")
        if threshold is None:
            raise SignatureError(at_line, f"action {name!r} is missing a 'threshold:' line")
        if not traces:
            raise SignatureError(at_line, f"action {name!r} defines no trace patterns")
        signatures.append(Signature(name, threshold, tuple(traces)))
        name = None
        threshold = None
        traces = []

    last_line = 0
    for line_no, raw in enumerate(stream, start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "---":
            finish_block(line_no)
            continue
        if line.startswith("action:"):
            if name is not None:
                raise SignatureError(line_no, "unexpected second 'action:' in block")
            name = line[len("action:"):].strip()
            name_line = line_no
            if not name:
                raise SignatureError(line_no, "empty action name")
            continue
        if line.startswith("threshold:"):
            if name is None:
                raise SignatureError(line_no, "'threshold:' before 'action:'")
            raw_value = line[len("threshold:"):].strip()
            try:
                threshold = int(raw_value)
            except ValueError:
                raise SignatureError(line_no, f"threshold is not an integer: {raw_value!r}")
            if threshold <= 0:
                raise SignatureError(line_no, f"threshold must be positive, got {threshold}")
            continue
        # Otherwise: a trace line "<category> <kind> <regex>".
        if name is None:
            raise SignatureError(line_no, f"trace line before 'action:': {line!r}")
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise SignatureError(line_no, f"malformed trace line: {line!r}")
        cat_word, kind_word, pattern = parts
        if cat_word not in _CATEGORY_WORDS:
            raise SignatureError(line_no, f"unknown category {cat_word!r}")
        if kind_word not in _KIND_WORDS:
            raise SignatureError(line_no, f"unknown timestamp kind {kind_word!r}")
        try:
            trace = TracePattern(_CATEGORY_WORDS[cat_word], _KIND_WORDS[kind_word], pattern)
        except re.error as exc:
            raise SignatureError(line_no, f"regex does not compile: {exc}")
        traces.append(trace)

    finish_block(last_line or 1)
    try:
        return SignaturePack(signatures)
    except ValueError as exc:
        raise SignatureError(name_line or None, str(exc))


# A match bucket: one action's traces of one category, or one shared group
# (keyed by its candidate-action set, as in SignaturePack.shared_groups).
Bucket = tuple[str, TraceCategory] | frozenset[str]

_REGEX_SPECIALS = frozenset("\\.^$*+?{}[]|()")


def _class_end(source: str, start: int) -> int | None:
    """Index of the ``]`` closing the character class opened at ``start``."""
    i = start + 1
    if source[i:i + 1] == "^":
        i += 1
    if source[i:i + 1] == "]":
        i += 1  # a leading ']' is a member, not the end
    while i < len(source):
        if source[i] == "\\":
            i += 2
        elif source[i] == "]":
            return i
        else:
            i += 1
    return None


def required_literal(source: str) -> str | None:
    """Lower-cased ASCII text that every match of ``source`` must contain.

    Reads the pattern as a plain concatenation: ASCII characters, ``\\``
    before punctuation, ``.``, ``[...]``, ``^``, ``$`` and the quantifiers
    ``* + ?``.  Classes, dots and anchors end a run of literal characters; a
    quantifier also drops the character it applies to.  The longest run
    wins.  Any other construct (alternation, groups, counted repeats, ``\\``
    before a letter or digit, non-ASCII text) gives None, and so does a
    pattern without literal characters: such patterns always run their
    regex.
    """
    runs: list[str] = []
    run: list[str] = []
    i = 0
    while i < len(source):
        char = source[i]
        if char == "\\":
            escaped = source[i + 1:i + 2]
            if not escaped or not escaped.isascii() or escaped.isalnum():
                return None
            run.append(escaped)
            i += 2
            continue
        if char == "[":
            end = _class_end(source, i)
            if end is None:
                return None
            i = end
        elif char in "*+?":
            if run:  # non-empty only when the previous token was a literal
                run.pop()
        elif char not in ".^$":
            if not char.isascii() or char in _REGEX_SPECIALS:
                return None
            run.append(char)
            i += 1
            continue
        runs.append("".join(run))
        run = []
        i += 1
    runs.append("".join(run))
    return max(runs, key=len).lower() or None


def match_pack(
    pack: SignaturePack, records: Iterable[ObjectRecord]
) -> dict[Bucket, list[TraceState]]:
    """Resolve every pattern of the pack against the records in one pass.

    Returns a sorted list of trace states for each (action, category) of
    every signature and for each shared group.  Within a bucket one record
    contributes at most one state per timestamp kind, however many of the
    bucket's patterns match it; distinct records matching the same pattern
    each contribute.  A record lacking the referenced timestamp contributes
    nothing.

    Patterns are collapsed to unique (source, kind) pairs, each listing the
    buckets it feeds.  A record's path is searched with a pattern's regex
    only when the pattern's :func:`required_literal` occurs in the lowered
    path, so most records cost one substring test per pattern.  Non-ASCII
    paths always run the regex: case-insensitive regex matching folds
    characters such as ``ſ`` (to ``s``) and ``İ`` (to ``i``) differently
    from ``str.lower``.
    """
    buckets: dict[Bucket, list[TraceState]] = {
        (sig.action_name, category): [] for sig in pack for category in TraceCategory
    }
    feeds: dict[SharedKey, tuple[re.Pattern, list[Bucket]]] = {}
    for sig in pack:
        for trace in sig.traces:
            key = (trace.source, trace.kind)
            feeds.setdefault(key, (trace.regex, []))[1].append(
                (sig.action_name, trace.category)
            )
    for key, candidates in pack.shared_index.items():
        buckets.setdefault(candidates, [])
        feeds[key][1].append(candidates)

    by_kind: dict[TimestampKind, list[tuple[str | None, Callable, tuple[Bucket, ...]]]] = {}
    for (source, kind), (regex, targets) in feeds.items():
        by_kind.setdefault(kind, []).append(
            (required_literal(source), regex.search, tuple(dict.fromkeys(targets)))
        )
    plan = [(TIMESTAMP_FIELDS[kind], kind, entries) for kind, entries in by_kind.items()]

    for record in records:
        path = record.path
        lowered = path.lower()
        ascii_path = path.isascii()
        for field_name, kind, entries in plan:
            value = getattr(record, field_name)
            if value is None:
                continue
            state = None
            for literal, search, targets in entries:
                if literal is not None and ascii_path and literal not in lowered:
                    continue
                if search(path) is None:
                    continue
                if state is None:
                    state = TraceState(path, kind, value)
                    filled: set[Bucket] = set()
                for target in targets:
                    if target not in filled:
                        filled.add(target)
                        buckets[target].append(state)
    for states in buckets.values():
        states.sort(key=trace_sort_key)
    return buckets
