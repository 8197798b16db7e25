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

A signature file is a block file (:mod:`tracerecon.blockfile`): each block
is one action, and each line of its body after the ``action:`` and
``threshold:`` headers is one trace::

    <core|support|shared> <accessed|modified|created|metachanged> <regex to end of line>

A block with no trace is an error naming its ``action:`` line.

Patterns are matched case-insensitively against full normalized paths with
search semantics (a pattern may match anywhere; a trailing ``$`` is honored).

A pack forms its match buckets once, when it is built: one per action for
its core and one for its supporting traces, and one per shared group, the
set of actions a shared trace is evidence for.  Matching (:func:`match_pack`)
walks the records once for the whole pack and fills every bucket.  Each
pattern has a required literal that every match holds in the lowered path
(for ``.*/Prefetch/Firefox\\.EXE-.*\\.pf``, ``/prefetch/firefox.exe-``).  A
pack's literal index, built on first use, finds the literals a path holds
with one regex of a trie of them all, as in RE2's prefilter atoms and Cox's
trigram index, and each distinct (pattern, kind) pair runs its regex only
on a path that holds its literal, or on every path if it has none.  Each
record path is folded once into that lowered key: a non-ASCII path first
maps ``İ`` and ``ı`` to ``i``, ``ſ`` to ``s`` and the Kelvin sign ``K`` to
``k``, the only non-ASCII characters that case-insensitive matching
equates with an ASCII one.  A trace of one object path, built by
:meth:`TracePattern.for_path` (as the simulator derives one per target
path), skips the index: the matcher finds every such hit with one dict
lookup of the key, and a path ending in ``\\n`` is found under the path
plus ``\\n``, since ``$`` also matches before a final newline.  Such a
trace of an ASCII path compiles its regex only on first use, where any
other pattern compiles when it is built.  A ``^...$`` line in a signature
file is an ordinary pattern.

:func:`path_prefilter` searches the same index before a record exists:
its ``hits`` lists the candidate lines of a whole block of bodyfile lines,
by the rule stated there, and :func:`~tracerecon.bodyfile.read_bodyfile`
builds records only for them.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .blockfile import KIND_WORDS, BlockFileError, content_lines, read_blocks
from .model import ObjectRecord, TimestampKind, TraceState, trace_sort_key


class TraceCategory(Enum):
    """How an action updates a trace: on every execution, irregularly, or shared.

    A category hashes by identity, a C slot, where Enum's own ``__hash__`` is
    a Python call (``hash(self._name_)``) on every dict or set lookup, such
    as each ``(action, category)`` bucket key.  No output depends on the
    hash: a name's hash already changes with ``PYTHONHASHSEED``, and every
    output is byte-stable under any hash seed.
    """

    CORE = "core"
    SUPPORTING = "support"
    SHARED = "shared"

    __hash__ = object.__hash__


class SignatureError(BlockFileError):
    """Fatal signature-file problem."""


@dataclass(frozen=True)
class TracePattern:
    """One trace rule: category, timestamp kind, and a path regex.

    The regex is compiled at once, so a bad pattern fails at load time, not
    at match time.  ``exact`` is None except on a trace of one ASCII object
    path built by :meth:`for_path`, where it is the lowered path and the
    regex is compiled only when first used.
    """

    category: TraceCategory
    kind: TimestampKind
    source: str
    # __init__ leaves this field alone, so for_path sets it before __post_init__ reads it.
    exact: str | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.source:
            raise ValueError("trace pattern must not be empty")
        if self.exact is None:
            self.regex  # compile now: the property caches it

    @classmethod
    def for_path(cls, category: TraceCategory, kind: TimestampKind, path: str) -> TracePattern:
        """The trace of exactly the object ``path``, with source ``^`` + escaped path + ``$``."""
        trace = cls.__new__(cls)
        if path.isascii():
            object.__setattr__(trace, "exact", path.lower())
        trace.__init__(category, kind, "^" + re.escape(path) + "$")
        return trace

    @cached_property
    def regex(self) -> re.Pattern:
        return re.compile(self.source, re.IGNORECASE)

    @cached_property
    def literal(self) -> str | None:
        """What a path's :func:`fold` key must hold to match: ``exact`` if set, else
        :func:`required_literal` of the source.  Worked out on first use, once."""
        return self.exact or required_literal(self.source)

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


# A shared trace is identified by its (pattern source, kind) pair; the same
# pair listed by several signatures refers to the same on-disk evidence.
SharedKey = tuple[str, TimestampKind]

# A match bucket: one action's core or supporting traces, or one shared
# group keyed by its candidate-action set.
Bucket = tuple[str, TraceCategory] | frozenset[str]


class SignaturePack:
    """An immutable set of signatures and the match buckets they define.

    ``buckets`` maps every signature's (action, CORE) and (action,
    SUPPORTING) buckets, then every shared group in sorted candidate order,
    to their patterns.  A group lists once each shared (source, kind) pair
    whose candidates, the signatures listing the pair in any category, are
    its key.
    """

    def __init__(self, signatures: Iterable[Signature]):
        self.signatures: tuple[Signature, ...] = tuple(signatures)
        self.buckets: dict[Bucket, tuple[TracePattern, ...]] = {}
        listed: dict[SharedKey, set[str]] = {}
        for sig in self.signatures:
            if (sig.action_name, TraceCategory.CORE) in self.buckets:
                raise SignatureError(None, f"duplicate action name in pack: {sig.action_name!r}")
            for category in (TraceCategory.CORE, TraceCategory.SUPPORTING):
                self.buckets[(sig.action_name, category)] = tuple(
                    t for t in sig.traces if t.category is category
                )
            for trace in sig.traces:
                listed.setdefault((trace.source, trace.kind), set()).add(sig.action_name)
        groups: dict[frozenset[str], dict[SharedKey, TracePattern]] = {}
        for sig in self.signatures:
            for trace in sig.traces:
                if trace.category is TraceCategory.SHARED:
                    key = (trace.source, trace.kind)
                    groups.setdefault(frozenset(listed[key]), {}).setdefault(key, trace)
        for candidates in sorted(groups, key=sorted):
            self.buckets[candidates] = tuple(groups[candidates].values())

    def __iter__(self) -> Iterator[Signature]:
        return iter(self.signatures)

    @cached_property
    def _literal_index(self) -> _LiteralIndex:
        """Built on first use, so loading a pack works out no literal."""
        return _LiteralIndex(self)


def merge_packs(packs: Iterable[SignaturePack]) -> SignaturePack:
    """Combine several packs into one; a duplicate action name is a SignatureError."""
    signatures: list[Signature] = []
    for pack in packs:
        signatures.extend(pack.signatures)
    return SignaturePack(signatures)


_CATEGORY_WORDS = {c.value: c for c in TraceCategory}


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
        for block in read_blocks(content_lines(text), SignatureError):
            traces: list[TracePattern] = []
            for line_no, line in block.body:
                parts = line.split(None, 2)
                if len(parts) != 3:
                    raise SignatureError(line_no, f"malformed trace line: {line!r}")
                cat_word, kind_word, pattern = parts
                if cat_word not in _CATEGORY_WORDS:
                    raise SignatureError(line_no, f"unknown category {cat_word!r}")
                if kind_word not in KIND_WORDS:
                    raise SignatureError(line_no, f"unknown timestamp kind {kind_word!r}")
                try:
                    traces.append(
                        TracePattern(_CATEGORY_WORDS[cat_word], KIND_WORDS[kind_word], pattern)
                    )
                except (re.error, OverflowError, RecursionError, Warning) as exc:
                    raise SignatureError(line_no, f"regex does not compile: {exc}") from None
            if not traces:
                raise SignatureError(
                    block.line_no, f"action {block.name!r} defines no trace patterns"
                )
            signatures.append(Signature(block.name, block.threshold, tuple(traces)))
    return SignaturePack(signatures)


# One token of a pattern: a run of characters that are not special, an
# escape, a whole character class, or one other character.  A class may open
# with ``^``, then with a ``]`` that is a member; each alternative there
# excludes the others, so no backtracking can close a class earlier.  A ``[``
# alone is a class that does not close.
_TOKEN = re.compile(
    r"[^\\.^$*+?{}\[\]|()]+|\\.?|\[(?:\^\]|\^(?!\])|\]|(?![\]^]))(?:[^\\\]]|\\.)*\]|.",
    re.DOTALL,
)


def required_literal(source: str) -> str | None:
    """Lower-cased ASCII text that every match of ``source`` must contain.

    Reads the pattern as a plain concatenation: ASCII characters, ``\\``
    before punctuation, ``.``, ``[...]``, ``^``, ``$`` and the quantifiers
    ``* + ?``.  Classes, dots, anchors and quantifiers end a run of literal
    characters, and a quantifier also drops the character it applies to; the
    longest run is the literal, the first of equal ones.  Any other construct
    (alternation, groups, counted repeats, ``\\`` before a letter or digit,
    non-ASCII text, a class that does not close), or no literal character at
    all, gives None: such patterns always run their regex.
    """
    longest = run = ""
    for token in _TOKEN.findall(source):
        first = token[0]
        if first == "\\":
            escaped = token[1:]
            if not escaped or not escaped.isascii() or escaped.isalnum():
                return None
            run += escaped
            continue
        if first not in "[.^$*+?{}]|()":
            if not token.isascii():
                return None
            run += token
            continue
        if first in "*+?":
            run = run[:-1]  # non-empty only when the previous token was a literal
        elif first not in ".^$" and (first != "[" or len(token) == 1):
            return None
        if len(run) > len(longest):
            longest = run
        run = ""
    return max(longest, run, key=len).lower() or None


# The non-ASCII characters that case-insensitive regex matching equates with
# an ASCII letter, mapped to that letter.  ``"\u0130".lower()`` is two
# characters, so the table is applied before ``lower()``.  With it every
# character folds to exactly one, so a position in a folded text is the same
# position in the text.
_FOLD = str.maketrans({"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"})
_FOLDED_CHAR = re.compile("[\u0130\u0131\u017f\u212a]").search

# A prefilter with at most this many literals finds them in a text with one
# str.find loop per literal; with more, its trie regex is cheaper.  On a
# 4 MB bodyfile with few hits (Intel Xeon, 2 vCPUs, Python 3.11), hits() for
# the packaged packs' 6 literals, which share no first characters, took
# about 13 ms by find and 33-42 ms by trie, the fold included; on a 156 KB
# bodyfile that hits in 73% of its lines, 206 literals took 15-19 ms by find
# and 1.1-1.5 ms by trie.
_FIND_LITERALS = 16


def fold(text: str) -> str:
    """The key a path is matched under: lowered, after ``_FOLD`` for a non-ASCII path.

    ``_FOLD`` runs only where one of its characters occurs, since translating
    a long non-ASCII text costs far more than searching it.
    """
    if not text.isascii() and _FOLDED_CHAR(text):
        text = text.translate(_FOLD)
    return text.lower()


def _trie_source(node: dict[str, dict]) -> str:
    """Regex text that matches, where it starts, any literal of the trie below ``node``.

    A chain of single children becomes one escaped run, so groups nest only
    where literals branch.  ``""`` marks the node where a literal ends, and
    the branch ends there: a longer literal below it starts only where this
    one starts too.
    """
    branches = []
    for char, child in node.items():
        run = char
        while len(child) == 1 and "" not in child:
            ((char, child),) = child.items()
            run += char
        branches.append(re.escape(run) + ("" if "" in child else _trie_source(child)))
    return branches[0] if len(branches) == 1 else "(?:" + "|".join(branches) + ")"


class _LiteralIndex:
    """The literals of a pack's traces, and one trie regex that finds them.

    ``literals`` holds each trace's :attr:`~TracePattern.literal`, None
    included.  ``trie`` is the regex of a trie of the other literals,
    or None when there are none or the trie is too deep for ``re`` to
    compile.  It matches, at the first place at or after where it starts
    that a literal starts, the shortest literal there, since the trie's
    branch ends where a literal ends.  ``longer`` maps such a literal to the
    longer literals that extend it, worked out while the trie is built.
    """

    def __init__(self, pack: SignaturePack):
        self.literals = {trace.literal for patterns in pack.buckets.values() for trace in patterns}
        self.longer: dict[str, list[str]] = {}
        trie: dict[str, dict] = {}
        for literal in sorted(self.literals - {None}):  # a literal before those extending it
            node = trie
            for depth, char in enumerate(literal):
                if "" in node:
                    self.longer.setdefault(literal[:depth], []).append(literal)
                node = node.setdefault(char, {})
            node[""] = {}
        try:
            self.trie = re.compile(_trie_source(trie)) if trie else None
        except RecursionError:
            self.trie = None

    def found(self, key: str) -> set[str | None]:
        """None, and each literal that occurs in ``key``; every literal if ``trie`` is None.

        After a match at ``s``, each longer literal of the one matched is
        tested at ``s``, and the search goes on at ``s + 1``, so overlapping,
        nested and prefix literals are all found.
        """
        found: set[str | None] = {None}
        if self.trie is None:
            return found | self.literals
        search = self.trie.search
        match = search(key)
        while match is not None:
            start = match.start()
            literal = match.group()
            found.add(literal)
            for longer in self.longer.get(literal, ()):
                if key.startswith(longer, start):
                    found.add(longer)
            match = search(key, start + 1)
        return found


def path_prefilter(pack: SignaturePack) -> Callable[[str], list[int]] | None:
    """The candidate lines of a text for ``pack`` (``hits``), or None if some path needs none.

    Each pattern has one literal: its ``exact`` key for a trace built by
    :meth:`TracePattern.for_path`, its :func:`required_literal` otherwise
    (:attr:`TracePattern.literal`).  A match needs its literal in the
    folded key, and an exact hit needs the key to equal the exact one, so a
    path whose key holds no literal adds no state in :func:`match_pack`.

    This is the one candidate rule of ingest: ``hits(text)`` gives, sorted
    and without repeats, the start of each line of ``text`` in which a
    literal starts, in :func:`fold` of ``text``.  Each character folds to
    one, so a line of ``text`` folds to the same stretch of the folded
    text.  With at most ``_FIND_LITERALS`` literals, or when a literal holds
    a newline, one ``str.find`` loop per literal finds its hits, going on
    one character past each; otherwise one ``finditer`` pass of the trie
    regex of the pack's literal index, the one :func:`match_pack` searches,
    finds them.  A ``finditer`` match of a literal that holds a newline runs
    into the next line and could hide a literal that starts there.  Each hit
    adds the start of its line to one set, sorted once.
    :func:`~tracerecon.bodyfile.read_bodyfile` builds a record only for a
    line listed.  A literal may start outside a bodyfile line's name, in
    its MD5 or mode field or in a ``(deleted)`` suffix that is removed;
    such a record adds no trace state, since :func:`match_pack` alone
    decides what matches.  None when some pattern has no literal, when
    there is no pattern, or when the trie is too deep for ``re`` to
    compile: then every line is a candidate.
    """
    index = pack._literal_index
    literals, trie = index.literals, index.trie
    if trie is None or None in literals:
        return None
    has_newline = any("\n" in literal for literal in literals)

    def hits(text: str) -> list[int]:
        key = fold(text)
        if len(literals) <= _FIND_LITERALS or has_newline:
            found = []
            for literal in literals:
                hit = key.find(literal)
                while hit >= 0:
                    found.append(hit)
                    hit = key.find(literal, hit + 1)
        else:
            found = map(re.Match.start, trie.finditer(key))
        return sorted({key.rfind("\n", 0, hit) + 1 for hit in found})

    return hits


def match_pack(
    pack: SignaturePack, records: Iterable[ObjectRecord]
) -> dict[Bucket, list[TraceState]]:
    """Resolve every pattern of the pack against the records in one pass.

    Returns a sorted list of trace states for each bucket of
    ``pack.buckets``, under the same keys.  Within a bucket one record
    contributes at most one state per timestamp kind, however many of the
    bucket's patterns match it; distinct records matching the same pattern
    each contribute.  A record lacking the referenced timestamp contributes
    nothing.

    One pass over ``pack.buckets`` builds the plan: one entry per
    distinct (source, kind) pair, feeding every bucket that lists it, so
    each pair is tried at most once per record.  Each record path is folded
    once into a key (:func:`fold`).  An entry made by a trace whose path is
    ``exact`` (:meth:`TracePattern.for_path`) holds no regex and is filed
    under that path and under the path plus ``\\n`` (``$`` also matches
    before a final newline): one dict lookup of the key finds all of their
    hits, and their regexes are never compiled.  Every other entry is
    filed under the pair's :attr:`~TracePattern.literal` and runs its
    regex.  Only when the pack has such entries, its literal index finds
    the literals in the key with one trie regex, and only the entries of
    those literals and of no literal run their regexes; a record that
    holds no literal runs only the latter.  The key contains every ASCII
    literal a match needs, and equals an exact key exactly when the
    ``^...$`` regex matches, so an exact trace and a ``^...$`` line of the
    same source and kind share one entry whichever comes first.  For each
    record and kind, the buckets fed by every hit form one hit set, and
    each bucket in it gets the same one state.
    """
    buckets: dict[Bucket, list[TraceState]] = {}
    # The (field name, regex search or None for an exact path, buckets fed)
    # entry of each (source, kind) pair, filed under each key it is found by.
    entries: dict[tuple[str, str], tuple[str, Callable | None, dict[Bucket, None]]] = {}
    by_key: dict[str | None, list[tuple[str, Callable | None, dict[Bucket, None]]]] = {}
    for bucket, patterns in pack.buckets.items():
        buckets[bucket] = []
        for trace in patterns:
            field_name = trace.kind.value
            entry = entries.get((trace.source, field_name))
            if entry is None:
                exact = trace.exact
                search = None if exact is not None else trace.regex.search
                entry = entries[trace.source, field_name] = (field_name, search, {})
                for key in (exact, exact + "\n") if exact is not None else (trace.literal,):
                    by_key.setdefault(key, []).append(entry)
            entry[2][bucket] = None
    found = pack._literal_index.found if any(e[1] for e in entries.values()) else lambda key: ()

    for record in records:
        path = record.path
        key = fold(path)
        hits: dict[str, dict[Bucket, None]] = {}
        for field_name, search, targets in by_key.get(key, ()):
            if search is None and getattr(record, field_name) is not None:
                hits.setdefault(field_name, {}).update(targets)
        # An exact path is a literal of the index too, found in longer keys,
        # so its entry hits only by the lookup above.
        for literal in found(key):
            for field_name, search, targets in by_key.get(literal, ()):
                if search and getattr(record, field_name) is not None and search(path):
                    hits.setdefault(field_name, {}).update(targets)
        for field_name, targets in hits.items():
            state = TraceState(path, KIND_WORDS[field_name], getattr(record, field_name))
            for target in targets:
                buckets[target].append(state)
    for states in buckets.values():
        states.sort(key=trace_sort_key)
    return buckets
