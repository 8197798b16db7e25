"""The simple matcher that ``match_pack`` replaced, kept as a test reference.

It makes one pass over the records per bucket and runs every pattern's
regex on every record, so it has no prefilter that could go wrong.  The
token-by-token ``required_literal`` that the one-pass reader replaced is
kept here too.
"""

import re

from tracerecon.model import TraceState, trace_sort_key
from tracerecon.signatures import TraceCategory, fold


def match_patterns(patterns, objects):
    """Resolve patterns against objects into sorted trace states.

    One record contributes at most one state per timestamp kind, no matter
    how many of the given patterns match it; distinct records matching the
    same pattern each contribute (a pattern may cover many concrete files).
    A record lacking the referenced timestamp contributes nothing.
    """
    by_kind = {}
    for pattern in patterns:
        by_kind.setdefault(pattern.kind, []).append(pattern)
    states = []
    for record in objects:
        for kind, kind_patterns in by_kind.items():
            value = getattr(record, kind.value)
            if value is None:
                continue
            if any(p.matches(record.path) for p in kind_patterns):
                states.append(TraceState(record.path, kind, value))
    states.sort(key=trace_sort_key)
    return states


def reference_groups(pack):
    """Shared groups worked out from the signatures' traces alone.

    A shared (source, kind) pair is evidence for every signature that lists
    it in any category; pairs with the same candidates form one group.
    """
    listed = {}
    for sig in pack:
        for trace in sig.traces:
            listed.setdefault((trace.source, trace.kind), set()).add(sig.action_name)
    groups = {}
    for sig in pack:
        for trace in sig.traces:
            if trace.category is TraceCategory.SHARED:
                candidates = frozenset(listed[(trace.source, trace.kind)])
                groups.setdefault(candidates, []).append(trace)
    return groups


def reference_buckets(pack, objects):
    """What ``match_pack`` must return, one ``match_patterns`` pass per bucket."""
    objects = list(objects)
    buckets = {
        (sig.action_name, category): match_patterns(
            [trace for trace in sig.traces if trace.category is category], objects
        )
        for sig in pack
        for category in (TraceCategory.CORE, TraceCategory.SUPPORTING)
    }
    for candidates, patterns in reference_groups(pack).items():
        buckets[candidates] = match_patterns(patterns, objects)
    return buckets


# One token of a pattern: a run of characters that are not special, an
# escape, or one special character.
_TOKEN = re.compile(r"([^\\.^$*+?{}\[\]|()]+)|\\(.?)|(.)", re.DOTALL)


def _class_end(source, start):
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


def required_literal(source):
    """What ``signatures.required_literal`` must return, one token and one class scan at a time."""
    longest = run = ""
    i = 0
    while i < len(source):
        token = _TOKEN.match(source, i)
        plain, escaped, special = token.groups()
        i = token.end()
        if plain is not None:
            run += plain
            continue
        if escaped is not None:
            if not escaped or escaped.isalnum():
                return None
            run += escaped
            continue
        if special == "[":
            end = _class_end(source, i - 1)
            if end is None:
                return None
            i = end + 1
        elif special in "*+?":
            run = run[:-1]  # non-empty only when the previous token was a literal
        elif special not in ".^$":
            return None
        longest, run = max(longest, run, key=len), ""
    return fold(max(longest, run, key=len)) or None
