"""The one-pass matcher against the per-bucket reference it replaced."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracerecon import (
    ObjectRecord,
    SignaturePack,
    TimestampKind,
    TraceCategory,
    match_pack,
    parse_signature_pack,
)
from tracerecon.signatures import Signature, TracePattern, required_literal

from reference_matcher import reference_buckets, reference_groups

# Pattern pieces: plain and escaped literals, quantified literals, classes,
# anchors, alternation, groups, counted repeats, letter escapes, and
# non-ASCII characters that case-insensitive matching folds to ASCII letters.
PIECES = (
    "a", "b", "A", "K", "s", "S", "i", "/", "-", "x",
    "\\.", "\\-", "\\/", "\\ ",
    "a?", "b*", "s+", "x*?", ".", ".*", ".+",
    "[a-c]", "[^/]", "[]k]", "[\\]s]", "^", "$",
    "a|b", "(ab)?", "(?:s|k)", "a{2}", "\\x41", "\\d", "\\w",
    "\u017f", "\u212a", "\u0130",
)
PATH_CHARS = "abABkKsSiI/.-x1 " + "\u017f\u212a\u0130\u0131\u00e9"
ASCII_PATH_CHARS = "abABkKsSiI/.-x1 "


def _compiles(source):
    try:
        re.compile(source, re.IGNORECASE)
    except re.error:
        return False
    return True


patterns = st.lists(st.sampled_from(PIECES), min_size=1, max_size=5).map("".join).filter(_compiles)
kinds = st.sampled_from(list(TimestampKind))
categories = st.sampled_from(list(TraceCategory))
times = st.one_of(st.none(), st.integers(1, 4))


@st.composite
def records(draw, alphabet=PATH_CHARS):
    pool = draw(st.lists(st.text(alphabet, min_size=1, max_size=10), min_size=1, max_size=6))
    out = []
    for _ in range(draw(st.integers(0, 12))):
        stamps = [draw(times) for _ in range(4)]
        if all(t is None for t in stamps):
            stamps[draw(st.integers(0, 3))] = draw(st.integers(1, 4))
        accessed, modified, metachanged, created = stamps
        out.append(ObjectRecord(draw(st.sampled_from(pool)), accessed, modified, metachanged,
                                created))
    return out


@st.composite
def packs(draw):
    """Signatures drawing their traces from one shared pool, so the same
    (pattern, kind) pair often appears under several actions and categories."""
    pool = draw(st.lists(st.tuples(patterns, kinds), min_size=1, max_size=6))
    signatures = []
    for name in ("A", "B", "C")[: draw(st.integers(1, 3))]:
        picks = draw(st.lists(st.tuples(categories, st.sampled_from(pool)), min_size=1,
                              max_size=5))
        traces = tuple(TracePattern(cat, kind, source) for cat, (source, kind) in picks)
        signatures.append(Signature(name, draw(st.integers(1, 60)), traces))
    return SignaturePack(signatures)


@settings(max_examples=300, deadline=None)
@given(packs(), records())
def test_match_pack_equals_the_reference_on_every_bucket(pack, objects):
    assert match_pack(pack, objects) == reference_buckets(pack, objects)


@settings(max_examples=200, deadline=None)
@given(packs())
def test_pack_groups_equal_the_reference_groups_in_sorted_order(pack):
    groups = {key: value for key, value in pack.buckets.items() if isinstance(key, frozenset)}
    expected = reference_groups(pack)
    assert list(groups) == sorted(expected, key=sorted)
    for candidates, group in groups.items():
        pairs = [(trace.source, trace.kind) for trace in expected[candidates]]
        assert [(trace.source, trace.kind) for trace in group] == list(dict.fromkeys(pairs))


@settings(max_examples=500, deadline=None)
@given(patterns, st.text(ASCII_PATH_CHARS, min_size=1, max_size=12))
def test_a_match_on_an_ascii_path_contains_the_required_literal(source, path):
    literal = required_literal(source)
    if literal is not None and re.search(source, path, re.IGNORECASE):
        assert literal in path.lower()


@pytest.mark.parametrize(
    "source, literal",
    [
        (".*/Prefetch/Firefox\\.EXE-.*\\.pf", "/prefetch/firefox.exe-"),
        (".*/Cookies/.*@ATDMT\\[[0-9]\\]\\.TXT", "/cookies/"),
        ("^C:/Program Files/a\\ b$", "c:/program files/a b"),
        ("ab*c", "a"),
        ("abc?", "ab"),
        ("a\\.+bc", "bc"),
        ("x*?yz", "yz"),
        ("[]x]yz", "yz"),
        ("[^]x]yz", "yz"),
        ("[\\]]yz", "yz"),
        (".*", None),
        ("[abc]", None),
        ("a|b", None),
        ("(ab)", None),
        ("a{2}", None),
        ("\\x41bc", None),
        ("\\dbc", None),
        ("a\\1", None),
        ("\u017fabc", None),
        ("[abc", None),
        ("abc\\", None),
    ],
)
def test_required_literal_examples(source, literal):
    assert required_literal(source) == literal


@pytest.mark.parametrize(
    "pattern, path",
    [
        ("/sun$", "C:/\u017fun"),  # long s folds to s
        ("kelvin", "C:/\u212aelvin"),  # Kelvin sign folds to k
        ("i\\.dat", "C:/\u0130.dat"),  # dotted capital I folds to i
    ],
)
def test_non_ascii_paths_always_run_the_regex(pattern, path):
    pack = parse_signature_pack(f"action: A\nthreshold: 5\ncore modified {pattern}\n")
    record = ObjectRecord(path=path, modified=9)
    assert [s.object_path for s in match_pack(pack, [record])[("A", TraceCategory.CORE)]] == [
        path
    ]


def test_one_record_adds_one_state_per_bucket_and_kind():
    pack = parse_signature_pack(
        "action: A\nthreshold: 5\n"
        "support modified .*/x\nsupport modified .*\\.dat\nsupport created .*/x\n"
        "shared modified .*/x\n"
        "---\n"
        "action: B\nthreshold: 5\nshared modified .*/x\ncore modified .*\\.dat\n"
    )
    record = ObjectRecord(path="C:/x.dat", modified=3, created=4)
    matched = match_pack(pack, [record, record])
    # two identical records each contribute: one modified and one created state
    assert [(s.kind, s.value) for s in matched[("A", TraceCategory.SUPPORTING)]] == [
        (TimestampKind.MODIFIED, 3), (TimestampKind.MODIFIED, 3),
        (TimestampKind.CREATED, 4), (TimestampKind.CREATED, 4),
    ]
    assert len(matched[frozenset({"A", "B"})]) == 2
    assert len(matched[("B", TraceCategory.CORE)]) == 2
