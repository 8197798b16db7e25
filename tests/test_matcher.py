"""The one-pass matcher against the per-bucket reference it replaced."""

import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracerecon import (
    ObjectRecord,
    SignaturePack,
    TimestampKind,
    TraceCategory,
    match_pack,
    parse_signature_pack,
)
from tracerecon.model import TraceState
from tracerecon import signatures
from tracerecon.signatures import (
    _FOLD,
    Signature,
    TracePattern,
    fold,
    path_prefilter,
    required_literal,
)

import casedata
import reference_matcher
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
case_changes = st.sampled_from((str, str.lower, str.upper, str.swapcase))
CORE, MODIFIED = TraceCategory.CORE, TimestampKind.MODIFIED
SUPPORT, SHARED = TraceCategory.SUPPORTING, TraceCategory.SHARED


def pack_of(*traces):
    return SignaturePack([Signature("A", 5, traces)])


def path_pools():
    """A small pool of base paths, ASCII or not; drawing from it makes paths repeat."""
    ascii_path = st.text(ASCII_PATH_CHARS, min_size=1, max_size=10)
    path = st.one_of(ascii_path, ascii_path, st.text(PATH_CHARS, min_size=1, max_size=10))
    return st.lists(path, min_size=1, max_size=6)


def drawn_paths(pool):
    """Paths from ``pool``, some ending in a newline, before which ``$`` also matches."""
    return st.builds(lambda path, newline: path + "\n" * newline,
                     st.sampled_from(pool), st.booleans())


def anchored_sources(paths):
    """``^`` + an escaped path with its case changed + ``$``, as regex text."""
    return st.builds(lambda path, change: "^" + re.escape(change(path)) + "$", paths,
                     case_changes)


# Sources one step from anchoring one path.
NEAR_EXACT = ("^a\\$", "^a^b$", "^ab*$", "^a.$", "a$", "^a", "^$")
NEAR_EXACT_FORMS = ("^{}", "{}$", "^{}\\$", "^{}.$", "^^{}$", "^{}$$", "^{}*$")


def near_exact_sources(paths):
    fixed = st.sampled_from(NEAR_EXACT)
    built = st.builds(lambda path, form: form.format(re.escape(path)), paths,
                      st.sampled_from(NEAR_EXACT_FORMS))
    return st.one_of(fixed, built.filter(_compiles))


# A trace maker: ``TracePattern`` or ``TracePattern.for_path``, and its text.
def regex_traces(sources):
    return sources.map(lambda source: (TracePattern, source))


def path_traces(paths):
    """Paths with their case changed, for :meth:`TracePattern.for_path`."""
    return st.builds(lambda path, change: (TracePattern.for_path, change(path)), paths,
                     case_changes)


@st.composite
def records(draw, paths):
    out = []
    for _ in range(draw(st.integers(0, 12))):
        stamps = [draw(times) for _ in range(4)]
        if all(t is None for t in stamps):
            stamps[draw(st.integers(0, 3))] = draw(st.integers(1, 4))
        accessed, modified, metachanged, created = stamps
        out.append(ObjectRecord(draw(paths), accessed, modified, metachanged, created))
    return out


@st.composite
def packs(draw, makers=regex_traces(patterns), min_pool=1):
    """Signatures drawing their traces from one shared pool, so the same
    (pattern, kind) pair often appears under several actions and categories."""
    pool = draw(st.lists(st.tuples(makers, kinds), min_size=min_pool, max_size=6))
    signatures = []
    for name in ("A", "B", "C")[: draw(st.integers(1, 3))]:
        picks = draw(st.lists(st.tuples(categories, st.sampled_from(pool)), min_size=1,
                              max_size=5))
        traces = tuple(make(cat, kind, text) for cat, ((make, text), kind) in picks)
        signatures.append(Signature(name, draw(st.integers(1, 60)), traces))
    return SignaturePack(signatures)


@st.composite
def packs_and_records(draw):
    """A pack whose path traces and anchored and near-exact sources are built
    from the records' paths."""
    paths = drawn_paths(draw(path_pools()))
    makers = st.one_of(
        path_traces(paths),
        regex_traces(st.one_of(anchored_sources(paths), near_exact_sources(paths), patterns)),
    )
    return draw(packs(makers, min_pool=3)), draw(records(paths))


@settings(max_examples=400, deadline=None)
@given(packs_and_records())
def test_match_pack_equals_the_reference_on_every_bucket(pack_and_records):
    pack, objects = pack_and_records
    assert match_pack(pack, objects) == reference_buckets(pack, objects)


def has_literal(trace):
    return bool(trace.exact or required_literal(trace.source))


@settings(max_examples=400, deadline=None)
@given(packs_and_records())
def test_the_prefilter_accepts_every_path_a_trace_of_the_pack_matches(pack_and_records):
    pack, objects = pack_and_records
    traces = [trace for patterns in pack.buckets.values() for trace in patterns]
    hits = path_prefilter(pack)
    assert (hits is None) == (not all(map(has_literal, traces)))
    if hits is not None:
        for record in objects:
            if any(trace.matches(record.path) for trace in traces):
                assert hits(record.path)


@settings(max_examples=300, deadline=None)
@given(packs_and_records(), st.sampled_from([0, signatures._FIND_LITERALS]))
def test_the_prefilter_hits_every_line_that_holds_a_literal(pack_and_records, find_literals):
    pack, objects = pack_and_records
    hits = path_prefilter(pack)
    if hits is None:
        return
    literals = {trace.literal for patterns in pack.buckets.values() for trace in patterns}
    text = "\n".join(record.path.replace("\\", "/") for record in objects)
    key = fold(text)
    # With find_literals 0 the trie regex searches, otherwise str.find.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signatures, "_FIND_LITERALS", find_literals)
        found = hits(text)
    assert found == sorted(set(found))
    starts = [0] + [i + 1 for i, char in enumerate(key) if char == "\n"]
    assert set(found) <= set(starts)
    for start, line in zip(starts, key.split("\n")):
        if any(literal in line for literal in literals):
            assert start in found


@pytest.mark.parametrize("find_literals", [0, signatures._FIND_LITERALS])
def test_prefilter_hits_examples(find_literals):
    # ".*aab" holds "aa" and is searched as well.  Each line that holds a
    # literal is listed once by the start of the line, however many hits it
    # has, whether str.find or the trie regex finds them.
    sources = ("ab", "aa", ".*aab")
    hits = path_prefilter(pack_of(*(TracePattern(CORE, MODIFIED, s) for s in sources)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signatures, "_FIND_LITERALS", find_literals)
        assert hits("xAAAb\naB\n\u212a") == [0, 6]
    # A match of "x\ny" runs into the line where "yz" starts; that line is listed too.
    hits = path_prefilter(pack_of(TracePattern.for_path(CORE, MODIFIED, "x\ny"),
                                  TracePattern(CORE, MODIFIED, "yz")))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signatures, "_FIND_LITERALS", find_literals)
        assert hits("ax\nyz\n") == [0, 3]


@pytest.mark.parametrize(
    "sources, accepted, rejected",
    [
        # "/cookies/x" extends "/cookies/": a path holds the longer one only
        # where it holds the shorter one too.
        ((".*/Cookies/.*\\.txt", ".*/COOKIES/x", "firefox\\.exe-"),
         ["C:/cookies/a.txt", "c:/x/FIREFOX.EXE-1.pf", "D:/COO\u212aIES/"],
         ["C:/cookie/x", "firefox.ex", ""]),
        (("^a\\.b$", "a\\.b"), ["a.b", "xA.Bx"], ["a-b", "ab"]),
    ],
)
def test_prefilter_examples(sources, accepted, rejected):
    hits = path_prefilter(pack_of(*(TracePattern(CORE, MODIFIED, s) for s in sources)))
    assert [bool(hits(path)) for path in accepted + rejected] == (
        [True] * len(accepted) + [False] * len(rejected)
    )


@settings(max_examples=300, deadline=None)
@given(packs_and_records())
def test_the_literal_index_finds_every_literal_a_key_holds(pack_and_records):
    pack, objects = pack_and_records
    index = pack._literal_index
    literals = index.literals - {None}
    for record in objects:
        key = fold(record.path)
        expected = literals if index.trie is None else {lit for lit in literals if lit in key}
        assert index.found(key) == {None} | expected


def match_equals_reference(pack, paths):
    records = [ObjectRecord(path=path, accessed=1, modified=2, created=3) for path in paths]
    matched = match_pack(pack, records)
    assert matched == reference_buckets(pack, records)
    return matched


def pack_of_sources(*sources):
    """Actions A, B and C with the same ``(category, kind, source)`` traces, so
    each shared source is evidence for a group of all three."""
    return SignaturePack([
        Signature(name, 5, tuple(TracePattern(cat, kind, source) for cat, kind, source in sources))
        for name in "ABC"
    ])


@pytest.mark.parametrize(
    "sources, paths, found",
    [
        # Overlapping: the "/" that ends the first literal starts the second.
        (((CORE, MODIFIED, ".*/Firefox/Profiles/"),
          (SHARED, MODIFIED, ".*/Cookies/.*\\.txt")),
         ["C:/firefox/profiles/cookies/a.txt", "C:/Firefox/Profiles/x", "c:/cookies/b.txt"],
         {"/firefox/profiles/", "/cookies/"}),
        # Prefix: "/app1" is the start of "/app10", "/app10" of "/app100/".
        (((CORE, MODIFIED, ".*/App1"), (SUPPORT, MODIFIED, ".*/App10[a-z]*"),
          (SHARED, TimestampKind.CREATED, ".*/App100/")),
         ["C:/App100/x", "C:/App10x", "C:/App1/x", "C:/app2"],
         {"/app1", "/app10", "/app100/"}),
        # Nested: "core" inside "/state/core".
        (((CORE, MODIFIED, ".*core[0-9]"), (SHARED, TimestampKind.ACCESSED, ".*/State/core[0-9]")),
         ["C:/x/state/core1", "C:/core2", "C:/State/Core", "C:/STATE/CORE3"],
         {"core", "/state/core"}),
        # A pattern with no literal runs on every path, next to literal ones.
        (((CORE, MODIFIED, "(?:a|b)\\.dat"), (SUPPORT, MODIFIED, ".*/x/a\\.dat"),
          (SHARED, MODIFIED, "b\\.dat")),
         ["C:/x/a.dat", "C:/b.dat", "c.dat", "C:/X/A.DAT"],
         {"/x/a.dat"}),
    ],
)
def test_the_literal_index_dispatches_the_regexes_of_every_literal_found(sources, paths, found):
    pack = pack_of_sources(*sources)
    matched = match_equals_reference(pack, paths)
    assert pack._literal_index.found(fold(paths[0])) == {None} | found
    assert matched[frozenset("ABC")]


def test_exact_and_inexact_traces_in_one_pack_match_as_the_reference():
    pack = SignaturePack([
        Signature("A", 5, (TracePattern.for_path(CORE, MODIFIED, "C:/x/A.dat"),
                           TracePattern(SHARED, MODIFIED, ".*/x/a\\.dat"))),
        Signature("B", 5, (TracePattern(SUPPORT, MODIFIED, ".*/X/"),
                           TracePattern(SHARED, MODIFIED, ".*/x/a\\.dat"))),
    ])
    matched = match_equals_reference(pack, ["c:/x/a.dat", "C:/X/A.DAT\n", "C:/x/b", "C:/y/a.dat"])
    assert len(matched[("A", CORE)]) == 2 and len(matched[frozenset("AB")]) == 2


def line_of_path(category, kind, path):
    """The trace of a ``^...$`` signature-file line: ``for_path``'s source, no exact key."""
    return TracePattern(category, kind, "^" + re.escape(path) + "$")


@pytest.mark.parametrize(
    "make_a, make_b", [(TracePattern.for_path, line_of_path), (line_of_path, TracePattern.for_path)]
)
def test_a_path_trace_and_a_line_of_its_source_share_one_entry_as_the_reference(make_a, make_b):
    # A lists the path as core and B as shared, so one (source, kind) entry,
    # made by whichever trace comes first, feeds A's core bucket and the group
    # of A and B.  B's inexact trace makes the matcher search the literal
    # index, which also finds the exact path inside a longer key.
    pack = SignaturePack([
        Signature("A", 5, (make_a(CORE, MODIFIED, "C:/x/A.dat"),)),
        Signature("B", 9, (make_b(SHARED, MODIFIED, "C:/x/A.dat"),
                           TracePattern(SUPPORT, MODIFIED, ".*/x/"))),
    ])
    paths = ["C:/x/A.dat", "c:/X/a.DAT", "C:/x/a.dat\n", "C:/x/a.dat\n\n", "C:/x/a.da",
             "C:/y/C:/x/A.dat", "C:/x/A.dat/b"]
    records = [ObjectRecord(path=path, modified=2) for path in paths]
    matched = match_pack(pack, records)
    assert all("regex" not in vars(t) for sig in pack for t in sig.traces if t.exact)
    assert matched == reference_buckets(pack, records)
    assert len(matched[("A", CORE)]) == len(matched[frozenset("AB")]) == 3
    assert len(matched[("B", SUPPORT)]) == 7


def test_a_dispatch_trie_too_deep_to_compile_runs_every_inexact_entry():
    # Each path branches off the last one a character further in.
    deep = [TracePattern.for_path(CORE, MODIFIED, "a" * n + "b") for n in range(1500)]
    inexact = (TracePattern(SUPPORT, MODIFIED, ".*/x"), TracePattern(SHARED, MODIFIED, "ab$"))
    pack = SignaturePack([Signature("A", 5, (*deep, *inexact)), Signature("B", 5, inexact)])
    assert pack._literal_index.trie is None
    matched = match_equals_reference(pack, ["ab", "aab", "C:/x", "C:/y", "/xab"])
    assert len(matched[("A", SUPPORT)]) == 2 and len(matched[frozenset("AB")]) == 3


def test_a_pack_with_a_pattern_without_a_literal_or_with_no_pattern_has_no_prefilter():
    pack = pack_of(TracePattern(CORE, MODIFIED, "a|b"), TracePattern(CORE, MODIFIED, "abc"))
    assert path_prefilter(pack) is None
    assert path_prefilter(SignaturePack([])) is None


def test_a_trie_too_deep_to_compile_gives_no_prefilter_rather_than_an_error():
    # Each path branches off the last one a character further in.
    pack = pack_of(*(TracePattern.for_path(CORE, MODIFIED, "a" * n + "b") for n in range(1500)))
    assert path_prefilter(pack) is None


def test_each_trace_literal_is_worked_out_once_for_prefilter_and_matcher(monkeypatch):
    calls = []

    def counted(source):
        calls.append(source)
        return required_literal(source)

    indexes = []
    build_index = signatures._LiteralIndex.__init__

    def counted_build(index, pack):
        indexes.append(pack)
        build_index(index, pack)

    monkeypatch.setattr("tracerecon.signatures.required_literal", counted)
    monkeypatch.setattr(signatures._LiteralIndex, "__init__", counted_build)
    pack = parse_signature_pack(
        "action: A\nthreshold: 5\ncore modified .*/Cookies/.*\\.txt\nshared created ^c:/x$\n"
        "---\naction: B\nthreshold: 5\nshared created ^c:/x$\nsupport accessed a\\.dat\n"
    )
    assert calls == []  # loading a pack works out no literal
    assert path_prefilter(pack) is not None
    assert sorted(calls) == [".*/Cookies/.*\\.txt", "^c:/x$", "a\\.dat"]
    match_pack(pack, [ObjectRecord(path="C:/cookies/a.txt", modified=1, created=2)])
    assert len(calls) == 3
    assert indexes == [pack]  # one literal index, and so one trie, per pack

    exact_only = pack_of(TracePattern.for_path(CORE, MODIFIED, "C:/x"))
    match_pack(exact_only, [ObjectRecord(path="c:/x", modified=1)])
    assert indexes == [pack] and len(calls) == 3  # the matcher needs no trie for it


@settings(max_examples=200, deadline=None)
@given(packs())
def test_pack_groups_equal_the_reference_groups_in_sorted_order(pack):
    groups = {key: value for key, value in pack.buckets.items() if isinstance(key, frozenset)}
    expected = reference_groups(pack)
    assert list(groups) == sorted(expected, key=sorted)
    for candidates, group in groups.items():
        pairs = [(trace.source, trace.kind) for trace in expected[candidates]]
        assert [(trace.source, trace.kind) for trace in group] == list(dict.fromkeys(pairs))


def folded(path):
    return path.translate(_FOLD).lower()


@settings(max_examples=500, deadline=None)
@given(patterns, st.text(PATH_CHARS, min_size=1, max_size=12))
def test_a_match_contains_the_required_literal_in_the_folded_path(source, path):
    literal = required_literal(source)
    if literal is not None and re.search(source, path, re.IGNORECASE):
        assert literal in folded(path)


def test_the_fold_table_is_every_non_ascii_character_ignorecase_equates_with_ascii():
    non_ascii = "".join(map(chr, range(0x80, sys.maxunicode + 1)))  # surrogates included
    partners: dict[str, set[str]] = {}
    for char in map(chr, range(128)):
        for match in re.compile(re.escape(char), re.IGNORECASE).findall(non_ascii):
            partners.setdefault(match, set()).add(char)
    fold = {chr(code): letter for code, letter in _FOLD.items()}
    assert partners == {char: {letter, letter.upper()} for char, letter in fold.items()}
    for char, letter in fold.items():
        assert folded(char) == letter and letter.isascii() and len(letter) == 1


def test_every_character_folds_to_one():
    # A position in a folded block is the same position in the block only if
    # no character, lone surrogates included, folds to more or fewer than one.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert [char for char in every if len(char.translate(_FOLD).lower()) != 1] == []
    assert len(fold(every)) == len(every)


@settings(max_examples=500, deadline=None)
@given(st.one_of(patterns, st.lists(st.sampled_from(PIECES + ("[", "]", "\\")), min_size=1,
                                    max_size=6).map("".join)))
@example("a[bc")  # a class that does not close
@example("a[]b")  # nor does this one: its "]" is a member
@example("ab\\")  # a trailing backslash
@example("[]k]")  # a class whose leading "]" is a member
@example("[^]k]ab")
def test_required_literal_equals_the_token_by_token_reference(source):
    assert required_literal(source) == reference_matcher.required_literal(source)


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
    "path, exact",
    [
        ("C:/Windows/x.dat", "c:/windows/x.dat"),
        ("C:/Program Files (x86)/a-b #1.txt", "c:/program files (x86)/a-b #1.txt"),
        ("a$", "a$"),
        ("^", "^"),
        ("a\n", "a\n"),
        ("\u017f", None),
    ],
)
def test_for_path_exact_examples(path, exact):
    trace = TracePattern.for_path(CORE, MODIFIED, path)
    assert trace.exact == exact
    assert ("regex" in vars(trace)) == (exact is None)  # a non-ASCII path compiles at once


@settings(max_examples=300, deadline=None)
@given(st.text(PATH_CHARS + "\n$^*\\", min_size=1, max_size=8), categories, kinds)
def test_for_path_equals_the_pattern_of_its_source(path, category, kind):
    trace = TracePattern.for_path(category, kind, path)
    plain = TracePattern(category, kind, "^" + re.escape(path) + "$")
    assert trace == plain and hash(trace) == hash(plain) and repr(trace) == repr(plain)
    assert trace.exact == (path.lower() if path.isascii() else None)


# Sources that the parser once told apart from exact ones by reading them.
ANCHORED = (
    "^C:/Windows/x\\.dat$", "^" + re.escape("C:/Program Files (x86)/a-b #1.txt") + "$",
    "^a\\$$", "^\\^$", "^a\\\n$", "^a\\$", "^a^b$", "^ab*$", "^a.$", "a$", "^a", "^$",
    "^a$$", "^a$b\\$", "^^a$", "x^a$", "^[a]$", "^a|b$", "^(a)$", "^\\d$", "^\u017f$", "^a{2}$",
)
PROBE_PATHS = (
    "C:/Windows/x.dat", "c:/WINDOWS/X.DAT\n", "C:/Program Files (x86)/a-b #1.txt", "a$", "A$\n",
    "^", "a\n", "a\n\n", "a", "ab", "abb", "aa", "x^a", "b", "1", "S", "\u017f", "\n",
)


@pytest.mark.parametrize("source", ANCHORED)
def test_an_anchored_source_is_an_ordinary_pattern(source):
    trace = TracePattern(CORE, MODIFIED, source)
    assert trace.exact is None and "regex" in vars(trace)
    pack = pack_of(trace)
    records = [ObjectRecord(path=path, modified=9) for path in PROBE_PATHS]
    assert match_pack(pack, records) == reference_buckets(pack, records)


line_sources = st.one_of(patterns, anchored_sources(st.text(ASCII_PATH_CHARS, min_size=1,
                                                             max_size=8)))


@settings(max_examples=200, deadline=None)
@given(st.lists(line_sources.filter(lambda source: source == source.strip()), min_size=1,
                max_size=5))
def test_every_trace_of_a_parsed_pack_is_an_ordinary_pattern(sources):
    pack = parse_signature_pack(
        "action: A\nthreshold: 5\n" + "".join(f"core modified {s}\n" for s in sources)
    )
    assert all(t.exact is None and "regex" in vars(t) for t in casedata.signature(pack, "A").traces)


ascii_texts = st.text(ASCII_PATH_CHARS + "\n", min_size=1, max_size=6)


@settings(max_examples=500, deadline=None)
@given(st.builds(lambda path, change: change(path), ascii_texts, case_changes), st.data())
def test_an_exact_source_matches_an_ascii_path_exactly_when_the_lookup_does(path, data):
    trace = TracePattern.for_path(CORE, MODIFIED, path)
    literal = trace.exact
    near = drawn_paths([literal, literal[:-1] or "x", literal + "a"])
    candidate = data.draw(st.one_of(ascii_texts, near, near.map(str.swapcase)))
    found = re.search(trace.source, candidate, re.IGNORECASE) is not None
    assert found == (candidate.lower() in (literal, literal + "\n"))


def test_an_exact_pattern_compiles_its_regex_only_when_a_path_needs_it():
    (parsed,) = casedata.signature(
        parse_signature_pack("action: A\nthreshold: 5\ncore modified ^C:/Kelvin$\n"), "A"
    ).traces
    assert parsed.exact is None and "regex" in vars(parsed)  # compiled at load
    exact = TracePattern.for_path(CORE, MODIFIED, "C:/Kelvin")
    inexact = TracePattern(TraceCategory.SUPPORTING, MODIFIED, ".*/x")
    pack = pack_of(exact, inexact)
    assert exact.exact == "c:/kelvin" and inexact.exact is None
    assert "regex" not in vars(exact) and "regex" in vars(inexact)
    match_pack(pack, [ObjectRecord(path="c:/KELVIN", modified=1)])
    assert "regex" not in vars(exact)
    hit = ObjectRecord(path="c:/\u212aelvin", modified=2)  # Kelvin sign folds to k
    assert match_pack(pack, [hit])[("A", CORE)] == [TraceState(hit.path, MODIFIED, 2)]
    assert "regex" not in vars(exact)  # the folded path found it by lookup
    assert exact == parsed == TracePattern(CORE, MODIFIED, "^C:/Kelvin$")
    assert hash(exact) == hash((CORE, MODIFIED, "^C:/Kelvin$"))


@pytest.mark.parametrize(
    "make, text, path",
    [
        (TracePattern, "/sun$", "C:/\u017fun"),  # long s folds to s
        (TracePattern, "kelvin", "C:/\u212aelvin"),  # Kelvin sign folds to k
        (TracePattern, "i\\.dat", "C:/\u0130.dat"),  # dotted capital I folds to i
        (TracePattern, "i\\.dat", "C:/\u0131.dat"),  # dotless small i folds to i
        (TracePattern.for_path, "C:/sun", "C:/\u017fun"),  # path traces too
        (TracePattern.for_path, "C:/kelvin", "C:/\u212aelvin"),
        (TracePattern.for_path, "C:/i.dat", "C:/\u0130.dat"),
        (TracePattern.for_path, "C:/i.dat", "C:/\u0131.dat"),
    ],
)
def test_a_non_ascii_path_folds_to_the_ascii_letters_the_regex_matches(make, text, path):
    pack = pack_of(make(CORE, MODIFIED, text))
    record = ObjectRecord(path=path, modified=9)
    assert [s.object_path for s in match_pack(pack, [record])[("A", CORE)]] == [path]


@pytest.mark.parametrize("path", ["c:/A.DAT", "c:/A.DAT\n", "C:/a.dat\n\n", "C:/a.da"])
def test_an_exact_pattern_also_matches_before_a_final_newline(path):
    pack = pack_of(TracePattern.for_path(CORE, MODIFIED, "C:/a.dat"))
    records = [ObjectRecord(path=path, modified=9)]
    assert match_pack(pack, records) == reference_buckets(pack, records)
    assert len(match_pack(pack, records)[("A", CORE)]) == (
        path.lower() in ("c:/a.dat", "c:/a.dat\n")
    )


def test_exact_sources_sharing_a_lookup_key_add_one_state_per_bucket():
    support = TraceCategory.SUPPORTING
    traces = tuple(
        TracePattern.for_path(support, MODIFIED, path) for path in ("C:/A", "c:/a", "C:/a\n")
    ) + (TracePattern(support, MODIFIED, ".*/a"),)
    pack = pack_of(*traces)
    records = [ObjectRecord(path="c:/a\n", modified=1), ObjectRecord(path="C:/A", modified=2)]
    matched = match_pack(pack, records)
    assert matched == reference_buckets(pack, records)
    assert [s.value for s in matched[("A", support)]] == [1, 2]


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
