import random

import pytest

from tracerecon import (
    ObjectRecord,
    SignatureError,
    TimestampKind,
    TraceCategory,
    TraceState,
    load_metadata,
    match_pack,
    merge_packs,
    parse_signature_pack,
)

import casedata
from conftest import FIXTURES

CORE = TraceCategory.CORE
SUPPORT = TraceCategory.SUPPORTING
SHARED = TraceCategory.SHARED


def shared_groups(pack):
    """The pack's shared groups: candidates -> (source, kind) of each pattern."""
    return {
        candidates: [(trace.source, trace.kind) for trace in patterns]
        for candidates, patterns in pack.buckets.items()
        if isinstance(candidates, frozenset)
    }


def test_browser_pack_shapes(ff3_pack, ie8_pack):
    (ff3,) = ff3_pack.signatures
    assert ff3.action_name == casedata.FF3
    assert ff3.threshold == casedata.FF3_THRESHOLD
    assert len(ff3_pack.buckets[(casedata.FF3, CORE)]) == 2
    assert len(ff3_pack.buckets[(casedata.FF3, SUPPORT)]) == 5
    assert not any(trace.category is SHARED for trace in ff3.traces)
    assert (casedata.FF3, SHARED) not in ff3_pack.buckets and shared_groups(ff3_pack) == {}

    (ie8,) = ie8_pack.signatures
    assert ie8.threshold == casedata.IE8_THRESHOLD
    assert len(ie8_pack.buckets[(casedata.IE8, CORE)]) == 1
    assert len(ie8_pack.buckets[(casedata.IE8, SUPPORT)]) == 4


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("action: A\nthreshold: 0\ncore modified x\n", "threshold"),
        ("action: A\nthreshold: 10\nbogus modified x\n", "category"),
        ("action: A\nthreshold: 10\ncore someday x\n", "kind"),
        ("action: A\nthreshold: 10\ncore modified [unclosed\n", "regex"),
        ("action: A\nthreshold: ten\ncore modified x\n", "integer"),
        ("core modified x\n", "before 'action:'"),
        ("action: A\nthreshold: 10\n", "no trace"),
        ("action: A\ncore modified x\n", "threshold"),
        ("threshold: 10\n", "before 'action:'"),
        ("action:\nthreshold: 10\ncore modified x\n", "empty action"),
    ],
)
def test_malformed_packs_fail_at_load_with_a_line_number(text, fragment):
    with pytest.raises(SignatureError) as exc_info:
        parse_signature_pack(text)
    assert fragment in str(exc_info.value)
    assert "line" in str(exc_info.value)


def test_duplicate_action_names_are_rejected():
    block = "action: A\nthreshold: 5\ncore modified x\n"
    with pytest.raises(SignatureError, match="duplicate"):
        parse_signature_pack(block + "---\n" + block)


def test_comments_blanks_and_trailing_separator_are_tolerated():
    pack = parse_signature_pack(
        "# header\n\naction: A\n# inner\nthreshold: 5\ncore modified x\n---\n\n"
    )
    assert len(pack.signatures) == 1


def test_ff3_matching_reproduces_the_computer1_rows(ff3_pack):
    objects = load_metadata(FIXTURES / "computer1.body")
    matched = match_pack(ff3_pack, objects)
    assert [s.value for s in matched[(casedata.FF3, CORE)]] == casedata.C1_FF3_CORE
    assert [s.value for s in matched[(casedata.FF3, SUPPORT)]] == casedata.C1_FF3_SUPPORT
    # six populated trace states overall; the startupCache pattern hits nothing
    assert sum(len(states) for states in matched.values()) == 6


def test_ie8_matching_reproduces_the_computer2_rows(ie8_pack):
    objects = load_metadata(FIXTURES / "computer2.body")
    matched = match_pack(ie8_pack, objects)
    assert [s.value for s in matched[(casedata.IE8, CORE)]] == casedata.C2_IE8_CORE
    assert [s.value for s in matched[(casedata.IE8, SUPPORT)]] == casedata.C2_IE8_SUPPORT


def test_empty_object_list_matches_nothing(browser_pack):
    matched = match_pack(browser_pack, [])
    assert set(matched) == {
        (action, category)
        for action in (casedata.FF3, casedata.IE8)
        for category in (CORE, SUPPORT)
    }
    assert all(states == [] for states in matched.values())


def test_matching_is_independent_of_object_order(browser_pack):
    objects = load_metadata(FIXTURES / "computer1.body") + load_metadata(
        FIXTURES / "computer2.body"
    )
    baseline = match_pack(browser_pack, objects)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = objects[:]
        rng.shuffle(shuffled)
        assert match_pack(browser_pack, shuffled) == baseline


def test_matching_is_case_insensitive(ie8_pack):
    record = ObjectRecord(path="c:/windows/prefetch/IEXPLORE.EXE-0A1B2C3D.pf", modified=500)
    states = match_pack(ie8_pack, [record])[(casedata.IE8, CORE)]
    assert [s.value for s in states] == [500]


def test_no_cross_kind_leakage():
    pack = parse_signature_pack("action: A\nthreshold: 5\ncore created .*\\.pf\n")
    record = ObjectRecord(path="C:/Prefetch/x.pf", modified=100)  # no created time
    assert match_pack(pack, [record])[("A", CORE)] == []


@pytest.mark.parametrize(
    "line, source",
    [
        ("core modified .*/a\\ \n", ".*/a\\ "),
        ("core modified .*/a\\ \r\n", ".*/a\\ "),  # the CRLF's \r is still dropped
        ("core modified .*/a\\\t \n", ".*/a\\\t"),
        ("core modified .*/a\\\\\\  \n", ".*/a\\\\\\ "),
        ("core modified .*/a\\\\ \n", ".*/a\\\\"),  # an even run escapes nothing
    ],
)
def test_a_pattern_keeps_the_whitespace_a_trailing_backslash_escapes(line, source):
    pack = parse_signature_pack("action: A\nthreshold: 5\n" + line)
    (trace,) = casedata.signature(pack, "A").traces
    assert trace.source == source


def test_a_pattern_ending_in_an_escaped_space_matches_the_space():
    pack = parse_signature_pack("action: A\nthreshold: 5\ncore modified .*/a\\ \n")
    hit = ObjectRecord(path="C:/x/a ", modified=1)
    miss = ObjectRecord(path="C:/x/a", modified=2)
    assert [s.object_path for s in match_pack(pack, [hit, miss])[("A", CORE)]] == [hit.path]


def test_end_anchor_is_honored():
    pack = parse_signature_pack("action: A\nthreshold: 5\ncore modified .*/startupCache$\n")
    hit = ObjectRecord(path="C:/p/default/startupCache", modified=1)
    miss = ObjectRecord(path="C:/p/default/startupCache/entry.bin", modified=2)
    assert [s.object_path for s in match_pack(pack, [hit, miss])[("A", CORE)]] == [hit.path]


def test_one_pattern_may_capture_many_files():
    pack = parse_signature_pack("action: A\nthreshold: 5\nsupport created .*/Cookies/.*\\.txt\n")
    objects = [
        ObjectRecord(path=f"C:/u/Cookies/user@site{i}.txt", created=100 + i)
        for i in range(3)
    ]
    assert len(match_pack(pack, objects)[("A", SUPPORT)]) == 3


def test_overlapping_patterns_of_one_category_yield_one_state_per_object():
    pack = parse_signature_pack(
        "action: A\nthreshold: 5\nsupport created .*/Cookies/.*\nsupport created .*@bing.*\n"
    )
    record = ObjectRecord(path="C:/u/Cookies/user@bing[2].txt", created=42)
    assert len(match_pack(pack, [record])[("A", SUPPORT)]) == 1


def test_shared_pattern_produces_identical_states_under_each_signature():
    pack = parse_signature_pack(
        "action: A\nthreshold: 5\nshared modified .*/lib\\.dll$\n"
        "---\n"
        "action: B\nthreshold: 9\nshared modified .*/lib\\.dll$\n"
    )
    record = ObjectRecord(path="C:/sys/lib.dll", modified=77)
    matched = match_pack(pack, [record])
    # one group bucket holds the state for both signatures; neither has its own
    assert matched[frozenset({"A", "B"})] == [
        TraceState(record.path, TimestampKind.MODIFIED, 77)
    ]
    assert ("A", SHARED) not in matched and ("B", SHARED) not in matched
    assert shared_groups(pack) == {
        frozenset({"A", "B"}): [(".*/lib\\.dll$", TimestampKind.MODIFIED)]
    }


def test_shared_groups_list_only_shared_category_patterns(worked_example_pack):
    assert shared_groups(worked_example_pack) == {
        frozenset({casedata.X, casedata.Y}): [
            (".*/objects/o6$", TimestampKind.MODIFIED),
            (".*/objects/o7$", TimestampKind.MODIFIED),
        ]
    }


def test_a_shared_trace_is_evidence_for_every_signature_listing_it():
    # B lists A's shared trace as its own supporting trace: B is a candidate too.
    pack = parse_signature_pack(
        "action: A\nthreshold: 5\nshared modified .*/lib\\.dll$\n"
        "---\n"
        "action: B\nthreshold: 9\nsupport modified .*/lib\\.dll$\n"
    )
    assert shared_groups(pack) == {
        frozenset({"A", "B"}): [(".*/lib\\.dll$", TimestampKind.MODIFIED)]
    }


def test_buckets_list_signatures_first_then_groups_in_sorted_candidate_order():
    pack = parse_signature_pack(
        "action: C\nthreshold: 5\nshared modified zc\nshared modified ab\n"
        "---\n"
        "action: B\nthreshold: 5\nshared modified zc\nshared modified ab\n"
        "shared modified bc\n"
        "---\n"
        "action: A\nthreshold: 5\nshared modified ab\nshared modified ab\n"
        "core modified zz\n"
    )
    signature_buckets = [(name, category) for name in "CBA" for category in (CORE, SUPPORT)]
    groups = [frozenset("ABC"), frozenset("B"), frozenset("BC")]
    assert list(pack.buckets) == signature_buckets + groups
    assert list(match_pack(pack, [])) == list(pack.buckets)
    # each pair once, in the order the signatures first list it as shared
    assert shared_groups(pack) == {
        frozenset("ABC"): [("ab", TimestampKind.MODIFIED)],
        frozenset("B"): [("bc", TimestampKind.MODIFIED)],
        frozenset("BC"): [("zc", TimestampKind.MODIFIED)],
    }


def test_merge_packs_rejects_colliding_action_names(ff3_pack):
    with pytest.raises(SignatureError, match="^duplicate action name in pack: 'Open FF3'$"):
        merge_packs([ff3_pack, ff3_pack])
