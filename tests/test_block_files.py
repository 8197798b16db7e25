"""Signature and scenario files: exact error messages and line numbers.

Both grammars share one block reader, so the header errors read the same in
both; an error about a whole block names the block's ``action:`` line.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracerecon import ScenarioError, SignatureError, parse_scenario, parse_signature_pack

SIG = "action: A\nthreshold: 5\n"
SCN = "action: a\nthreshold: 5\n"
# The longest number text read under every int() digit limit Python accepts.
LONGEST = "9" * 640


@pytest.mark.parametrize(
    "text, message",
    [
        ("core modified x\n", "line before 'action:': 'core modified x' (line 1)"),
        ("# c\nthreshold: 10\n", "line before 'action:': 'threshold: 10' (line 2)"),
        (SIG + "core modified x\n---\ncore modified y\n",
         "line before 'action:': 'core modified y' (line 5)"),
        ("action:\nthreshold: 10\ncore modified x\n", "empty action name (line 1)"),
        ("action: A\n\naction: B\n", "unexpected second 'action:' in block (line 3)"),
        ("action: A\nthreshold: ten\n", "threshold is not an integer: 'ten' (line 2)"),
        ("action: A\nthreshold: 0\n", "threshold must be positive, got 0 (line 2)"),
        (f"action: A\nthreshold: 9{LONGEST}\n",
         f"threshold is not an integer: '9{LONGEST}' (line 2)"),
        ("action: A\nthreshold: 10\nthreshold: 99999\ncore modified x\n",
         "unexpected second 'threshold:' in block (line 3)"),
        ("action: A\ncore modified x\n", "action 'A' is missing a 'threshold:' line (line 1)"),
        ("action: A\ncore modified x\n---\n",
         "action 'A' is missing a 'threshold:' line (line 1)"),
        (SIG + "core modified x\n---\n" + SIG + "core modified y\n---\n"
         "action: C\nthreshold: 5\ncore modified z\n",
         "duplicate action name 'A' (line 5)"),
        (SIG + "core modified\n", "malformed trace line: 'core modified' (line 3)"),
        (SIG + "bogus modified x\n", "unknown category 'bogus' (line 3)"),
        (SIG + "core someday x\n", "unknown timestamp kind 'someday' (line 3)"),
        (SIG + "core modified [unclosed\n",
         "regex does not compile: unterminated character set at position 0 (line 3)"),
        (SIG + "core modified a{4294967296}\n",
         "regex does not compile: the repetition number is too large (line 3)"),
        (SIG + "core modified .*/a\\\n",
         "regex does not compile: bad escape (end of pattern) at position 4 (line 3)"),
        (SIG + "core modified .*/a\\\r\n",
         "regex does not compile: bad escape (end of pattern) at position 4 (line 3)"),
        # re only warns about a possible nested set; the pattern is used by no
        # other test, since re's cache would return it without the warning.
        (SIG + "core modified /q/[[:blank:]]\n",
         "regex does not compile: Possible nested set at position 4 (line 3)"),
        ("action: A\n# none\nthreshold: 10\n---\n",
         "action 'A' defines no trace patterns (line 1)"),
    ],
)
def test_signature_errors_read_exactly(text, message):
    with pytest.raises(SignatureError) as exc_info:
        parse_signature_pack(text)
    assert str(exc_info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("ma modified /x\n", "line before 'action:': 'ma modified /x' (line 1)"),
        ("variant:\n", "line before 'action:': 'variant:' (line 1)"),
        ("action:\n", "empty action name (line 1)"),
        ("action: a\naction: b\n", "unexpected second 'action:' in block (line 2)"),
        ("action: a\nthreshold: x\n", "threshold is not an integer: 'x' (line 2)"),
        ("action: a\nthreshold: -3\n", "threshold must be positive, got -3 (line 2)"),
        ("action: a\nthreshold: 5\n# c\nthreshold: 5\n",
         "unexpected second 'threshold:' in block (line 4)"),
        (SCN + "variant: 7 junk\nma modified /x\n",
         "unexpected text after 'variant:': '7 junk' (line 3)"),
        (SCN + "ma modified /x\nschedule: 100 a 0\n200 a 0\n",
         "unexpected text after 'schedule:': '100 a 0' (line 4)"),
        ("action: a\nma modified /x\nschedule:\n",
         "action 'a' is missing a 'threshold:' line (line 1)"),
        (SCN + "ma modified /x\n---\naction: a\n", "duplicate action name 'a' (line 5)"),
        (SCN + "mx modified /x\n", "unrecognized line: 'mx modified /x' (line 3)"),
        (SCN + "ma\n", "'ma' line is missing its arguments (line 3)"),
        (SCN + "ma someday /x\n", "'ma' needs a timestamp kind then its arguments (line 3)"),
        (SCN + "da modified 5\n", "'da' needs '<kind> <default epoch> <path>' (line 3)"),
        (SCN + "da modified nope /x\n", "bad default epoch 'nope' (line 3)"),
        (SCN + "da modified -1 /x\n", "default epoch must be non-negative (line 3)"),
        (SCN + "da modified 0 /x\n",
         "default epoch 0 would read back from the exported bodyfile as absent (line 3)"),
        (SCN + "ma modified C:\\w\\x\n", "'ma' path contains '\\', read back as '/' (line 3)"),
        (SCN + "oa /p (deleted)\n", "'oa' path ends in a bodyfile deletion marker (line 3)"),
        (SCN + "da created 5 /p(deleted-realloc)\n",
         "'da' path ends in a bodyfile deletion marker (line 3)"),
        (SCN + "da modified 253402300800 /x\n",
         "default epoch is past 9999-12-31T23:59:59Z: 253402300800 (line 3)"),
        (SCN + "---\n", "action 'a' defines no variants (line 1)"),
        (SCN + "ma modified /x\nda modified 3 /x\nschedule:\n",
         "update and default targets overlap: "
         "[('/x', <TimestampKind.MODIFIED: 'modified'>)] (line 1)"),
        (SCN + "ma accessed /p\nma modified /p\nda accessed 1 /p\nda modified 1 /p\n",
         "update and default targets overlap: [('/p', <TimestampKind.ACCESSED: 'accessed'>), "
         "('/p', <TimestampKind.MODIFIED: 'modified'>)] (line 1)"),
        (SCN + "ma modified /x\nschedule:\n10 a\n",
         "schedule entry needs '<epoch> <action> <variant|?>' (line 5)"),
        (SCN + "ma modified /x\nschedule:\nten a 0\n", "bad epoch value 'ten' (line 5)"),
        (SCN + f"ma modified /x\nschedule:\n9{LONGEST} a 0\n",
         f"bad epoch value '9{LONGEST}' (line 5)"),
        (SCN + "ma modified /x\nschedule:\n10 ghost 0\n",
         "unknown action in schedule: 'ghost' (line 5)"),
        (SCN + "ma modified /x\nschedule:\n10 a x\n",
         "variant must be an index or '?': 'x' (line 5)"),
        (SCN + "ma modified /x\nschedule:\n10 a 7\n", "action 'a' has no variant 7 (line 5)"),
        (SCN + "ma modified /x\nschedule:\n-10 a 0\n",
         "instance time must be non-negative (line 5)"),
        (SCN + "ma modified /x\nschedule:\n0 a 0\n",
         "epoch 0 can write time 0, which would read back from the exported bodyfile "
         "as absent (line 5)"),
        (SCN + "ma modified /x\nschedule:\n253402300795 a 0\n",
         "epoch plus threshold is past 9999-12-31T23:59:59Z: 253402300795 (line 5)"),
    ],
)
def test_scenario_errors_read_exactly(text, message):
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(text)
    assert str(exc_info.value) == message


def test_a_global_flag_not_at_the_start_does_not_load():
    # Python 3.10 only warns about it and later versions refuse it, each in
    # its own words, so only the error is checked.
    with pytest.raises(SignatureError):
        parse_signature_pack(SIG + "core modified q(?i)r\n")


def test_a_number_of_640_characters_is_still_read():
    pack = parse_signature_pack("action: A\nthreshold: " + LONGEST + "\ncore modified x\n")
    assert pack.get("A").threshold == int(LONGEST)


TOKENS = [
    "action: A", "action: B", "action:", "threshold: 5", "threshold: 0", "threshold: x",
    "---", "# comment", "", "  ", "junk",
    "core modified x", "support created .*/a$", "shared accessed y", "core modified [",
    "core modified a{4294967296}", "core bogus x", "core modified",
    "variant:", "ma modified /x", "ma", "da created 5 /y", "da created -5 /y",
    "oa /z", "schedule:", "10 A 0", "20 B ?", "-1 A 0", "5 A 9",
]


@pytest.mark.parametrize(
    "parse, error", [(parse_signature_pack, SignatureError), (parse_scenario, ScenarioError)]
)
@given(lines=st.lists(st.sampled_from(TOKENS), max_size=14))
def test_parsers_raise_only_their_error_at_a_real_line(parse, error, lines):
    try:
        parse("\n".join(lines))
    except error as exc:
        assert 1 <= exc.line_no <= len(lines)


@pytest.mark.parametrize(
    "parse, error", [(parse_signature_pack, SignatureError), (parse_scenario, ScenarioError)]
)
def test_only_one_leading_byte_order_mark_is_dropped(parse, error):
    with pytest.raises(error) as exc_info:
        parse("\ufeff\ufeffaction: A\n")
    assert str(exc_info.value) == "line before 'action:': '\\ufeffaction: A' (line 1)"
    with pytest.raises(error) as exc_info:
        parse("\ufeff\n# c\n\ufeffthreshold: 5\n")
    assert str(exc_info.value) == "line before 'action:': '\\ufeffthreshold: 5' (line 3)"


def test_a_byte_order_mark_inside_a_pattern_stays_in_it():
    text = SIG + "core modified a\ufeffb\n"
    (trace,) = parse_signature_pack("\ufeff" + text).get("A").traces
    assert trace.source == "a\ufeffb"
    assert parse_signature_pack("\ufeff" + text).get("A") == parse_signature_pack(text).get("A")
