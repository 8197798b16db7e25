"""Signature and scenario files: exact error messages and line numbers.

Both grammars share one block reader, so the header errors read the same in
both; an error about a whole block names the block's ``action:`` line.  Both
parsers give the same result and the same error, at the same line, as the
parsers of ``reference_blockfile``.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import casedata
import reference_blockfile
from tracerecon import (
    ScenarioError,
    SignatureError,
    SignaturePack,
    parse_scenario,
    parse_signature_pack,
)
from tracerecon.blockfile import BlockFileError
from tracerecon.model import TimestampKind

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
        (SCN + "variant:x\nma modified /x\n", "unexpected text after 'variant:': 'x' (line 3)"),
        (SCN + "ma modified /x\nschedule:x\n",
         "unexpected text after 'schedule:': 'x' (line 4)"),
        ("action: a\nma modified /x\nschedule:\n",
         "action 'a' is missing a 'threshold:' line (line 1)"),
        (SCN + "ma modified /x\n---\naction: a\n", "duplicate action name 'a' (line 5)"),
        (SCN + "mx modified /x\n", "unrecognized line: 'mx modified /x' (line 3)"),
        (SCN + "ma\n", "'ma' line is missing its arguments (line 3)"),
        (SCN + "ma someday /x\n", "'ma' needs a timestamp kind then its arguments (line 3)"),
        (SCN + "ma MODIFIED /x\n", "'ma' needs a timestamp kind then its arguments (line 3)"),
        (SCN + "ma modified\n", "'ma' needs a timestamp kind then its arguments (line 3)"),
        (SCN + "da created\n", "'da' needs a timestamp kind then its arguments (line 3)"),
        (SCN + "ma modified a|b\n", "'ma' line contains the field separator '|' (line 3)"),
        (SCN + "ma modified /p (deleted)\n",
         "'ma' path ends in a bodyfile deletion marker (line 3)"),
        (SCN + "ma modified /x\\ \n", "'ma' path contains '\\', read back as '/' (line 3)"),
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
    assert casedata.signature(pack, "A").threshold == int(LONGEST)


def test_tabs_separate_scenario_fields_as_spaces_do():
    spaced = SCN + "ma modified /x\nda created 5 /y\nschedule:\n10 a 0\n20 a ?\n"
    tabbed = SCN + "ma\tmodified\t/x\nda\tcreated \t5\t/y\nschedule:\n10\ta\t0\n20\t a\t?\n"
    assert parse_scenario(tabbed) == parse_scenario(spaced)


def test_a_target_path_is_the_text_after_its_kind_as_written():
    text = SCN + "ma  modified   /x  y\nma accessed /p)\nda created 5 /q (deleted) z\noa  /n\n"
    (variant,) = parse_scenario(text).specs["a"].variants
    assert variant.updates == {("/x  y", TimestampKind.MODIFIED), ("/p)", TimestampKind.ACCESSED)}
    assert variant.defaults == {("/q (deleted) z", TimestampKind.CREATED, 5)}


def test_tabs_separate_trace_fields_as_spaces_do():
    spaced = parse_signature_pack(SIG + "core modified .*/a$\n")
    tabbed = parse_signature_pack(SIG + "core\tmodified \t.*/a$\n")
    assert tabbed.signatures == spaced.signatures


TOKENS = [
    "action: A", "action: B", "action:", "threshold: 5", "threshold: 0", "threshold: x",
    "---", "# comment", "", "  ", "junk",
    "core modified x", "support created .*/a$", "shared accessed y", "core modified [",
    "core modified a{4294967296}", "core bogus x", "core modified", "core\tmodified\tx",
    "variant:", "variant:x", "ma modified /x", "ma\tmodified\t/x", "ma", "da created 5 /y",
    "da\tcreated\t5\t/y", "da created -5 /y", "oa /z", "schedule:", "schedule:x",
    "10 A 0", "10\tA\t0", "20 B ?", "-1 A 0", "5 A 9",
    # Lines that reach every check of a variant line's reader.
    "mx modified /x", "ma someday /x", "oa a|b", "oa /p (deleted)", "ma modified C:\\w",
    "da modified 5", "da modified nope /x", "da modified 0 /x", "da modified 253402300800 /x",
    "da modified 3 /x", "ma modified /p", "oa /x",
    # An 'ma' line through each check of the one split that reads it whole.
    "ma modified a|b", "ma modified /p (deleted)", "ma modified /p(deleted-realloc)",
    "ma modified /p)", "ma MODIFIED /x", "ma  modified   /x y", "ma modified /x\\ ",
    "ma modified",
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
    marked = casedata.signature(parse_signature_pack("\ufeff" + text), "A")
    (trace,) = marked.traces
    assert trace.source == "a\ufeffb"
    assert marked == casedata.signature(parse_signature_pack(text), "A")


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: its result, or its error's type, message and line."""
    try:
        result = parse(text)
    except BlockFileError as exc:
        return type(exc), exc.message, exc.line_no
    if isinstance(result, SignaturePack):
        return result.signatures, result.buckets
    return result


# Each parser, with the parser it replaced.
REFERENCES = [
    (parse_signature_pack, reference_blockfile.parse_signature_pack),
    (parse_scenario, reference_blockfile.parse_scenario),
]


@pytest.mark.parametrize("parse, reference", REFERENCES)
@given(header=st.booleans(), lines=st.lists(st.sampled_from(TOKENS), max_size=14))
def test_parsers_read_every_text_as_the_reference_does(parse, reference, header, lines):
    text = "\n".join((["action: A", "threshold: 5"] if header else []) + lines)
    assert _outcome(parse, text) == _outcome(reference, text)


# Lines that keep a signature or scenario file valid after "action: A" and
# "threshold: 5"; the last one opens a second action.
VALID_LINES = {
    parse_signature_pack: [
        "core modified x", "support created .*/a$", "shared accessed y", "core\tmodified\tx",
        "# c", "", "---\naction: B\nthreshold: 9",
    ],
    parse_scenario: [
        "variant:", "ma modified /x", "ma\tmodified\t/y", "da created 5 /y",
        "da\taccessed\t7\t/z", "oa /z", "oa /n", "# c", "", "---\naction: B\nthreshold: 9",
    ],
}
SCHEDULE_LINES = ["10 A 0", "20\tA\t?", "30 A 1", "40 B 0", "50 B ?"]


@pytest.mark.parametrize("parse, reference", REFERENCES)
@given(data=st.data())
def test_parsers_read_near_valid_files_as_the_reference_does(parse, reference, data):
    lines = ["action: A", "threshold: 5"]
    lines += data.draw(st.lists(st.sampled_from(VALID_LINES[parse]), max_size=12))
    if parse is parse_scenario and data.draw(st.booleans()):
        lines += ["schedule:", *data.draw(st.lists(st.sampled_from(SCHEDULE_LINES), max_size=4))]
    if data.draw(st.booleans()):
        index = data.draw(st.integers(0, len(lines)))
        lines.insert(index, data.draw(st.sampled_from(TOKENS)))
    text = "\n".join(lines)
    assert _outcome(parse, text) == _outcome(reference, text)
