import csv
import io
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tracerecon import parse_bodyfile, parse_scenario, simulate
from tracerecon.bodyfile import MAX_TIME
from tracerecon.cli import main

import casedata
from conftest import FIXTURES, PACKAGED_SIG_DIR

FF3_SIG = str(PACKAGED_SIG_DIR / "ff3.sig")
IE8_SIG = str(PACKAGED_SIG_DIR / "ie8.sig")
C1 = str(FIXTURES / "computer1.body")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- scan -----------------------------------------------------------------


def test_scan_table_output(capsys):
    code, out, err = run(capsys, "scan", C1, FF3_SIG, IE8_SIG)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "computer", "action", "rank", "interval_start", "interval_end",
        "evidence_count", "note",
    ]
    assert len(lines) == 11  # header plus ten detections
    assert "10 detections" in err
    # newest first: the parallel-instance diagnostic rows lead the timeline
    assert "parallel-instance-diagnostic" in lines[1]


def test_scan_csv_and_records_carry_the_same_logical_rows(capsys):
    _, table_out, _ = run(capsys, "scan", C1, FF3_SIG, IE8_SIG)
    _, csv_out, _ = run(capsys, "scan", C1, FF3_SIG, IE8_SIG, "--format", "csv")
    _, records_out, _ = run(capsys, "scan", C1, FF3_SIG, IE8_SIG, "--format", "records")

    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))

    table_lines = table_out.splitlines()[1:]
    assert len(csv_rows) == len(table_lines)
    for row, line in zip(csv_rows, table_lines):
        for cell in row.values():
            assert cell in line

    blocks = [b for b in records_out.split("\n\n") if b.strip()]
    assert len(blocks) == len(csv_rows)
    for block, row in zip(blocks, csv_rows):
        parsed = dict(line.split(": ", 1) for line in block.splitlines())
        assert parsed == dict(row)


def test_scan_utc_display_renders_iso8601(capsys):
    _, out, _ = run(capsys, "scan", C1, FF3_SIG, "--utc-display", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["interval_end"] == "2011-07-24T15:02:31Z"


def test_scan_label_defaults_to_the_file_stem(capsys):
    _, out, _ = run(capsys, "scan", C1, FF3_SIG, "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {row["computer"] for row in rows} == {"computer1"}


def test_scan_empty_bodyfile_reports_zero_detections(capsys, tmp_path):
    empty = tmp_path / "empty.body"
    empty.write_text("")
    code, out, err = run(capsys, "scan", str(empty), FF3_SIG)
    assert code == 0
    assert "0 detections" in err


def test_scan_missing_metadata_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "scan", str(tmp_path / "missing.body"), FF3_SIG)
    assert code == 2
    assert "missing.body" in err


def test_scan_unreadable_metadata_exits_2_ahead_of_a_bad_pack(capsys, tmp_path):
    bad = tmp_path / "bad.sig"
    bad.write_text("action: A\nthreshold: 0\n")
    code, _, err = run(capsys, "scan", str(tmp_path / "missing.body"), str(bad))
    assert code == 2
    assert err.startswith(f"error: cannot read metadata {tmp_path / 'missing.body'}: ")


def test_scan_bad_pack_exits_3_before_any_bodyfile_diagnostic(capsys, caplog, tmp_path):
    body = tmp_path / "in.body"
    body.write_text("not a bodyfile line\n")
    bad = tmp_path / "bad.sig"
    bad.write_text("action: A\nthreshold: 0\n")
    code, _, err = run(capsys, "scan", str(body), str(bad))
    assert code == 3
    assert err == f"error: {bad}: threshold must be positive, got 0 (line 2)\n"
    assert caplog.messages == []

    code, _, _ = run(capsys, "scan", str(body), FF3_SIG)
    assert code == 0
    assert caplog.messages == [f"{body}: line 1: expected 11 fields, found 1"]


class _FailingStdin:
    """Stands in for ``sys.stdin``: its buffer fails after one line."""

    closed = False

    def __init__(self):
        self.buffer = self

    def __iter__(self):
        yield f"0|{FF3_PREFETCH}|2|r|0|0|1|0|1311516151|0|0\n".encode()
        raise OSError(5, "Input/output error")

    def close(self):
        self.closed = True


def test_scan_read_failure_mid_stream_exits_2_and_leaves_stdin_open(capsys, monkeypatch):
    stdin = _FailingStdin()
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "scan", "-", FF3_SIG)
    assert (code, out) == (2, "")
    assert err == "error: cannot read metadata -: [Errno 5] Input/output error\n"
    assert sys.stdin is stdin and not stdin.closed


def _noise_bodyfile(path, count):
    """``count`` valid bodyfile lines that no packaged pattern matches."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(count):
            t = 1_300_000_000 + 37 * i
            fh.write(f"0|D:/archive/d{i % 97}/file{i:06d}.dat|{i}|r/rrwxrwxrwx|0|0|{i % 4096}"
                     f"|{t}|{t}|{t}|{t - 86400}\n")


def test_scan_memory_stays_flat_as_the_bodyfile_grows(capsys, tmp_path):
    peaks = []
    for count in (5_000, 50_000):
        body = tmp_path / f"noise{count}.body"
        _noise_bodyfile(body, count)
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "scan", str(body), FF3_SIG, IE8_SIG)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "0 detections\n")
    assert abs(peaks[1] - peaks[0]) < 1_000_000, peaks


@pytest.mark.parametrize(
    "text, line",
    [
        ("action: A\nthreshold: 0\ncore modified x\n", "line 2"),
        ("action: A\nthreshold: 5\ncore modified a{4294967296}\n", "line 3"),
        pytest.param(
            "action: A\nthreshold: 5\ncore modified " + "(" * 2000 + ")" * 2000 + "\n",
            "line 3",
            id="deeply-nested-regex",
        ),
    ],
)
def test_scan_bad_signature_file_exits_3_with_line_number(capsys, tmp_path, text, line):
    bad = tmp_path / "bad.sig"
    bad.write_text(text)
    code, _, err = run(capsys, "scan", C1, str(bad))
    assert code == 3
    assert err.startswith(f"error: {bad}: ")
    assert err.count(f"({line})") == 1


def test_scan_packs_sharing_an_action_name_exit_3(capsys):
    code, _, err = run(capsys, "scan", C1, FF3_SIG, FF3_SIG)
    assert code == 3
    assert err == "error: duplicate action name in pack: 'Open FF3'\n"


def test_scan_signature_pack_that_is_not_utf8_exits_3(capsys, tmp_path):
    bad = tmp_path / "latin1.sig"
    bad.write_bytes(b"action: A\nthreshold: 5\ncore modified caf\xe9\n")
    code, _, err = run(capsys, "scan", C1, str(bad))
    assert code == 3
    assert err.startswith("error: ")
    assert "latin1.sig" in err


def test_scan_uses_signature_dir_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("TRACE_RECON_SIG_DIR", str(PACKAGED_SIG_DIR))
    code, out, _ = run(capsys, "scan", C1, "--format", "csv")
    assert code == 0
    actions = {row["action"] for row in csv.DictReader(io.StringIO(out))}
    assert actions == {casedata.FF3, casedata.IE8}


def test_scan_defaults_to_the_packaged_signatures(capsys):
    code, out, _ = run(capsys, "scan", C1, "--format", "csv")
    assert code == 0
    actions = {row["action"] for row in csv.DictReader(io.StringIO(out))}
    assert actions == {casedata.FF3, casedata.IE8}


def test_scan_output_is_identical_across_runs_and_permutations(capsys, tmp_path):
    _, baseline, _ = run(capsys, "scan", C1, FF3_SIG, IE8_SIG, "--label", "c1")
    _, again, _ = run(capsys, "scan", C1, FF3_SIG, IE8_SIG, "--label", "c1")
    assert baseline == again

    lines = (FIXTURES / "computer1.body").read_text().splitlines()
    rng = random.Random(99)
    for i in range(3):
        shuffled = lines[:]
        rng.shuffle(shuffled)
        permuted = tmp_path / f"perm{i}.body"
        permuted.write_text("\n".join(shuffled) + "\n")
        _, out, _ = run(capsys, "scan", str(permuted), FF3_SIG, IE8_SIG, "--label", "c1")
        assert out == baseline


FF3_PREFETCH = "C:/WINDOWS/Prefetch/FIREFOX.EXE-28641590.pf"


def test_scan_keeps_names_that_are_not_utf8(capsys, tmp_path):
    body = tmp_path / "raw.body"
    body.write_bytes(
        b"0|C:/Documents and Settings/Jos\xe9/x.txt|1|r|0|0|1|1311516151|1311516151|0|0\n"
        b"0|C:/Jos\xe9/Prefetch/FIREFOX.EXE-28641590.pf|2|r|0|0|1|0|1311516151|0|0\n"
    )
    code, out, err = run(capsys, "scan", str(body), FF3_SIG, "--format", "csv")
    assert code == 0
    assert "1 detections" in err
    assert [row["action"] for row in csv.DictReader(io.StringIO(out))] == [casedata.FF3]


def test_scan_reads_raw_bytes_from_stdin(capsys, monkeypatch):
    data = f"0|C:/Jos\xe9/{FF3_PREFETCH[3:]}|2|r|0|0|1|0|1311516151|0|0\n".encode("latin-1")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, _, err = run(capsys, "scan", "-", FF3_SIG)
    assert code == 0
    assert "1 detections" in err


def test_scan_skips_times_beyond_year_9999(capsys, tmp_path):
    body = tmp_path / "huge.body"
    body.write_text(
        f"0|{FF3_PREFETCH}|1|r|0|0|1|0|1311516151|0|0\n"
        f"0|{FF3_PREFETCH}|1|r|0|0|1|0|99999999999999999999|0|0\n"
    )
    code, out, err = run(capsys, "scan", str(body), FF3_SIG, "--utc-display", "--format", "csv")
    assert code == 0
    assert "1 detections" in err
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["interval_end"] == "2011-07-24T14:02:31Z"


# --- calibrate -------------------------------------------------------------


def test_calibrate_prints_the_estimate(capsys):
    code, out, _ = run(capsys, "calibrate", str(FIXTURES / "calibration_ie8.txt"))
    assert code == 0
    assert "n: 3" in out
    assert "mean: 27.4" in out
    assert "sigma: 16.76" in out
    assert "theta: 61" in out


def test_calibrate_reads_stdin_identically(capsys, monkeypatch):
    data = (FIXTURES / "calibration_ie8.txt").read_bytes()
    _, from_file, _ = run(capsys, "calibrate", str(FIXTURES / "calibration_ie8.txt"))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    _, from_stdin, _ = run(capsys, "calibrate", "-")
    assert from_stdin == from_file


@pytest.mark.parametrize("k", ["0", "nan", "inf"])
def test_calibrate_k_not_positive_and_finite_is_a_usage_error(capsys, k):
    with pytest.raises(SystemExit) as exc_info:
        main(["calibrate", str(FIXTURES / "calibration_ie8.txt"), "--k", k])
    assert exc_info.value.code == 2
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("12.5\nnan\n20\n", "duration samples must be finite numbers"),
        ("12.5\ninf\n20\n", "duration samples must be finite numbers"),
        ("12.5\n-inf\n20\n", "duration samples must be finite numbers"),
        ("1e308\n1e308\n0\n", "cutoff mean + k*sigma is not finite: inf"),
    ],
)
def test_calibrate_non_finite_sample_or_cutoff_exits_3(capsys, tmp_path, text, message):
    samples = tmp_path / "samples.txt"
    samples.write_text(text)
    code, _, err = run(capsys, "calibrate", str(samples))
    assert code == 3
    assert err == f"error: {message}\n"


def test_calibrate_insufficient_samples_exits_3(capsys, tmp_path):
    one = tmp_path / "one.txt"
    one.write_text("12.5\n")
    code, _, err = run(capsys, "calibrate", str(one))
    assert code == 3
    assert "insufficient" in err


def test_calibrate_bad_sample_line_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("12.5\nwhat\n")
    code, _, err = run(capsys, "calibrate", str(bad))
    assert code == 3
    assert "line 2" in err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_calibrate_samples_that_are_not_utf8_exit_3(capsys, tmp_path, monkeypatch, source):
    data = b"12.5\ncaf\xe9\n"
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    name = str(path) if source == "file" else "-"
    code, _, err = run(capsys, "calibrate", name)
    assert code == 3
    assert err.startswith(f"error: samples {name} is not UTF-8: ")


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("separator", ["\r", "\f", "\x85"])
def test_calibrate_splits_samples_only_at_newlines(
    capsys, tmp_path, monkeypatch, separator, source
):
    data = f"12{separator}13\n14\n".encode()
    path = tmp_path / "samples.txt"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code, _, err = run(capsys, "calibrate", str(path) if source == "file" else "-")
    assert code == 3
    assert err == f"error: line 1: not a duration: {'12' + separator + '13'!r}\n"


@pytest.mark.parametrize(
    "text, line",
    [("12\u202813\nabc\n", "line 1: not a duration: '12\\u202813'"),
     ("# a\u2028note\n12\n13\nabc\n", "line 4: not a duration: 'abc'")],
)
def test_calibrate_names_the_physical_line(capsys, monkeypatch, text, line):
    monkeypatch.setattr(
        "sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    )
    code, _, err = run(capsys, "calibrate", "-")
    assert code == 3
    assert err == f"error: {line}\n"


def test_calibrate_missing_file_exits_2(capsys, tmp_path):
    code, _, _ = run(capsys, "calibrate", str(tmp_path / "none.txt"))
    assert code == 2


# --- simulate ----------------------------------------------------------------


def test_simulate_writes_deterministic_outputs(capsys, tmp_path):
    scenario = str(FIXTURES / "scenario_basic.scn")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "simulate", scenario, "--seed", "7", "--out", str(out_a))[0] == 0
    assert run(capsys, "simulate", scenario, "--seed", "7", "--out", str(out_b))[0] == 0
    assert (out_a / "metadata.body").read_bytes() == (out_b / "metadata.body").read_bytes()
    assert (out_a / "truth.json").read_bytes() == (out_b / "truth.json").read_bytes()

    truth = json.loads((out_a / "truth.json").read_text())
    assert truth["seed"] == 7
    assert [i["action"] for i in truth["instances"]] == [
        "open editor", "open viewer", "open editor",
    ]


def test_simulate_truth_json_equals_one_dumps_of_the_whole_log(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("tracerecon.cli._TRUTH_SLICE", 2)  # several slices on a small log
    scenario = FIXTURES / "scenario_basic.scn"
    assert run(capsys, "simulate", str(scenario), "--seed", "5", "--out", str(tmp_path))[0] == 0

    parsed = parse_scenario(scenario.read_text())
    _, truth = simulate({}, parsed.specs, parsed.schedule, 5)
    assert len(truth.writes) > 4
    payload = {
        "seed": 5,
        "instances": [
            {"index": i.index, "action": i.action, "tau": i.tau, "variant": i.variant}
            for i in truth.instances
        ],
        "writes": [
            {"instance": w.instance_index, "path": w.path, "kind": w.kind.value,
             "value": w.value, "default": w.is_default}
            for w in truth.writes
        ],
    }
    expected = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert (tmp_path / "truth.json").read_text(encoding="utf-8") == expected


def test_simulate_different_seed_changes_the_metadata(capsys, tmp_path):
    scenario = str(FIXTURES / "scenario_basic.scn")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(capsys, "simulate", scenario, "--seed", "1", "--out", str(out_a))
    run(capsys, "simulate", scenario, "--seed", "2", "--out", str(out_b))
    assert (out_a / "metadata.body").read_bytes() != (out_b / "metadata.body").read_bytes()


def test_simulate_check_passes_on_a_sound_scenario(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "simulate",
        str(FIXTURES / "scenario_basic.scn"),
        "--seed", "11",
        "--out", str(tmp_path / "run"),
        "--check",
    )
    assert code == 0
    assert "interval-soundness: PASS" in out
    assert "count-bound: PASS" in out
    assert "most-recent-coverage: PASS" in out
    assert "no-false-positives: PASS" in out


def test_simulate_unknown_action_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("action: a\nthreshold: 5\nma modified /x\nschedule:\n10 ghost 0\n")
    code, _, err = run(capsys, "simulate", str(bad), "--out", str(tmp_path / "o"))
    assert code == 3
    assert "ghost" in err


def test_simulate_scenario_that_is_not_utf8_exits_3(capsys, tmp_path):
    bad = tmp_path / "latin1.scn"
    bad.write_bytes(b"action: caf\xe9\nthreshold: 5\nma modified /x\n")
    code, _, err = run(capsys, "simulate", str(bad), "--out", str(tmp_path / "o"))
    assert code == 3
    assert err.startswith("error: ")
    assert "latin1.scn" in err


def test_simulate_missing_scenario_exits_2(capsys, tmp_path):
    code, _, _ = run(capsys, "simulate", str(tmp_path / "none.scn"), "--out", str(tmp_path / "o"))
    assert code == 2


@pytest.mark.parametrize("line", ["ma modified /x|y", "da modified 5 /x|y", "oa /x|y"])
def test_simulate_rejects_a_field_separator_in_a_path(capsys, tmp_path, line):
    scenario = tmp_path / "pipe.scn"
    scenario.write_text(f"action: a\nthreshold: 5\nma modified /z\n{line}\nschedule:\n10 a 0\n")
    code, _, err = run(capsys, "simulate", str(scenario), "--out", str(tmp_path / "o"))
    assert code == 3
    assert err == f"error: '{line[:2]}' line contains the field separator '|' (line 4)\n"


def test_simulate_writes_only_times_its_own_scan_accepts(capsys, tmp_path):
    scenario = tmp_path / "late.scn"
    head = f"action: a\nthreshold: 5\nma modified /x\nda created {MAX_TIME} /x\nschedule:\n"
    scenario.write_text(head + f"{MAX_TIME - 5} a 0\n")
    assert run(capsys, "simulate", str(scenario), "--out", str(tmp_path / "o"))[0] == 0
    records, diagnostics = parse_bodyfile((tmp_path / "o" / "metadata.body").read_text())
    assert diagnostics == []
    assert records[0].created == MAX_TIME and records[0].modified >= MAX_TIME - 5

    scenario.write_text(head + "99999999999999999 a 0\n")
    code, _, err = run(capsys, "simulate", str(scenario), "--out", str(tmp_path / "o"), "--check")
    assert code == 3
    assert err == (
        "error: epoch plus threshold is past 9999-12-31T23:59:59Z: 99999999999999999 (line 6)\n"
    )


# --- a lone \r inside a line -----------------------------------------------------


def test_scan_keeps_a_lone_cr_inside_a_signature_line(capsys, tmp_path):
    body = tmp_path / "cr.body"
    body.write_bytes(b"0|C:/a\rb|1|r|0|0|1|0|1311516151|0|0\n")
    pack = tmp_path / "cr.sig"
    pack.write_bytes(b"action: A\nthreshold: 5\ncore modified a\rb\n")
    code, out, err = run(capsys, "scan", str(body), str(pack), "--format", "csv")
    assert code == 0
    assert [row["action"] for row in csv.DictReader(io.StringIO(out))] == ["A"]

    pack.write_bytes(b"action: A\nthreshold: 5\ncore modified a\rb\ncore bogus x\n")
    code, _, err = run(capsys, "scan", str(body), str(pack))
    assert code == 3
    assert err == f"error: {pack}: unknown timestamp kind 'bogus' (line 4)\n"


def test_simulate_keeps_a_lone_cr_inside_a_scenario_line(capsys, tmp_path):
    scenario = tmp_path / "cr.scn"
    scenario.write_bytes(b"action: a\nthreshold: 5\nma modified /a\rb\nschedule:\n10 a 0\n")
    assert run(capsys, "simulate", str(scenario), "--out", str(tmp_path / "o"))[0] == 0
    assert (tmp_path / "o" / "metadata.body").read_bytes().startswith(b"0|/a\rb|")

    scenario.write_bytes(b"action: a\nthreshold: 5\nma modified /a\rb\nmx /c\n")
    code, _, err = run(capsys, "simulate", str(scenario), "--out", str(tmp_path / "o"))
    assert code == 3
    assert err == "error: unrecognized line: 'mx /c' (line 4)\n"


# --- no input gives a traceback -----------------------------------------------

# Pieces of the bodyfile, signature, sample and scenario grammars, mixed with
# arbitrary bytes, so that fuzzed inputs also reach past the first syntax check.
NUMBER_TOKENS = [b"0", b"7", b"12.5", b"-1", b"1311516151", b"99999999999999999999",
                 b"nan", b"inf", b"1e308"]
GRAMMAR_TOKENS = NUMBER_TOKENS + [
    b"|", b"\n", b" ", b"#", b"---", b"\xff", b"(", b")", b".*", b"C:/x (deleted)",
    b"action: ", b"threshold: ", b"core modified ", b"support created ", b"shared accessed ",
    b"action: A\nthreshold: 50\ncore modified x\nshared modified /\n---\n",
]


def joined(tokens, separator=b"", max_size=40):
    pieces = st.one_of(st.sampled_from(tokens), st.binary(max_size=3))
    return st.lists(pieces, max_size=max_size).map(separator.join)


fuzz_bytes = joined(GRAMMAR_TOKENS)
# Bodyfile lines of about eleven fields, and sample files of one number a line.
fuzz_body = st.lists(
    st.one_of(joined(GRAMMAR_TOKENS, b"|", 12), fuzz_bytes), max_size=8
).map(b"\n".join)
fuzz_samples = joined(NUMBER_TOKENS, b"\n", 8)
# A valid scenario with one line replaced or inserted: one bad line fails a
# whole scenario, so only a mutation of one line keeps the rest valid.
VALID_SCENARIO = [
    b"# two actions", b"action: A", b"threshold: 5", b"variant:", b"ma modified /x",
    b"da created 5 /y", b"oa /z", b"variant:", b"ma modified /x", b"---", b"action: B",
    b"threshold: 7", b"ma accessed /x", b"schedule:", b"10 A 0", b"20 B ?", b"30 A ?",
]
LINE_HEADS = [
    b"ma modified /p", b"ma created ", b"da accessed 5 /p", b"da modified ", b"oa /p",
    b"variant:", b"action: ", b"threshold: ", b"schedule:", b"10 A ", b"---", b"#", b"",
]
LINE_TOKENS = [
    b"|", b"\\", b" (deleted)", b" ", b"/p", b"A", b"?", b"0", b"-1", b"\r", b"\xff",
    str(MAX_TIME).encode(), str(MAX_TIME - 5).encode(), str(MAX_TIME + 1).encode(),
]
scenario_line = st.builds(
    lambda head, tokens: head + b"".join(tokens),
    st.sampled_from(LINE_HEADS),
    st.lists(st.sampled_from(LINE_TOKENS), min_size=1, max_size=3),
)


@st.composite
def fuzz_scenario(draw):
    lines = list(VALID_SCENARIO)
    index = draw(st.integers(0, len(lines)))
    line = draw(scenario_line)
    if index < len(lines) and draw(st.booleans()):
        lines[index] = line
    else:
        lines.insert(index, line)
    return b"\n".join(lines) + b"\n"


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the option
        return exc.code


FUZZ_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ_SETTINGS
@given(body=fuzz_body, pack=fuzz_bytes)
def test_scan_exits_with_a_documented_code_on_any_bytes(capsys, tmp_path, body, pack):
    (tmp_path / "in.body").write_bytes(body)
    (tmp_path / "in.sig").write_bytes(pack)
    assert exit_code(["scan", str(tmp_path / "in.body"), str(tmp_path / "in.sig")]) in {0, 2, 3}
    capsys.readouterr()


@FUZZ_SETTINGS
@given(samples=fuzz_samples, k=st.sampled_from(["2", "0.5", "0", "-1", "nan", "inf", "1e308", "x"]))
def test_calibrate_exits_with_a_documented_code_on_any_bytes(capsys, tmp_path, samples, k):
    (tmp_path / "samples.txt").write_bytes(samples)
    assert exit_code(["calibrate", str(tmp_path / "samples.txt"), "--k", k]) in {0, 2, 3}
    capsys.readouterr()


@FUZZ_SETTINGS
@given(scenario=fuzz_scenario())
def test_simulate_exits_with_a_documented_code_on_any_bytes(capsys, tmp_path, scenario):
    (tmp_path / "in.scn").write_bytes(scenario)
    argv = ["simulate", str(tmp_path / "in.scn"), "--out", str(tmp_path / "o")]
    assert exit_code(argv) in {0, 3}
    capsys.readouterr()
