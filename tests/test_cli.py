import csv
import dataclasses
import errno
import io
import json
import os
import random
import select
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tracerecon import (
    TimestampKind,
    parse_bodyfile,
    parse_scenario,
    parse_signature_pack,
    reconstruct,
    simulate,
)
from tracerecon import cli
from tracerecon.bodyfile import MAX_TIME
from tracerecon.cli import main
from tracerecon.model import (
    ActionInstanceApproximation,
    ConfidenceNote,
    InstanceRank,
    TimeInterval,
    TraceState,
)
from tracerecon.signatures import path_prefilter
from tracerecon.simulator import (
    ActionSpec,
    GroundTruth,
    InstanceSchedule,
    PathVariant,
    ScheduleEntry,
    TruthInstance,
    always_updated_targets,
    core_targets,
    derive_signatures,
    oracle_check,
    write_truth,
)

import casedata
import reference_simulator
from conftest import FIXTURES, PACKAGED_SIG_DIR, ROOT

FF3_SIG = str(PACKAGED_SIG_DIR / "ff3.sig")
IE8_SIG = str(PACKAGED_SIG_DIR / "ie8.sig")
C1 = str(FIXTURES / "computer1.body")
MOD = TimestampKind.MODIFIED


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


@pytest.mark.parametrize("route", ["stem", "label"])
def test_scan_prints_a_label_byte_that_is_not_utf8_as_an_escape(tmp_path, route):
    # The byte reaches the program as a lone surrogate, which a strict UTF-8
    # stdout, as a UTF-8 terminal has, cannot encode.
    name = os.fsdecode(b"comp\xffter")
    body = tmp_path / f"{name}.body"
    body.write_bytes((FIXTURES / "computer1.body").read_bytes())
    argv = [str(body), FF3_SIG] if route == "stem" else [C1, FF3_SIG, "--label", name]
    result = subprocess.run(
        [sys.executable, "-m", "tracerecon.cli", "scan", *argv, "--format", "csv"],
        capture_output=True,
        env=_child_env(PYTHONIOENCODING="utf-8:strict"),
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, b"6 detections\n")
    rows = list(csv.DictReader(io.StringIO(result.stdout.decode("utf-8"))))
    assert {row["computer"] for row in rows} == {"comp\\xffter"}


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
    """Stands in for ``sys.stdin``: its buffer's first ``read1`` gives one line, its second fails."""

    closed = False

    def __init__(self):
        self.buffer = self
        self.reads = 0

    def read1(self, size=-1):
        self.reads += 1
        if self.reads > 1:
            raise OSError(5, "Input/output error")
        return f"0|{FF3_PREFETCH}|2|r|0|0|1|0|1311516151|0|0\n".encode()

    def close(self):
        self.closed = True


def test_scan_read_failure_mid_stream_exits_2_and_leaves_stdin_open(capsys, monkeypatch):
    stdin = _FailingStdin()
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "scan", "-", FF3_SIG)
    assert (code, out) == (2, "")
    assert err == "error: cannot read metadata -: [Errno 5] Input/output error\n"
    assert sys.stdin is stdin and not stdin.closed


# Packs, each with lines its prefilter makes candidates: lines whose literal
# lies outside the path the matcher sees, and with "/" alone every line.
_FALSE_CANDIDATES = [
    # "/prefetch/firefox.exe-" only in the MD5 and in the mode field
    ((PACKAGED_SIG_DIR / "ff3.sig").read_text(encoding="utf-8"), [
        "C:/WINDOWS/Prefetch/FIREFOX.EXE-1.pf|C:/x|1|r/rrwxrwxrwx|0|0|1|5|1311516100|5|5",
        "0|C:/y|1|C:/WINDOWS/Prefetch/FIREFOX.EXE-2.pf|0|0|1|5|1311516100|5|5",
    ]),
    # "x (deleted" only in a suffix that is removed; the last line keeps it
    ("action: A\nthreshold: 5\ncore modified .*x \\(deleted\n", [
        "0|C:/x (deleted)|1|r|0|0|1|5|1311516100|5|5",
        "0|C:/x (deleted-realloc)|1|r|0|0|1|5|1311516110|5|5",
        "0|C:/x (deleted)y|1|r|0|0|1|5|1311516120|5|5",
    ]),
    # "/" alone: every line is a candidate, and most lines hold several
    ("action: A\nthreshold: 5\ncore modified /\n", ["0|C://x/y/|1|r|0|0|1|5|5|5|5"]),
]


@pytest.mark.parametrize("pack_text, lines", _FALSE_CANDIDATES, ids=["md5-mode", "deleted", "slash"])
def test_scan_gives_the_same_output_with_and_without_the_prefilter(
    capsys, caplog, monkeypatch, tmp_path, pack_text, lines
):
    sig = tmp_path / "pack.sig"
    sig.write_text(pack_text)
    hits = path_prefilter(parse_signature_pack(pack_text))
    assert all(hits(line) for line in lines)
    body = tmp_path / "in.body"
    with open(C1, encoding="utf-8") as fh:
        body.write_text(fh.read() + "0|bad\n" + "\n".join(lines) + "\n")
    outcomes = []
    for prefilter in (path_prefilter, lambda pack: None):
        monkeypatch.setattr("tracerecon.cli.path_prefilter", prefilter)
        caplog.clear()
        outcomes.append((run(capsys, "scan", str(body), str(sig)), caplog.messages))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == [f"{body}: line 10: expected 11 fields, found 2"]


def _noise_bodyfile(path, count):
    """``count`` valid bodyfile lines that no packaged pattern matches."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(count):
            t = 1_300_000_000 + 37 * i
            fh.write(f"0|D:/archive/d{i % 97}/file{i:06d}.dat|{i}|r/rrwxrwxrwx|0|0|{i % 4096}"
                     f"|{t}|{t}|{t}|{t - 86400}\n")


def test_scan_memory_stays_flat_as_the_bodyfile_grows(capsys, tmp_path):
    # The reader holds a block at a time, so its block size sets the peak:
    # about 270 KiB with 16 KiB blocks, 940 KiB with 64 KiB blocks.
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
    assert peaks[1] < 512 * 1024, peaks


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


def test_scan_with_no_pack_in_the_signature_dir_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("TRACE_RECON_SIG_DIR", str(tmp_path))
    code, out, err = run(capsys, "scan", C1)
    assert (code, out) == (2, "")
    assert err == f"error: no *.sig files found in {tmp_path}\n"


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


def _child_env(**env_vars):
    """This process's environment for a ``trace-recon`` child, with ``env_vars`` on top."""
    python_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # Buffered, as stdout into a pipe or file is by default, so output can also wait for the flush.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": python_path, **env_vars}


def run_with_stdout(stdout, *argv, **env_vars):
    """Run ``trace-recon`` in a child process writing its stdout to the descriptor ``stdout``.

    ``env_vars`` are set in the child's environment on top of this process's.
    """
    return subprocess.run(
        [sys.executable, "-m", "tracerecon.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=_child_env(**env_vars),
        text=True,
        timeout=60,
    )


def test_scan_of_stdin_reports_a_line_before_stdin_closes():
    with subprocess.Popen(
        [sys.executable, "-m", "tracerecon.cli", "scan", "-", FF3_SIG],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    ) as child:
        try:
            child.stdin.write(b"0|bad\n")
            child.stdin.flush()
            ready, _, _ = select.select([child.stderr], [], [], 5)
            assert ready, "no diagnostic within 5 s of the line"
            assert child.stderr.readline() == b"-: line 1: expected 11 fields, found 2\n"
        finally:
            _, err = child.communicate(timeout=60)  # closes stdin
    assert (child.returncode, err) == (0, b"0 detections\n")


def scan_into_a_closed_pipe(*argv):
    """Run ``scan`` in a child process whose stdout pipe has no reader left."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_with_stdout(write_end, "scan", *argv)
    finally:
        os.close(write_end)


def test_scan_into_a_closed_pipe_exits_2_without_a_traceback(tmp_path):
    # 300 detections are far more than one stdout buffer, so a write fails
    # mid-report; the ten of computer1 fail only when stdout is flushed.
    sig = tmp_path / "many.sig"
    sig.write_text("".join(f"action: a{i}\nthreshold: 5\ncore modified /f{i}$\n---\n"
                           for i in range(300)))
    body = tmp_path / "many.body"
    body.write_text("".join(f"0|C:/f{i}|1|r|0|0|1|0|{1000 + i}|0|0\n" for i in range(300)))
    error = "error: cannot write output: Broken pipe\n"
    result = scan_into_a_closed_pipe(str(body), str(sig), "--format", "records")
    assert (result.returncode, result.stderr) == (2, error)
    result = scan_into_a_closed_pipe(C1, FF3_SIG, IE8_SIG)
    assert (result.returncode, result.stderr) == (2, "10 detections\n" + error)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv, stderr",
    [
        (("scan", C1, FF3_SIG, IE8_SIG), "10 detections\n"),
        (("calibrate", str(FIXTURES / "calibration_ie8.txt")), ""),
    ],
)
def test_output_onto_a_full_disk_exits_2_without_a_traceback(argv, stderr):
    # Every write to /dev/full fails with ENOSPC, here when stdout is flushed.
    with open("/dev/full", "wb") as full:
        result = run_with_stdout(full.fileno(), *argv)
    error = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    assert (result.returncode, result.stderr) == (2, stderr + error)


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


def write_records(truth):
    """Each write of the truth as its ``truth.json`` record."""
    return [
        {"instance": w.instance_index, "path": w.path, "kind": w.kind.value,
         "value": w.value, "default": w.is_default}
        for w in reference_simulator.writes_of(truth)
    ]


def truth_json(seed, truth):
    """The truth document as one ``json.dumps`` of the whole log, plus a newline."""
    document = {
        "seed": seed,
        "instances": [
            {"index": i.index, "action": i.action, "tau": i.tau, "variant": i.variant}
            for i in truth.instances
        ],
        "writes": write_records(truth),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def test_simulate_truth_json_equals_one_dumps_of_the_whole_log(capsys, tmp_path):
    scenario = FIXTURES / "scenario_basic.scn"
    assert run(capsys, "simulate", str(scenario), "--seed", "5", "--out", str(tmp_path))[0] == 0

    parsed = parse_scenario(scenario.read_text())
    _, truth = simulate({}, parsed.specs, parsed.schedule, 5)
    assert len(reference_simulator.writes_of(truth)) > 4
    assert (tmp_path / "truth.json").read_text(encoding="utf-8") == truth_json(5, truth)


def test_simulate_truth_json_keeps_a_percent_sign_in_a_path(capsys, tmp_path):
    # Each target's truth template holds its quoted path; a % there must not format.
    scenario = tmp_path / "percent.scn"
    scenario.write_text(
        "action: percent\n"
        "threshold: 30\n"
        "ma modified /obj/100% %d %%\n"
        "ma accessed /obj/%d\n"
        "da created 1200000000 /obj/%%\n"
        "---\n"
        "schedule:\n"
        "1300000000 percent 0\n"
        "1300000100 percent 0\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert run(capsys, "simulate", str(scenario), "--seed", "3", "--out", str(out_dir))[0] == 0

    parsed = parse_scenario(scenario.read_text(encoding="utf-8"))
    _, truth = simulate({}, parsed.specs, parsed.schedule, 3)
    assert {w.path for w in reference_simulator.writes_of(truth)} == {"/obj/100% %d %%", "/obj/%d", "/obj/%%"}
    assert (out_dir / "truth.json").read_text(encoding="utf-8") == truth_json(3, truth)


# Characters a JSON string must escape, or that encoders are known to treat
# differently: quote, backslash, controls, DEL, the JS line separator, an
# astral character and both halves of a surrogate pair, alone; and %, which
# a truth template must not read as a format.
_AWKWARD = ('"', "\\", "%", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\U0001F600", "\ud800", "\udfff")
_truth_text = st.text(st.one_of(st.characters(), st.sampled_from(_AWKWARD)), max_size=8)


@st.composite
def path_variants(draw, paths):
    """A variant over ``paths``; either of its two target sets may be empty."""
    targets = st.tuples(st.sampled_from(paths), st.sampled_from(TimestampKind))
    updates = draw(st.frozensets(targets, max_size=4))
    defaults = draw(st.dictionaries(targets, st.integers(1, MAX_TIME), max_size=3))
    return PathVariant(
        updates,
        frozenset((p, k, v) for (p, k), v in defaults.items() if (p, k) not in updates),
    )


@st.composite
def ground_truths(draw):
    instances = draw(st.lists(st.builds(
        TruthInstance, st.integers(0, 10**6), _truth_text,
        st.integers(1, MAX_TIME), st.integers(0, 3),
    ), max_size=3))
    paths = draw(st.lists(_truth_text, min_size=1, max_size=4))  # repeats reuse a quote
    orders = [v.order for v in draw(st.lists(path_variants(paths), min_size=1, max_size=3))]
    written = []
    for _ in instances:
        order = draw(st.sampled_from(orders))  # instances of one variant share its order
        values = st.lists(st.integers(0, MAX_TIME), min_size=len(order[0]), max_size=len(order[0]))
        written.append((order, tuple(draw(values))))
    return GroundTruth(tuple(instances), tuple(written))


@settings(max_examples=300)
@given(ground_truths(), st.integers())
def test_write_truth_equals_one_dumps_of_the_document(truth, seed):
    out = io.StringIO()
    write_truth(out, seed, truth)
    assert out.getvalue() == truth_json(seed, truth)


class RecordingFile:
    """A text file that keeps the text of each ``write`` call."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)


def test_write_truth_writes_each_instance_as_soon_as_it_is_formatted():
    parsed = parse_scenario((FIXTURES / "scenario_basic.scn").read_text())
    _, truth = simulate({}, parsed.specs, parsed.schedule, 5)
    out = RecordingFile()
    write_truth(out, 5, truth)
    assert "".join(out.calls) == truth_json(5, truth)

    by_instance = {}
    for record in write_records(truth):
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        by_instance.setdefault(record["instance"], []).append(text)
    assert len(by_instance) > 2
    longest = max(len(",".join(texts)) for texts in by_instance.values())
    writes = out.calls[out.calls.index(',"writes":[') + 1:-1]
    assert all(len(text) <= longest + 1 for text in writes)
    assert len(writes) == len(by_instance)


def test_write_truth_puts_no_comma_for_an_instance_that_writes_nothing():
    writes = PathVariant(updates=frozenset({("/a", MOD)}), defaults=frozenset({("/b", MOD, 7)}))
    silent = PathVariant()
    truth = GroundTruth(
        tuple(TruthInstance(i, "app", 100 * (i + 1), v) for i, v in enumerate((1, 0, 1, 0))),
        ((silent.order, ()), (writes.order, (105,)), (silent.order, ()), (writes.order, (409,))),
    )
    out = io.StringIO()
    write_truth(out, 3, truth)
    assert out.getvalue() == truth_json(3, truth)
    assert ",," not in out.getvalue() and "[," not in out.getvalue()


@st.composite
def simulations(draw):
    """Specs over awkward paths, an initial map, and a schedule of fixed and '?' picks."""
    paths = ["/" + path for path in draw(st.lists(_truth_text, min_size=1, max_size=4))]
    specs = {}
    for a in range(draw(st.integers(1, 3))):
        variants = tuple(draw(st.lists(path_variants(paths), min_size=1, max_size=3)))
        threshold = draw(st.one_of(st.integers(1, 300), st.integers(1, 2**40)))
        specs[f"A{a}"] = ActionSpec(f"A{a}", threshold, variants)
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(sorted(specs)))
        variant = st.integers(0, len(specs[name].variants) - 1)
        entries.append(ScheduleEntry(
            name, draw(st.integers(1, 3000)), draw(st.one_of(st.none(), variant))
        ))
    initial = draw(st.dictionaries(
        st.sampled_from(paths),
        st.dictionaries(st.sampled_from(TimestampKind), st.integers(1, MAX_TIME), max_size=2),
        max_size=2,
    ))
    return initial, specs, InstanceSchedule.of(entries)


def approximations(names):
    """Reported instances of the given actions or of one that never ran."""
    return st.lists(st.builds(
        lambda action, start, width, rank: ActionInstanceApproximation(
            action, TimeInterval(start, start + width),
            (TraceState("/e", MOD, start + width),), rank, ConfidenceNote.DEFINITE,
        ),
        st.sampled_from([*names, "ghost"]), st.integers(0, 3000), st.integers(0, 300),
        st.sampled_from(InstanceRank),
    ), max_size=4)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(simulations(), st.integers(0, 3), st.data())
def test_simulate_check_equals_the_per_write_reference(simulation, seed, data):
    initial, specs, schedule = simulation
    records, truth = simulate(initial, specs, schedule, seed)
    expected_records, expected = reference_simulator.simulate(initial, specs, schedule, seed)
    assert records == expected_records
    assert truth.instances == expected.instances
    assert reference_simulator.writes_of(truth) == expected.writes

    out, expected_out = io.StringIO(), io.StringIO()
    write_truth(out, seed, truth)
    with mock.patch.object(reference_simulator, "TRUTH_SLICE", 2):  # the reference in slices
        reference_simulator.write_truth(expected_out, seed, expected)
    assert out.getvalue() == expected_out.getvalue()

    results = reconstruct(records, derive_signatures(specs))
    fabricated = data.draw(approximations(sorted(specs)))
    always = {name: always_updated_targets(spec) for name, spec in specs.items()}
    for reported in (results, fabricated):
        for targets in (core_targets(specs), always):
            assert oracle_check(truth, reported, targets) == reference_simulator.oracle_check(
                expected, reported, targets
            )


SIMULATE_GOLDENS = FIXTURES / "simulate"


@pytest.mark.parametrize("golden, scenario, seed", [
    ("scenario_basic-seed5", FIXTURES / "scenario_basic.scn", 5),
    ("picks-seed1", SIMULATE_GOLDENS / "picks.scn", 1),  # da, legacy oa, '?' picks, two variants
])
def test_simulate_check_reproduces_its_golden_bytes(capsys, tmp_path, golden, scenario, seed):
    code, out, err = run(
        capsys, "simulate", str(scenario), "--seed", str(seed), "--out", str(tmp_path), "--check"
    )
    assert (code, err) == (0, "")
    expected = SIMULATE_GOLDENS / golden
    assert out.encode("utf-8") == (expected / "check.out").read_bytes()
    for name in ("metadata.body", "truth.json"):
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name


def _trio_pack_and_body(directory):
    """A pack of four actions with shared groups of three and of two candidates,
    and a bodyfile in which every group is hit; returns their paths."""
    blocks, lines = [], []
    for a, name in enumerate("ABCD"):
        blocks.append(
            f"action: {name}\nthreshold: 30\n"
            f"core modified .*/{name}/state/core[0-9]+\\.dat\n"
            f"support created .*/{name}/cache/c[0-9]+\\.tmp\n"
            + "shared modified .*/Shared/trio/mru[0-9]+\\.dat\n" * (name != "D")
            + "shared accessed .*/Shared/pair/mru[0-9]+\\.dat\n" * (name in "CD")
        )
        for run in range(3):  # the last run leaves the core file, each run a cache file
            t = 1_000_000 + 10_000 * run + 1000 * a
            lines.append(f"0|C:/{name}/cache/c{run}.tmp|1|r|0|0|1|0|0|0|{t - 5}")
        lines.append(f"0|C:/{name}/state/core0.dat|1|r|0|0|1|0|{t}|0|0")
    # The trio's writes: one that rules out no candidate, and one past the
    # last runs of A and B but not of C.  The pair's: past C's but not D's.
    for j, t in enumerate((1_005_500, 1_021_500)):
        lines.append(f"0|C:/Shared/trio/mru{j}.dat|1|r|0|0|1|0|{t}|0|0")
    lines.append("0|C:/Shared/pair/mru0.dat|1|r|0|0|1|1022500|0|0|0")
    pack, body = directory / "trio.sig", directory / "trio.body"
    pack.write_text("---\n".join(blocks))
    body.write_text("\n".join(lines) + "\n")
    return str(pack), str(body)


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_outputs_do_not_depend_on_the_hash_seed(capsys, tmp_path, hash_seed):
    # Kinds and categories hash by identity and strings by PYTHONHASHSEED,
    # which also orders the literals the matcher finds in a path; no set or
    # dict order either gives may reach the output.
    golden = SIMULATE_GOLDENS / "picks-seed1"
    out_dir = tmp_path / "sim"
    with open(tmp_path / "check.out", "wb") as fh:
        result = run_with_stdout(
            fh, "simulate", str(SIMULATE_GOLDENS / "picks.scn"), "--seed", "1",
            "--out", str(out_dir), "--check", PYTHONHASHSEED=hash_seed,
        )
    assert (result.returncode, result.stderr) == (0, "")
    assert (tmp_path / "check.out").read_bytes() == (golden / "check.out").read_bytes()
    for name in ("metadata.body", "truth.json"):
        assert (out_dir / name).read_bytes() == (golden / name).read_bytes(), name

    trio_pack, trio_body = _trio_pack_and_body(tmp_path)
    for argv in ([C1], [trio_body, trio_pack]):
        code, expected, _ = run(capsys, "scan", *argv, "--format", "csv")
        assert code == 0
        with open(tmp_path / "scan.csv", "wb") as fh:
            result = run_with_stdout(fh, "scan", *argv, "--format", "csv",
                                     PYTHONHASHSEED=hash_seed)
        assert result.returncode == 0
        assert (tmp_path / "scan.csv").read_bytes() == expected.encode("utf-8")
    assert "trio,C,Past,1021470,1021500,1,shared-ambiguous" in expected  # the group of three


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


def test_simulate_check_asks_no_most_recent_instance_of_shared_evidence(capsys, tmp_path):
    # Both actions always update /a, so it is a shared trace of each and the
    # engine reports no most-recent instance from it.
    scenario = tmp_path / "shared.scn"
    scenario.write_text(
        "action: A\nthreshold: 5\nma modified /a\n---\n"
        "action: B\nthreshold: 5\nma modified /a\n---\n"
        "schedule:\n5 A 0\n"
    )
    code, out, err = run(
        capsys, "simulate", str(scenario), "--out", str(tmp_path / "o"), "--check"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "interval-soundness: PASS",
        "count-bound: PASS",
        "most-recent-coverage: PASS",
        "no-false-positives: PASS",
    ]


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


def test_simulate_check_exits_1_when_an_oracle_property_fails(capsys, tmp_path, monkeypatch):
    real = cli.reconstruct

    def reconstruct(records, pack):
        results = real(records, pack)
        return results + [dataclasses.replace(results[0], action_name="never ran")]

    monkeypatch.setattr(cli, "reconstruct", reconstruct)
    code, out, err = run(
        capsys, "simulate", str(FIXTURES / "scenario_basic.scn"), "--seed", "11",
        "--out", str(tmp_path / "run"), "--check",
    )
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "no-false-positives: FAIL" in lines
    assert "  no-false-positives: never ran: 1 instance(s) reported for an action that never ran" in lines


@pytest.mark.parametrize(
    "argv, names",
    [
        (("simulate", str(FIXTURES / "scenario_basic.scn"), "--seed", "11", "--check"),
         ("parse_scenario", "simulate", "write_truth", "derive_signatures", "core_targets",
          "oracle_check")),
        (("calibrate", str(FIXTURES / "calibration_ie8.txt")), ("estimate_threshold",)),
    ],
)
def test_commands_call_each_late_name_where_cli_binds_it(capsys, tmp_path, monkeypatch, argv,
                                                          names):
    # The benchmark's tracer wraps these names in cli's namespace, as the
    # test above does with reconstruct, so a command must look them up there.
    called = []
    for name in names:
        real = getattr(cli, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
    extra = ("--out", str(tmp_path / "run")) if argv[0] == "simulate" else ()
    code, _, err = run(capsys, *argv, *extra)
    assert (code, err) == (0, "")
    assert sorted(called) == sorted(names)


def test_simulate_onto_an_existing_file_exits_2(capsys, tmp_path):
    out_file = tmp_path / "taken"
    out_file.write_text("")
    code, out, err = run(
        capsys, "simulate", str(FIXTURES / "scenario_basic.scn"), "--out", str(out_file)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write outputs to {out_file}: ")


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


# --- a byte-order mark at the start of a file ------------------------------------

# A UTF-8 byte-order mark, as Windows Notepad writes one at the start of a file.
BOMS = pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])


@BOMS
def test_scan_reads_a_pack_that_starts_with_a_byte_order_mark(capsys, tmp_path, bom):
    pack = tmp_path / "ff3.sig"
    pack.write_bytes(bom + (PACKAGED_SIG_DIR / "ff3.sig").read_bytes())
    assert run(capsys, "scan", C1, str(pack)) == run(capsys, "scan", C1, FF3_SIG)

    pack.write_bytes(bom + b"action: A\nthreshold: 5\ncore modified x\ncore bogus x\n")
    code, _, err = run(capsys, "scan", C1, str(pack))
    assert code == 3
    assert err == f"error: {pack}: unknown timestamp kind 'bogus' (line 4)\n"


@BOMS
def test_calibrate_reads_samples_that_start_with_a_byte_order_mark(capsys, tmp_path, bom):
    samples = tmp_path / "samples.txt"
    samples.write_bytes(bom + b"1\n2\n4\n")
    code, out, _ = run(capsys, "calibrate", str(samples))
    assert code == 0
    assert out.startswith("n: 3\nmean: 2.33333\n")

    samples.write_bytes(bom + b"1\n2\nx\n")
    code, _, err = run(capsys, "calibrate", str(samples))
    assert code == 3
    assert err == "error: line 3: not a duration: 'x'\n"


def test_simulate_reads_a_scenario_that_starts_with_a_byte_order_mark(capsys, tmp_path):
    # Without the mark, test_simulate_check_reproduces_its_golden_bytes runs the same.
    scenario = tmp_path / "bom.scn"
    scenario.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "scenario_basic.scn").read_bytes())
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys, "simulate", str(scenario), "--seed", "5", "--out", str(out_dir), "--check"
    )
    assert (code, err) == (0, "")
    expected = SIMULATE_GOLDENS / "scenario_basic-seed5"
    assert out.encode("utf-8") == (expected / "check.out").read_bytes()
    for name in ("metadata.body", "truth.json"):
        assert (out_dir / name).read_bytes() == (expected / name).read_bytes(), name


# --- action names with a tab or a run of spaces ---------------------------------


@pytest.mark.parametrize("name", ["open  viewer", "open\tviewer"])
def test_simulate_schedules_an_action_name_with_a_tab_or_a_run_of_spaces(
    capsys, tmp_path, name
):
    scenario = tmp_path / "names.scn"
    scenario.write_text(
        f"action: {name}\nthreshold: 5\nma modified /v\nschedule:\n100 {name} 0\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "simulate", str(scenario), "--out", str(tmp_path / "o"))
    assert (code, err) == (0, "")
    truth = json.loads((tmp_path / "o" / "truth.json").read_text(encoding="utf-8"))
    assert [i["action"] for i in truth["instances"]] == [name]


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
