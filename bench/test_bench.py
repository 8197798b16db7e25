"""Tests for the benchmark itself:  python3 -m pytest -q bench"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracerecon import cli  # noqa: E402
from tracerecon.bodyfile import parse_bodyfile  # noqa: E402
from tracerecon.signatures import merge_packs, parse_signature_pack  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture
def small(monkeypatch):
    """Shrink the workloads so a whole benchmark run takes a few seconds."""
    monkeypatch.setattr(workloads, "SPARSE_LINES", 2000)
    monkeypatch.setattr(workloads, "DENSE_INSTANCES", 120)
    monkeypatch.setattr(workloads, "DENSE_NOISE_LINES", 60)
    monkeypatch.setattr(workloads, "WIDE_INSTANCES", 150)
    monkeypatch.setattr(workloads, "WIDE_PATHS_PER_ACTION", 20)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    # run.main generates in a child process, which would not see these patches.
    monkeypatch.setattr(run, "generate", workloads.build)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(small, tmp_path, name):
    def files(seed, sub):
        directory = tmp_path / sub
        directory.mkdir()
        workloads.build(name, seed, directory)
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    first = files(5, "a")
    assert first == files(5, "b")
    assert first != files(6, "c")


def test_child_process_generation_matches_in_process_generation(tmp_path):
    (tmp_path / "child").mkdir()
    (tmp_path / "here").mkdir()
    child = run.generate("scan-shared-dense", 2, tmp_path / "child")
    here = workloads.build("scan-shared-dense", 2, tmp_path / "here")
    for path in (tmp_path / "here").iterdir():
        if path.name != "truth.pickle":
            assert path.read_bytes() == (tmp_path / "child" / path.name).read_bytes()
    assert child.load_truth() == here.load_truth()
    moved = [arg.replace(str(tmp_path / "here"), str(tmp_path / "child")) for arg in here.argv]
    assert (child.argv, child.lines, child.instances) == (moved, here.lines, here.instances)


def _packaged_pack():
    return merge_packs(parse_signature_pack(p.read_text(encoding="utf-8"))
                       for p in workloads.packaged_packs())


def _noise_records(count, seed=3):
    text = "\n".join(workloads.noise_lines(random.Random(seed), count)) + "\n"
    records, diagnostics = parse_bodyfile(text)
    assert diagnostics, "the noise mix must include lines the parser skips"
    return records


def test_noise_never_matches_the_packaged_packs():
    patterns = [t for sig in _packaged_pack() for t in sig.traces]
    records = _noise_records(20000)
    assert any("/Prefetch/" in r.path for r in records), "near misses are part of the mix"
    assert not [r.path for r in records for p in patterns if p.matches(r.path)]


def test_noise_never_matches_the_generated_pack():
    _, text = workloads.dense_specs_and_pack(random.Random(1))
    patterns = [t for sig in parse_signature_pack(text) for t in sig.traces]
    records = _noise_records(2000)
    assert not [r.path for r in records for p in patterns if p.matches(r.path)]


def test_scan_corpus_carries_the_diagnostic_mix(tmp_path):
    workload = workloads.build("scan-browser-sparse", 2, tmp_path)
    text = Path(workload.argv[1]).read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == workload.lines
    assert any(line.startswith("#") for line in lines)
    assert "" in lines
    assert any("(deleted)" in line for line in lines)
    assert any("\\" in line for line in lines)
    assert any(line.endswith("|0|0|0|0") for line in lines)
    _, diagnostics = parse_bodyfile(text)
    messages = " ".join(d.message for d in diagnostics)
    for reason in ("expected 11 fields", "must be integers", "is not an integer",
                   "no usable timestamps", "is negative"):
        assert reason in messages


def test_oracle_rejects_a_wrong_scan_report(small, tmp_path):
    workload = workloads.build("scan-shared-dense", 4, tmp_path)
    outcome = run.run_operation(cli, workload.argv, None)
    header, first, *rest = outcome.stdout.splitlines()
    cells = first.split(",")
    cells[3:5] = ["1000", "2000"]  # an interval no true instance lies in
    wrong = "\n".join([header, ",".join(cells), *rest]) + "\n"
    checker = run.Checker(workload, tmp_path / "kept")
    checker.record(outcome)
    checker.record(run.Outcome(1.0, 0, None, wrong, "other digest"))
    checker.finish()
    assert checker.failures == ["output differs from the first operation on the same input"]

    checker = run.Checker(workload, tmp_path / "kept")
    checker.record(run.Outcome(1.0, 0, None, wrong, "digest"))
    checker.record(run.Outcome(1.0, 0, None, wrong, "digest"))
    checker.finish()
    assert len(checker.failures) == 2 and "interval-soundness: FAIL" in checker.failures[0]


def test_oracle_rejects_metadata_that_disagrees_with_the_truth_log(small, tmp_path):
    workload = workloads.build("simulate-check-wide", 4, tmp_path)
    outcome = run.run_operation(cli, workload.argv, workload.out_dir)
    checker = run.Checker(workload, tmp_path / "kept")
    checker.record(outcome)
    body = tmp_path / "kept" / "metadata.body"
    fields = body.read_text(encoding="utf-8").split("|")
    fields[8] = str(int(fields[8]) + 1)  # first record's mtime
    body.write_text("|".join(fields), encoding="utf-8")
    checker.finish()
    assert checker.failures == ["metadata.body disagrees with the writes in truth.json"]


def _originals():
    found = {}
    for module, attr, _ in tracing.SPAN_POINTS:
        found[(module, attr)] = getattr(sys.modules[module], attr)
    found["matches"] = sys.modules["tracerecon.signatures"].TracePattern.matches
    return found


def test_traced_operation_restores_wrappers_and_partitions_wall_time(small, tmp_path):
    workload = workloads.build("scan-shared-dense", 4, tmp_path)
    before = _originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.reconstruct is not before[("tracerecon.cli", "reconstruct")]
        outcome = run.run_operation(cli, workload.argv, None)
    finally:
        tracer.restore()
    after = _originals()
    assert all(after[key] is value for key, value in before.items())
    assert outcome.code == 0 and tracer.absent == []

    metrics = tracer.operation_metrics(outcome.wall, workload.lines, len(outcome.stdout))
    self_total = sum(tracer.self_times().values())
    root_wall = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    assert self_total == pytest.approx(root_wall, rel=1e-9)
    assert 0.9 < metrics["trace.self_sum_ratio"] <= 1.0
    assert metrics["signatures.match_calls"] > 0
    assert metrics["signatures.regex_searches"] >= metrics["signatures.states"] > 0
    assert metrics["engine.detections"] == len(outcome.stdout.splitlines()) - 1


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(sys.modules["tracerecon.engine"], "get_trace_states")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["tracerecon.engine.get_trace_states"]


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_exactly_the_metrics_the_runner_prints():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])


@pytest.mark.parametrize("name,trace", [
    ("scan-shared-dense", 0), ("scan-shared-dense", 1), ("simulate-check-wide", 1),
])
def test_run_prints_every_metric_with_a_valid_name(small, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    spec = _benchmark_json()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for metric_name, metric in result["metrics"].items():
        assert NAME.fullmatch(metric_name)
        assert any(line.startswith(f"{metric_name} ") for line in lines[:-1])
    assert any(line.startswith("probe non_utf8_name: ") for line in lines)
    assert any(line.startswith("error_rate 0 ") for line in lines)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-shared-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
