"""tracerecon benchmark: seeded workloads, closed-loop timing, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One process, one caller: each operation (one
``trace-recon scan`` or one ``trace-recon simulate --check``, driven through
``tracerecon.cli.main`` in-process) starts only after the previous one has
returned.  The first operation warms caches and is checked but not timed;
operations then repeat until ``--seconds`` have passed.  Times are reported
scaled to a fixed host speed, measured with a reference kernel run before and
after each operation (see ``reference.py``); the raw wall times are printed
in the report.

Every operation is checked: a non-zero exit, an exception, output that
differs from the first operation's, or output the ground-truth oracle
rejects counts as a failure.  With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` untraced and
traced operations alternate and it carries the per-layer metrics, and the
spans are written to ``.bench_out/``.  Earlier lines are a readable report,
including the known-defect probes.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("scan-browser-sparse", "scan-shared-dense", "simulate-check-wide")
SETUP_SAMPLES = 15
MIN_TIMED_OPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("run_p50_s", "s"),
    ("lines_per_s", "lines/s"),
    ("instances_per_s", "instances/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import tracerecon from this checkout's src/, never from elsewhere."""
    package = SRC / "tracerecon" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: program sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import tracerecon
    import tracerecon.cli

    if Path(tracerecon.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported tracerecon from {tracerecon.__file__}, not {SRC}")
    return tracerecon


@dataclass
class Outcome:
    wall: float
    code: object
    error: str | None
    stdout: str
    digest: str


def run_operation(cli, argv: list[str], out_dir: Path | None) -> Outcome:
    """One call of ``cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the operation boundary: a crash is a counted failure
        code, error = 1, traceback.format_exc()
    wall = perf_counter() - start
    digest = hashlib.sha256(out.getvalue().encode("utf-8"))
    if out_dir is not None:
        for name in ("metadata.body", "truth.json"):
            path = out_dir / name
            digest.update(path.read_bytes() if path.is_file() else b"<missing>")
    return Outcome(wall, code, error, out.getvalue(), digest.hexdigest())


class Checker:
    """Judges each operation against the first successful one, and that one
    against the ground truth.

    ``record`` only compares digests, so it is cheap and allocates little.
    ``finish`` runs the oracle once, on a kept copy of the reference output,
    after the timed loop and after peak memory has been read.  If the oracle
    rejects that output, every operation that produced it fails.
    """

    def __init__(self, workload, keep_dir: Path):
        self.workload = workload
        self.keep_dir = keep_dir
        self.reference: str | None = None
        self.reference_stdout = ""
        self.matching = 0
        self.failures: list[str] = []

    def record(self, outcome: Outcome) -> None:
        if outcome.error is not None:
            self.failures.append(outcome.error)
        elif outcome.code != 0:
            self.failures.append(f"exit code {outcome.code}")
        elif self.reference is None:
            self.reference, self.reference_stdout = outcome.digest, outcome.stdout
            if self.workload.out_dir is not None:
                shutil.copytree(self.workload.out_dir, self.keep_dir)
            self.matching += 1
        elif outcome.digest == self.reference:
            self.matching += 1
        else:
            self.failures.append("output differs from the first operation on the same input")

    def finish(self) -> None:
        if self.reference is None:
            return
        truth, core_targets = self.workload.load_truth()
        if self.workload.out_dir is None:
            verdict = self._oracle_scan(self.reference_stdout, truth, core_targets)
        else:
            verdict = self._oracle_simulate(self.reference_stdout, truth)
        if verdict is not None:
            self.failures.extend([verdict] * self.matching)

    def _oracle_scan(self, stdout: str, truth, core_targets) -> str | None:
        """Rebuild the reported approximations from the CSV report and run
        ``oracle_check`` against the generator's truth and core targets."""
        from tracerecon.model import (ActionInstanceApproximation, ConfidenceNote,
                                      InstanceRank, TimeInterval, TimestampKind,
                                      TraceState)
        from tracerecon.simulator import oracle_check

        rows = list(csv.DictReader(io.StringIO(stdout)))
        if not rows:
            return "scan reported no detections"
        approximations = []
        for row in rows:
            end = int(row["interval_end"])
            evidence = (TraceState("-", TimestampKind.MODIFIED, end),) * int(row["evidence_count"])
            approximations.append(ActionInstanceApproximation(
                row["action"], TimeInterval(int(row["interval_start"]), end), evidence,
                InstanceRank(row["rank"]), ConfidenceNote(row["note"])))
        report = oracle_check(truth, approximations, core_targets)
        return None if report.ok else "; ".join(report.summary_lines())

    def _oracle_simulate(self, stdout: str, truth) -> str | None:
        """The program's own --check must pass, truth.json must list the
        scheduled instances, and metadata.body must hold, for every path and
        kind, the last value truth.json says was written there."""
        from tracerecon.simulator import ORACLE_PROPERTIES

        expected = [f"{prop}: PASS" for prop in ORACLE_PROPERTIES]
        if stdout.splitlines() != expected:
            return f"simulate --check reported: {stdout!r}"
        out_dir = self.keep_dir
        logged = json.loads((out_dir / "truth.json").read_text(encoding="utf-8"))
        scheduled = [
            {"index": i.index, "action": i.action, "tau": i.tau, "variant": i.variant}
            for i in truth.instances
        ]
        if logged["instances"] != scheduled:
            return "truth.json instances differ from the generated schedule"
        last: dict[str, dict[str, int]] = {}
        for write in logged["writes"]:
            last.setdefault(write["path"], {})[write["kind"]] = write["value"]
        exported: dict[str, dict[str, int]] = {}
        kinds = ("accessed", "modified", "metachanged", "created")
        for line in (out_dir / "metadata.body").read_text(encoding="utf-8").splitlines():
            fields = line.split("|")
            exported[fields[1]] = {k: int(v) for k, v in zip(kinds, fields[7:11]) if v != "0"}
        if exported != {path: times for path, times in last.items() if times}:
            return "metadata.body disagrees with the writes in truth.json"
        return None


def generate(name: str, seed: int, directory: Path):
    """Write one workload's inputs in a child process and return its Workload.

    The generator runs the simulator and holds the ground truth; running it
    in a child keeps that memory out of ``peak_rss_mb``.  The truth is read
    back only by the oracle, after peak memory has been taken.
    """
    import workloads

    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, str(BENCH / "workloads.py"), name, str(seed), str(directory)],
                   env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    return workloads.Workload.from_json((directory / "workload.json").read_text(encoding="utf-8"))


def setup_sample(workload) -> tuple[float, float]:
    """One set-up time, measured in a fresh interpreter, and the reference
    kernel's time measured right after it in the same interpreter."""
    command = [sys.executable, str(BENCH / "setup_probe.py"), workload.argv[0], str(SRC),
               *map(str, workload.setup_files)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    elapsed, kernel = done.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(kernel)


def normalised(pairs: list[tuple[float, float]]) -> float:
    """Median of (wall time, kernel time) pairs, scaled to the kernel's
    nominal speed."""
    return statistics.median(wall * reference.NOMINAL_S / kernel for wall, kernel in pairs)


def run_probes(cli, probes: dict[str, list[str]]) -> list[str]:
    """Run each known-defect input once; report only, gates nothing."""
    lines = []
    for name, argv in probes.items():
        outcome = run_operation(cli, argv, None)
        crashed = outcome.error is not None
        detail = outcome.error.strip().splitlines()[-1] if crashed else "no traceback"
        lines.append(f"probe {name}: exit={outcome.code} traceback={'yes' if crashed else 'no'}"
                     f" ({detail})")
    return lines


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    program = import_program()
    import tracing
    import workloads

    cli = program.cli
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        work = Path(tmp)
        workload = generate(args.workload, args.seed, work)
        probes = workloads.write_defect_probes(work)
        checker = Checker(workload, work / "reference-output")
        tracer = tracing.Tracer()

        def step(traced: bool) -> Outcome:
            gc.collect()
            if not traced:
                return run_operation(cli, workload.argv, workload.out_dir)
            tracer.install()
            try:
                return run_operation(cli, workload.argv, workload.out_dir)
            finally:
                tracer.restore()

        warm = step(False)
        checker.record(warm)
        if workload.out_dir is not None:
            metadata = workload.out_dir / "metadata.body"
            workload.lines = metadata.read_bytes().count(b"\n") if metadata.is_file() else 0

        untraced: list[tuple[float, float]] = []  # (wall, mean kernel time around it)
        traced: list[float] = []
        layer_samples: list[dict[str, float]] = []
        span_dumps: list[list[dict]] = []
        # Set-up samples are taken between operations, so that they see the
        # same spread of machine load as the operations; the time they take
        # is not counted against --seconds.
        setup: list[tuple[float, float]] = []
        paused = 0.0
        attempted = 1
        start = perf_counter()
        while (len(untraced) + len(traced) < MIN_TIMED_OPS * (1 + args.trace)
               or perf_counter() - start - paused < args.seconds):
            is_traced = bool(args.trace) and attempted % 2 == 0
            kernel = 0.0 if is_traced else reference.kernel_seconds()
            outcome = step(is_traced)
            if not is_traced:
                kernel = (kernel + reference.kernel_seconds()) / 2
            attempted += 1
            checker.record(outcome)
            if is_traced:
                traced.append(outcome.wall)
                layer_samples.append(tracer.operation_metrics(
                    outcome.wall, workload.lines, len(outcome.stdout.encode("utf-8"))))
                span_dumps.append(tracer.dump())
            else:
                untraced.append((outcome.wall, kernel))
            if not args.trace and len(setup) < SETUP_SAMPLES:
                paused_at = perf_counter()
                setup.append(setup_sample(workload))
                paused += perf_counter() - paused_at
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(workload))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checker.finish()
        probe_lines = run_probes(cli, probes)

    failed = len(checker.failures)
    walls = [wall for wall, _ in untraced]
    kernels = [kernel for _, kernel in untraced]
    report = [
        f"workload {workload.name} seed {args.seed}: {workload.lines} bodyfile lines, "
        f"{workload.instances} schedule instances",
        f"closed loop, 1 caller: {len(untraced)} timed operations"
        + (f" + {len(traced)} traced" if traced else "") + f" after 1 warm-up",
        "timed walls (s): " + " ".join(f"{w:.4f}" for w in walls),
        f"reference kernel around each (s, nominal {reference.NOMINAL_S}): "
        + " ".join(f"{k:.5f}" for k in kernels),
        f"run_p50 wall {statistics.median(walls):.4f} s (not normalised)",
        *(["traced walls (s): " + " ".join(f"{w:.4f}" for w in traced)] if traced else []),
        f"output_sha256 {checker.reference}",
        f"error_rate {fmt(failed / attempted)} ratio ({failed} failed of {attempted} attempted)",
    ]
    report.extend(probe_lines)
    report.extend(f"failure: {reason.strip()}" for reason in checker.failures[:5])

    if args.trace:
        names = [name for name, _, _ in tracing.LAYER_METRICS]
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        values = {name: statistics.median(s[name] for s in layer_samples) for name in names}
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(walls)
        if tracer.absent:
            report.append("absent spans: " + ", ".join(tracer.absent))
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "absent": tracer.absent,
            "operations": span_dumps}), encoding="utf-8")
        report.append(f"spans written to {spans_file.relative_to(ROOT)}")
    else:
        report.append(f"set-up samples: {len(setup)}, spread over the run; median wall "
                      f"{statistics.median(s for s, _ in setup):.5f} s (not normalised)")
        run_p50 = normalised(untraced)
        units = dict(END_TO_END)
        values = {
            "setup_s": normalised(setup),
            "run_p50_s": run_p50,
            "lines_per_s": workload.lines / run_p50,
            "instances_per_s": workload.instances / run_p50,
            "peak_rss_mb": peak_rss_mb,
        }
    report.extend(f"{name} {fmt(value)} {units[name]}" for name, value in values.items())
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
