"""Command-line surface: scan, calibrate and simulate subcommands.

The commands read, compute and write; :func:`main` alone maps their errors
to exit codes: 0 success, 2 unreadable input, unwritable output or usage
error, 3 parse failure (signature, scenario or sample data); ``simulate
--check`` exits 1 when an oracle property fails.  All timestamps are UTC;
output ordering never depends on input order or locale.

Importing this module loads only what ``scan`` runs: ``simulate`` and
``calibrate`` import :mod:`tracerecon.simulator` and
:mod:`tracerecon.calibration` when they first run, so a scan loads neither.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from datetime import datetime, timezone
from importlib import import_module
from pathlib import Path

from .blockfile import BlockFileError, content_lines
from .bodyfile import IngestError, open_input, read_bodyfile, read_input, write_bodyfile
from .engine import reconstruct
from .model import (
    DEFAULT_SIGMA_MULTIPLIER,
    ActionInstanceApproximation,
    CalibrationError,
    SimulationError,
    Timestamp,
)
from .signatures import (
    SignatureError,
    SignaturePack,
    merge_packs,
    parse_signature_pack,
    path_prefilter,
)

# The names only ``simulate`` and ``calibrate`` run, by the module that defines
# them.  Each loads on its first lookup here and stays bound as a global of
# this module, so ``scan`` never imports those modules.  The two commands read
# them with ``from .cli import``, which sees whatever is bound here at the
# call: a test's or a tracer's replacement too.
_LATE_NAMES = {
    "core_targets": "simulator",
    "derive_signatures": "simulator",
    "oracle_check": "simulator",
    "parse_scenario": "simulator",
    "simulate": "simulator",
    "write_truth": "simulator",
    "estimate_threshold": "calibration",
}


def __getattr__(name: str):
    if name not in _LATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LATE_NAMES[name]}", __package__), name)
    globals()[name] = value
    return value


SIG_DIR_ENV = "TRACE_RECON_SIG_DIR"

EXIT_OK = 0
EXIT_IO = 2
EXIT_PARSE = 3


_COLUMNS = (
    "computer",
    "action",
    "rank",
    "interval_start",
    "interval_end",
    "evidence_count",
    "note",
)


def _format_time(value: Timestamp, utc_display: bool) -> str:
    if not utc_display:
        return str(value)
    return datetime.fromtimestamp(value, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _row_cells(
    approx: ActionInstanceApproximation, label: str, utc_display: bool
) -> list[str]:
    """The report cells of one detection, in ``_COLUMNS`` order."""
    return [
        label,
        approx.action_name,
        approx.rank.value,
        _format_time(approx.interval.start, utc_display),
        _format_time(approx.interval.end, utc_display),
        str(len(approx.evidence)),
        approx.note.value,
    ]


def _emit_table(rows: list[list[str]], out) -> None:
    grid = [list(_COLUMNS)] + rows
    widths = [max(len(line[i]) for line in grid) for i in range(len(_COLUMNS))]
    for line in grid:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n")


def _emit_csv(rows: list[list[str]], out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_COLUMNS)
    writer.writerows(rows)


def _emit_records(rows: list[list[str]], out) -> None:
    for row in rows:
        for column, cell in zip(_COLUMNS, row):
            out.write(f"{column}: {cell}\n")
        out.write("\n")


_EMITTERS = {"table": _emit_table, "csv": _emit_csv, "records": _emit_records}


def default_signature_dir() -> Path:
    override = os.environ.get(SIG_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data" / "signatures"


def _read_text(source: str | Path, what: str) -> str:
    """A pack, scenario or samples input as strict UTF-8 text (see :func:`read_input`)."""
    data = read_input(source, what)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BlockFileError(None, f"{what} {source} is not UTF-8: {exc}") from exc


def _load_packs(pack_paths: list[str]) -> SignaturePack:
    paths = [Path(p) for p in pack_paths]
    if not paths:
        sig_dir = default_signature_dir()
        paths = sorted(sig_dir.glob("*.sig"))
        if not paths:
            raise IngestError(f"no *.sig files found in {sig_dir}")
    packs = []
    for path in paths:
        text = _read_text(path, "signature pack")
        try:
            packs.append(parse_signature_pack(text))
        except SignatureError as exc:
            raise SignatureError(exc.line_no, f"{path}: {exc.message}") from exc
    return merge_packs(packs)


def cmd_scan(args: argparse.Namespace) -> int:
    # The bodyfile opens before the packs load, so an unreadable one exits 2
    # ahead of a bad pack; its records then stream straight into the matcher,
    # built only for the lines where the packs' prefilter hits.
    with open_input(args.metadata, "metadata") as stream:
        pack = _load_packs(args.signatures)
        records = read_bodyfile(stream, args.metadata, path_prefilter(pack))
        approximations = reconstruct(records, pack)
    label = args.label or Path(args.metadata).stem  # "-" for stdin
    # A byte that is not UTF-8, in a file name or an argument, prints as \xNN,
    # which a strict UTF-8 stdout can encode; a valid label stays as it is.
    label = label.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    rows = [_row_cells(a, label, args.utc_display) for a in approximations]
    _EMITTERS[args.format](rows, sys.stdout)
    print(f"{len(rows)} detections", file=sys.stderr)
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .cli import estimate_threshold

    samples: list[float] = []
    for line_no, line in content_lines(_read_text(args.samples, "samples")):
        try:
            samples.append(float(line))
        except ValueError:
            raise CalibrationError(f"line {line_no}: not a duration: {line!r}") from None
    estimate = estimate_threshold(samples, k=args.k)
    print(f"n: {estimate.n}")
    print(f"mean: {estimate.mean:.6g}")
    print(f"sigma: {estimate.sigma:.6g}")
    print(f"k: {estimate.k:.6g}")
    print(f"theta: {estimate.theta}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .cli import (
        core_targets,
        derive_signatures,
        oracle_check,
        parse_scenario,
        simulate,
        write_truth,
    )

    scenario = parse_scenario(_read_text(Path(args.scenario), "scenario"))
    records, truth = simulate({}, scenario.specs, scenario.schedule, args.seed)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metadata.body", "w", encoding="utf-8", newline="") as fh:
            write_bodyfile(records, fh)
        with open(out_dir / "truth.json", "w", encoding="utf-8", newline="") as fh:
            write_truth(fh, args.seed, truth)
    except OSError as exc:
        raise IngestError(f"cannot write outputs to {out_dir}: {exc}") from exc

    if args.check:
        pack = derive_signatures(scenario.specs)
        results = reconstruct(records, pack)
        report = oracle_check(truth, results, core_targets(scenario.specs))
        for line in report.summary_lines():
            print(line)
        if not report.ok:
            return 1
    return EXIT_OK


def _positive_float(value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}")
    if not (math.isfinite(parsed) and parsed > 0):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trace-recon",
        description=(
            "Reconstruct past user-action instances from file-system "
            "timestamp metadata using trace signatures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser(
        "scan", help="reconstruct a timeline from a bodyfile and signature packs"
    )
    scan.add_argument("metadata", help="bodyfile path, or - for stdin")
    scan.add_argument(
        "signatures",
        nargs="*",
        help=f"signature pack files (default: all *.sig in ${SIG_DIR_ENV} "
        "or the packaged signature directory)",
    )
    scan.add_argument(
        "--format", choices=sorted(_EMITTERS), default="table", help="output format"
    )
    scan.add_argument(
        "--utc-display",
        action="store_true",
        help="render timestamps as ISO-8601 UTC instead of epoch seconds",
    )
    scan.add_argument("--label", help="computer label for the report (default: file stem)")
    scan.set_defaults(func=cmd_scan)

    calibrate = sub.add_parser(
        "calibrate", help="estimate an update threshold from duration samples"
    )
    calibrate.add_argument(
        "samples",
        nargs="?",
        default="-",
        help="file with one duration (seconds) per line, or - for stdin",
    )
    calibrate.add_argument(
        "--k",
        type=_positive_float,
        default=DEFAULT_SIGMA_MULTIPLIER,
        help="sigma multiplier for the cutoff (default 2)",
    )
    calibrate.set_defaults(func=cmd_calibrate)

    sim = sub.add_parser(
        "simulate", help="run a scenario file and export metadata plus ground truth"
    )
    sim.add_argument("scenario", help="scenario file path")
    sim.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument(
        "--check",
        action="store_true",
        help="reconstruct from the simulated records (what metadata.body reads back as) "
        "and verify the result against the ground truth",
    )
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # buffered output may meet a closed pipe or full disk only here
        return code
    except OSError as exc:
        # Commands wrap every other OSError, so this one came from writing
        # stdout (a closed pipe, a full disk); point stdout at devnull so the
        # flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return EXIT_IO
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BlockFileError, CalibrationError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
