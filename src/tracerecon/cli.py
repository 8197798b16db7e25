"""Command-line surface: scan, calibrate and simulate subcommands.

The commands read, compute and write; :func:`main` alone maps their errors
to exit codes: 0 success, 2 unreadable input, unwritable output or usage
error, 3 parse failure (signature, scenario or sample data); ``simulate
--check`` exits 1 when an oracle property fails.  All timestamps are UTC;
output ordering never depends on input order or locale.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from .bodyfile import IngestError, open_input, read_bodyfile, read_input, write_bodyfile
from .calibration import DEFAULT_SIGMA_MULTIPLIER, CalibrationError, estimate_threshold
from .engine import reconstruct
from .model import ActionInstanceApproximation, Timestamp
from .signatures import (
    BlockFileError,
    SignatureError,
    SignaturePack,
    _content_lines,
    merge_packs,
    parse_signature_pack,
)
from .simulator import (
    SimulationError,
    always_updated_targets,
    derive_signatures,
    oracle_check,
    parse_scenario,
    simulate,
)

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
    return Path(str(resources.files("tracerecon") / "data" / "signatures"))


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
    # ahead of a bad pack; its records then stream straight into the matcher.
    with open_input(args.metadata, "metadata") as stream:
        pack = _load_packs(args.signatures)
        approximations = reconstruct(read_bodyfile(stream, args.metadata), pack)
    label = args.label or Path(args.metadata).stem  # "-" for stdin
    rows = [_row_cells(a, label, args.utc_display) for a in approximations]
    _EMITTERS[args.format](rows, sys.stdout)
    print(f"{len(rows)} detections", file=sys.stderr)
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    samples: list[float] = []
    for line_no, line in _content_lines(_read_text(args.samples, "samples")):
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


_JSON_SEPARATORS = (",", ":")
_TRUTH_SLICE = 4096


def _write_truth(fh, seed: int, truth) -> None:
    """Write the ground truth as compact JSON with sorted keys, plus a newline.

    The bytes equal one ``json.dumps`` of the whole document, but the writes
    are converted and encoded a slice at a time: each slice goes through the
    C encoder (``json.dump`` streams through the pure-Python one), and the
    document is never held whole in memory.  ``"writes"`` is the last key
    in sorted order, so the head closes over it.
    """
    head = {
        "seed": seed,
        "instances": [
            {"index": i.index, "action": i.action, "tau": i.tau, "variant": i.variant}
            for i in truth.instances
        ],
    }
    fh.write(json.dumps(head, sort_keys=True, separators=_JSON_SEPARATORS)[:-1])
    fh.write(',"writes":[')
    for start in range(0, len(truth.writes), _TRUTH_SLICE):
        chunk = [
            {
                "instance": w.instance_index,
                "path": w.path,
                "kind": w.kind.value,
                "value": w.value,
                "default": w.is_default,
            }
            for w in truth.writes[start:start + _TRUTH_SLICE]
        ]
        if start:
            fh.write(",")
        fh.write(json.dumps(chunk, sort_keys=True, separators=_JSON_SEPARATORS)[1:-1])
    fh.write("]}\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = parse_scenario(_read_text(Path(args.scenario), "scenario"))
    records, truth = simulate({}, scenario.specs, scenario.schedule, args.seed)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metadata.body", "w", encoding="utf-8", newline="") as fh:
            write_bodyfile(records, fh)
        with open(out_dir / "truth.json", "w", encoding="utf-8", newline="") as fh:
            _write_truth(fh, args.seed, truth)
    except OSError as exc:
        raise IngestError(f"cannot write outputs to {out_dir}: {exc}") from exc

    if args.check:
        pack = derive_signatures(scenario.specs)
        results = reconstruct(records, pack)
        core_targets = {
            name: always_updated_targets(spec)
            for name, spec in scenario.specs.items()
        }
        report = oracle_check(truth, results, core_targets)
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
        help="reconstruct from the exported metadata and verify it against the ground truth",
    )
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BlockFileError, CalibrationError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
