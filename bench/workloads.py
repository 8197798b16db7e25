"""Seeded input generators for the three benchmark workloads.

Each generator writes its inputs into a directory and returns a
:class:`Workload`: the ``trace-recon`` arguments that run one operation, the
ground truth behind the inputs, and the sizes the throughput metrics divide
by.  The same seed always gives byte-identical files.

Scan corpora are Windows XP style Sleuth Kit bodyfiles.  Their trace lines
come from the program's forward simulator run on action specs whose concrete
paths match the signature patterns; everything else is noise built from a
directory vocabulary that, by construction, cannot match any pattern: no
noise path has a ``Prefetch/FIREFOX.EXE-``, ``Prefetch/IEXPLORE.EXE-``,
``/Firefox/``, ``/Cookies/``, ``/App<nn>/`` or ``/Shared/`` component.  The
corpora also carry the malformed lines the parser turns into diagnostics.
The two inputs that crash the parser today (a non-UTF-8 name and a time
above the ``time_t`` range) are left out; see :func:`write_defect_probes`.

    python3 bench/workloads.py NAME SEED DIR

writes one workload's inputs into DIR, its ground truth to ``truth.pickle``
and the :class:`Workload` to ``workload.json``.  The benchmark runs this in a
child process, so that the generator's memory stays out of its own peak.
"""

from __future__ import annotations

import json
import pickle
import random
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracerecon
from tracerecon.simulator import (
    ActionSpec,
    GroundTruth,
    InstanceSchedule,
    PathVariant,
    ScheduleEntry,
    TruthInstance,
    always_updated_targets,
    simulate,
)
from tracerecon.model import TimestampKind

MOD = TimestampKind.MODIFIED
CRE = TimestampKind.CREATED
ACC = TimestampKind.ACCESSED
META = TimestampKind.METACHANGED

# 2009-01-01 .. 2012-01-01 UTC: the span noise timestamps are drawn from.
EPOCH_LO = 1230768000
EPOCH_HI = 1325376000
# Instances are scheduled inside 2010 so their traces land in the same span.
SCHEDULE_START = 1262304000

SPARSE_LINES = 30000
SPARSE_FF3_RUNS = 40
SPARSE_IE8_RUNS = 30

DENSE_ACTIONS = 48
DENSE_INSTANCES = 720
DENSE_NOISE_LINES = 400

WIDE_ACTIONS = 24
WIDE_PATHS_PER_ACTION = 84
WIDE_INSTANCES = 1200

WORKLOADS = ("scan-browser-sparse", "scan-shared-dense", "simulate-check-wide")


@dataclass
class Workload:
    """Generated inputs for one workload plus what checking them needs."""

    name: str
    argv: list[str]
    truth_file: Path  # pickled (GroundTruth, core targets); read only by the oracle
    instances: int
    lines: int = 0  # bodyfile lines read (scan) or written (simulate)
    setup_files: list[Path] = field(default_factory=list)  # packs, or the scenario
    out_dir: Path | None = None  # simulate writes its outputs here

    def load_truth(self) -> tuple[GroundTruth, dict[str, frozenset]]:
        return pickle.loads(self.truth_file.read_bytes())

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=str)

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        fields = json.loads(text)
        fields["truth_file"] = Path(fields["truth_file"])
        fields["setup_files"] = [Path(p) for p in fields["setup_files"]]
        fields["out_dir"] = fields["out_dir"] and Path(fields["out_dir"])
        return cls(**fields)


def _save_truth(directory: Path, truth: GroundTruth,
                core_targets: dict[str, frozenset]) -> Path:
    path = directory / "truth.pickle"
    path.write_bytes(pickle.dumps((truth, core_targets)))
    return path


# --- bodyfile text ----------------------------------------------------------


def _inode(rng: random.Random) -> str:
    return f"{rng.randrange(30, 90000)}-128-{rng.choice((1, 3, 4))}"


def body_line(name: str, times: tuple[int, int, int, int], rng: random.Random,
              directory: bool = False) -> str:
    """One well-formed bodyfile line; ``times`` is (atime, mtime, ctime, crtime)."""
    mode = "d/drwxrwxrwx" if directory else "r/rrwxrwxrwx"
    size = 56 if directory else rng.randrange(0, 4_000_000)
    return "0|{}|{}|{}|0|0|{}|{}|{}|{}|{}".format(name, _inode(rng), mode, size, *times)


def _noise_times(rng: random.Random) -> tuple[int, int, int, int]:
    crtime = rng.randrange(EPOCH_LO, EPOCH_HI)
    mtime = rng.randrange(crtime, EPOCH_HI + 1)
    ctime = rng.randrange(mtime, EPOCH_HI + 1)
    atime = rng.randrange(mtime, EPOCH_HI + 1)
    if rng.random() < 0.1:
        crtime = 0  # FAT volumes and some ils entries lack a creation time
    return atime, mtime, ctime, crtime


_NOISE_DIRS = (
    "C:/WINDOWS",
    "C:/WINDOWS/system32",
    "C:/WINDOWS/system32/drivers",
    "C:/WINDOWS/system32/config",
    "C:/WINDOWS/system32/dllcache",
    "C:/WINDOWS/Fonts",
    "C:/WINDOWS/inf",
    "C:/WINDOWS/Help",
    "C:/WINDOWS/Media",
    "C:/WINDOWS/Temp",
    "C:/WINDOWS/WinSxS/x86_Microsoft.VC80.CRT_1fc8b3b9a1e18e3b_8.0.50727.4053",
    "C:/WINDOWS/SoftwareDistribution/Download",
    "C:/Program Files/Common Files/System/ado",
    "C:/Program Files/Windows Media Player",
    "C:/Program Files/Messenger",
    "C:/Program Files/Microsoft Office/OFFICE11",
    "C:/Program Files/Adobe/Reader 9.0/Reader",
    "C:/Documents and Settings/alice/My Documents",
    "C:/Documents and Settings/alice/Desktop",
    "C:/Documents and Settings/alice/Local Settings/Temp",
    "C:/Documents and Settings/alice/Local Settings/History/History.IE5",
    "C:/Documents and Settings/alice/Application Data/Microsoft/Office/Recent",
    "C:/Documents and Settings/alice/Recent",
    "C:/Documents and Settings/All Users/Application Data/Microsoft/Network",
    "C:/System Volume Information/_restore{6F8A9C21-0B3D-4E55-9A1C-2D7E4B0F9A11}/RP12",
)
_NOISE_SUBDIRS = ("cache", "data", "backup", "1033", "en-us", "config", "old", "logs", "x86")
_NOISE_EXTS = (".dll", ".sys", ".exe", ".ini", ".inf", ".log", ".txt", ".dat",
               ".tmp", ".ttf", ".chm", ".doc", ".xml", ".cat", ".mui", ".lnk")
# Prefetch files of other programs: they share the Prefetch directory and the
# .pf suffix with browser traces (so they pass a literal prefilter) but never
# match the FIREFOX.EXE / IEXPLORE.EXE patterns.
_PREFETCH_NEAR_MISSES = ("NOTEPAD.EXE", "EXPLORER.EXE", "WINWORD.EXE", "SVCHOST.EXE",
                         "MSIEXEC.EXE", "WMPLAYER.EXE", "SETUP.EXE", "RUNDLL32.EXE",
                         "ACRORD32.EXE", "DEFRAG.EXE")
_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"


def noise_path(rng: random.Random) -> str:
    """A path that no signature pattern of any workload matches."""
    roll = rng.random()
    if roll < 0.01:
        exe = rng.choice(_PREFETCH_NEAR_MISSES)
        return f"C:/WINDOWS/Prefetch/{exe}-{rng.randrange(16 ** 8):08X}.pf"
    parts = [rng.choice(_NOISE_DIRS)]
    if rng.random() < 0.3:
        parts.append(rng.choice(_NOISE_SUBDIRS))
    stem = "".join(rng.choice(_ALNUM) for _ in range(rng.randint(3, 12)))
    parts.append(stem + rng.choice(_NOISE_EXTS))
    return "/".join(parts)


def _malformed_line(rng: random.Random) -> str:
    """A line the parser reports as a diagnostic and skips."""
    fields = body_line(noise_path(rng), _noise_times(rng), rng).split("|")
    kind = rng.randrange(5)
    if kind == 0:  # wrong field count
        fields = fields[:-1] if rng.random() < 0.5 else fields + ["0"]
    elif kind == 1:  # non-integer UID/GID/size
        fields[rng.choice((4, 5, 6))] = rng.choice(("S-1-5-18", "root", "4k"))
    elif kind == 2:  # non-integer time
        fields[rng.randrange(7, 11)] = rng.choice(("2010-03-04", "12:00", "0x4B8F"))
    elif kind == 3:  # all four times zero: no usable timestamp
        fields[7:11] = ["0", "0", "0", "0"]
    else:  # negative time
        fields[rng.randrange(7, 11)] = str(-rng.randrange(1, 10 ** 6))
    return "|".join(fields)


def noise_lines(rng: random.Random, count: int) -> list[str]:
    """``count`` noise lines with the parser's diagnostic mix folded in."""
    lines = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.004:
            lines.append(_malformed_line(rng))
        elif roll < 0.005:
            lines.append("# " + rng.choice(("fls -r -m C:/", "ils -m", "carved entries follow")))
        elif roll < 0.006:
            lines.append("")
        elif roll < 0.08:
            path = rng.choice(_NOISE_DIRS)
            if rng.random() < 0.5:
                path += "/" + rng.choice(_NOISE_SUBDIRS)
            lines.append(body_line(path, _noise_times(rng), rng, directory=True))
        else:
            path = noise_path(rng)
            if roll < 0.09:
                path += " (deleted)"
            elif roll < 0.10:
                path = path.replace("/", "\\")
            lines.append(body_line(path, _noise_times(rng), rng))
    return lines


def trace_lines(records, rng: random.Random) -> list[str]:
    """Bodyfile lines for simulator records; absent times are written as 0."""
    return [
        body_line(
            r.path,
            (r.accessed or 0, r.modified or 0, r.metachanged or 0, r.created or 0),
            rng,
        )
        for r in records
    ]


def _write_bodyfile(path: Path, noise: list[str], traces: list[str],
                    rng: random.Random) -> int:
    """Scatter trace lines among noise lines; returns the line count."""
    lines = ["# TSK 3.x bodyfile: MD5|name|inode|mode|UID|GID|size|atime|mtime|ctime|crtime"]
    lines.extend(noise)
    for line in traces:
        lines.insert(rng.randint(1, len(lines)), line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def _schedule(rng: random.Random, actions: list[tuple[str, int]], start: int,
              mean_gap: int) -> InstanceSchedule:
    """Entries for (action, variant count) pairs at random, increasing times."""
    tau = start
    entries = []
    for name, variants in actions:
        tau += rng.randint(1, 2 * mean_gap)
        entries.append(ScheduleEntry(name, tau, rng.randrange(variants)))
    return InstanceSchedule.of(entries)


# --- scan-browser-sparse ----------------------------------------------------

USER = "alice"
FF3_PROFILE = (f"C:/Documents and Settings/{USER}/Application Data/Mozilla/Firefox/"
               "Profiles/k3j9x2ab.default")
FF3_PREFETCH = "C:/WINDOWS/Prefetch/FIREFOX.EXE-28641590.pf"
IE8_PREFETCH = "C:/WINDOWS/Prefetch/IEXPLORE.EXE-27122324.pf"
IE8_COOKIES = f"C:/Documents and Settings/{USER}/Cookies"


def browser_specs() -> dict[str, ActionSpec]:
    """FF3 and IE8 actions whose paths match the packaged ff3.sig and ie8.sig.

    Every variant writes the paths the packs call core (so the simulator's
    always-updated set equals the packs' core set); the support paths are
    each left out by at least one variant.
    """
    url = f"{FF3_PROFILE}/urlclassifierkey3.txt"
    journal = f"{FF3_PROFILE}/cookies.sqlite-journal"
    startup = f"{FF3_PROFILE}/startupCache"
    pluginreg = f"{FF3_PROFILE}/pluginreg.dat"
    ff3_core = {(FF3_PREFETCH, MOD), (url, MOD)}
    ff3 = ActionSpec("Open FF3", 50, (
        PathVariant(frozenset(ff3_core | {(journal, CRE)})),
        PathVariant(frozenset(ff3_core | {(FF3_PREFETCH, CRE), (startup, CRE)})),
        PathVariant(frozenset(ff3_core | {(url, CRE), (pluginreg, CRE), (journal, CRE)})),
    ))
    atdmt = f"{IE8_COOKIES}/{USER}@atdmt[2].txt"
    bing = f"{IE8_COOKIES}/{USER}@bing[1].txt"
    live = f"{IE8_COOKIES}/{USER}@live[1].txt"
    ie8_core = {(IE8_PREFETCH, MOD)}
    ie8 = ActionSpec("Open IE8", 61, (
        PathVariant(frozenset(ie8_core | {(atdmt, CRE)})),
        PathVariant(frozenset(ie8_core | {(bing, CRE), (live, CRE)})),
        PathVariant(frozenset(ie8_core | {(IE8_PREFETCH, CRE), (atdmt, CRE), (bing, CRE)})),
    ))
    return {ff3.name: ff3, ie8.name: ie8}


def packaged_packs() -> list[Path]:
    """The packs ``scan`` loads when given none: ff3.sig and ie8.sig."""
    return sorted((Path(tracerecon.__file__).parent / "data" / "signatures").glob("*.sig"))


def scan_browser_sparse(seed: int, directory: Path) -> Workload:
    """A large bodyfile, <1% trace hits, scanned with the two packaged packs."""
    rng = random.Random(f"{seed}:scan-browser-sparse")
    specs = browser_specs()
    runs = [("Open FF3", 3)] * SPARSE_FF3_RUNS + [("Open IE8", 3)] * SPARSE_IE8_RUNS
    rng.shuffle(runs)
    schedule = _schedule(rng, runs, SCHEDULE_START, mean_gap=4 * 86400)
    records, truth = simulate({}, specs, schedule, seed)
    noise = noise_lines(rng, SPARSE_LINES - len(records) - 1)
    body = directory / "xp-browser.body"
    lines = _write_bodyfile(body, noise, trace_lines(records, rng), rng)
    return Workload(
        name="scan-browser-sparse",
        argv=["scan", str(body), *map(str, packaged_packs()), "--format", "csv"],
        truth_file=_save_truth(
            directory, truth, {name: always_updated_targets(s) for name, s in specs.items()}),
        instances=len(schedule.entries),
        lines=lines,
        setup_files=packaged_packs(),
    )


# --- scan-shared-dense ------------------------------------------------------


def _app_dir(index: int) -> str:
    return f"C:/Program Files/App{index:02d}"


def _group_dir(group: int) -> str:
    return f"C:/Documents and Settings/{USER}/Application Data/Shared/grp{group:02d}"


def _shared_groups(rng: random.Random, actions: int) -> list[list[int]]:
    """Candidate sets: eight pairs, four triples and two quads of actions."""
    order = list(range(actions))
    rng.shuffle(order)
    groups, at = [], 0
    for size, count in ((2, 8), (3, 4), (4, 2)):
        for _ in range(count):
            groups.append(sorted(order[at:at + size]))
            at += size
    return groups


def dense_specs_and_pack(rng: random.Random) -> tuple[dict[str, ActionSpec], str]:
    """About fifty actions, each with wildcard core/support patterns over many
    concrete files, plus shared groups of two, three and four candidates."""
    groups = _shared_groups(rng, DENSE_ACTIONS)
    group_files = {g: [f"{_group_dir(g)}/mru{j}.dat" for j in range(rng.randint(3, 6))]
                   for g in range(len(groups))}
    specs: dict[str, ActionSpec] = {}
    blocks = []
    for a in range(DENSE_ACTIONS):
        name = f"Open App{a:02d}"
        threshold = rng.randint(20, 90)
        app = _app_dir(a)
        core = {(f"{app}/state/core{j}.dat", MOD) for j in range(rng.randint(2, 4))}
        support = (
            [(f"{app}/cache/c{j}.tmp", CRE) for j in range(rng.randint(10, 18))]
            + [(f"{app}/logs/run{j}.log", MOD) for j in range(rng.randint(3, 6))]
            + [(f"{app}/data/idx{j}.db", ACC) for j in range(rng.randint(2, 5))]
        )
        mine = [g for g, members in enumerate(groups) if a in members]
        variants = []
        for _ in range(4):
            updates = set(core)
            updates.update(t for t in support if rng.random() < 0.4)
            for g in mine:
                files = group_files[g]
                updates.update((p, MOD) for p in rng.sample(files, rng.randint(1, len(files))))
            variants.append(PathVariant(frozenset(updates)))
        specs[name] = ActionSpec(name, threshold, tuple(variants))
        tag = f"App{a:02d}"
        lines = [
            f"action: {name}",
            f"threshold: {threshold}",
            f"core modified .*/{tag}/state/core[0-9]+\\.dat",
            f"support created .*/{tag}/cache/c[0-9]+\\.tmp",
            f"support modified .*/{tag}/logs/run[0-9]+\\.log",
            f"support accessed .*/{tag}/data/idx[0-9]+\\.db",
        ]
        lines.extend(f"shared modified .*/Shared/grp{g:02d}/mru[0-9]+\\.dat" for g in mine)
        blocks.append("\n".join(lines))
    pack = "# Generated pack: wildcard patterns, shared groups of 2, 3 and 4 candidates.\n"
    return specs, pack + "\n---\n".join(blocks) + "\n"


def scan_shared_dense(seed: int, directory: Path) -> Workload:
    """A smaller bodyfile, mostly trace hits, scanned with a ~50-action pack."""
    rng = random.Random(f"{seed}:scan-shared-dense")
    specs, pack_text = dense_specs_and_pack(rng)
    names = sorted(specs)
    runs = [(rng.choice(names), 4) for _ in range(DENSE_INSTANCES)]
    schedule = _schedule(rng, runs, SCHEDULE_START, mean_gap=3600)
    records, truth = simulate({}, specs, schedule, seed)
    body = directory / "shared-dense.body"
    lines = _write_bodyfile(body, noise_lines(rng, DENSE_NOISE_LINES),
                            trace_lines(records, rng), rng)
    pack = directory / "apps.sig"
    pack.write_text(pack_text, encoding="utf-8")
    return Workload(
        name="scan-shared-dense",
        argv=["scan", str(body), str(pack), "--format", "csv"],
        truth_file=_save_truth(
            directory, truth, {name: always_updated_targets(s) for name, s in specs.items()}),
        instances=len(schedule.entries),
        lines=lines,
        setup_files=[pack],
    )


# --- simulate-check-wide ----------------------------------------------------

_KIND_CYCLE = (MOD, CRE, ACC, META)


def wide_scenario(rng: random.Random) -> tuple[str, list[TruthInstance]]:
    """Scenario text with thousands of target paths and one long schedule.

    Actions are introduced one after another over the first four fifths of
    the schedule, so the simulator's state keeps growing while it runs.
    Returns the text and the instances it schedules.
    """
    names = [f"WApp{a:02d}" for a in range(WIDE_ACTIONS)]
    # Paths written by pairs of neighbouring actions become shared traces.
    shared = {a: [(f"C:/Documents and Settings/{USER}/Application Data/Common/"
                   f"pair{a:02d}/s{j}.dat", MOD) for j in range(4)]
              for a in range(0, WIDE_ACTIONS - 1, 2)}
    blocks, variant_counts = [], []
    for a, name in enumerate(names):
        app = f"C:/Program Files/{name}"
        targets = [(f"{app}/f{j:03d}.dat", _KIND_CYCLE[j % 4])
                   for j in range(WIDE_PATHS_PER_ACTION)]
        core, support = targets[:6], targets[6:]
        pair = shared.get(a - a % 2, [])
        lines = [f"action: {name}", f"threshold: {rng.randint(20, 90)}"]
        count = rng.randint(3, 5)
        for _ in range(count):
            lines.append("variant:")
            chosen = core + [t for t in support + pair if rng.random() < 0.4]
            lines.extend(f"ma {kind.value} {path}" for path, kind in chosen)
            lines.append(f"da created 1000000000 {app}/install.log")
            lines.append(f"oa {app}/tmp")
        blocks.append("\n".join(lines))
        variant_counts.append(count)

    instances, entries = [], []
    tau = SCHEDULE_START
    ramp = WIDE_INSTANCES * 4 // 5
    for index in range(WIDE_INSTANCES):
        eligible = min(WIDE_ACTIONS, 1 + index * WIDE_ACTIONS // ramp)
        a = rng.randrange(eligible)
        variant = rng.randrange(variant_counts[a])
        tau += rng.randint(60, 7200)
        instances.append(TruthInstance(index, names[a], tau, variant))
        entries.append(f"{tau} {names[a]} {variant}")
    text = ("# Generated scenario: many actions, thousands of target paths.\n"
            + "\n---\n".join(blocks) + "\n---\nschedule:\n" + "\n".join(entries) + "\n")
    return text, instances


def simulate_check_wide(seed: int, directory: Path) -> Workload:
    """One long schedule through ``simulate --check``."""
    rng = random.Random(f"{seed}:simulate-check-wide")
    text, instances = wide_scenario(rng)
    scenario = directory / "wide.scn"
    scenario.write_text(text, encoding="utf-8")
    out_dir = directory / "sim-out"
    return Workload(
        name="simulate-check-wide",
        argv=["simulate", str(scenario), "--out", str(out_dir), "--seed", str(seed),
              "--check"],
        # Delay draws happen inside the program, so the truth known up front is
        # the instance list; the writes are checked against the exported files.
        truth_file=_save_truth(directory, GroundTruth(tuple(instances), ()), {}),
        instances=len(instances),
        setup_files=[scenario],
        out_dir=out_dir,
    )


GENERATORS = {
    "scan-browser-sparse": scan_browser_sparse,
    "scan-shared-dense": scan_shared_dense,
    "simulate-check-wide": simulate_check_wide,
}


def build(name: str, seed: int, directory: Path) -> Workload:
    return GENERATORS[name](seed, directory)


# --- known-defect probes ----------------------------------------------------


def write_defect_probes(directory: Path) -> dict[str, list[str]]:
    """Inputs that abort a scan today, with the scan arguments for each.

    A non-UTF-8 byte in a name (TSK writes raw bytes) and a time field above
    the ``time_t`` range.  They are kept out of the timed corpora so that the
    defects stay visible without zeroing every timing.
    """
    good = f"0|{FF3_PREFETCH}|1-128-1|r/rrwxrwxrwx|0|0|10|1290000000|1290000000|1290000000|1290000000\n"
    non_utf8 = directory / "probe-non-utf8.body"
    non_utf8.write_bytes(good.encode() + b"0|C:/WINDOWS/caf\xe9.txt|2-128-1|r/rrwxrwxrwx|0|0|1|1|1|1|1\n")
    huge_time = directory / "probe-huge-time.body"
    huge_time.write_text(
        f"0|{FF3_PREFETCH}|1-128-1|r/rrwxrwxrwx|0|0|10|0|99999999999999999999|0|0\n",
        encoding="utf-8",
    )
    return {
        "non_utf8_name": ["scan", str(non_utf8)],
        "time_above_time_t": ["scan", str(huge_time), "--utc-display"],
    }


if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    (directory / "workload.json").write_text(
        build(name, seed, directory).to_json(), encoding="utf-8")
