"""Forward simulator of the action/trace model, used as a testing oracle.

An action is described by one or more path variants (different code paths
through the same program touch different objects).  Executing an instance at
time ``tau`` writes each of the variant's update targets to ``tau + delay``
with a delay drawn uniformly from ``[0, threshold]`` whole seconds, writes
each default target to its fixed value, and creates listed objects that do
not yet exist.  Later instances overwrite earlier values.

Running a scripted schedule against an initial object map produces a final
metadata snapshot together with a ground-truth log of every instance and
every written value, against which reconstruction output can be verified
independently of how the reconstruction is computed.

Scenario file grammar (same family as signature files)::

    action: <name up to end of line>
    threshold: <positive integer seconds>
    variant:
    ma <accessed|modified|created|metachanged> <object path to end of line>
    da <accessed|modified|created|metachanged> <default epoch> <object path>
    oa <object path to end of line>
    ---
    schedule:
    <epoch> <action name> <variant index, or ? for a seeded random pick>

``#`` begins a comment; ``ma``/``da``/``oa`` lines before any ``variant:``
line fall into an implicit first variant.  The reader behind signature
files handles comments, separators and the ``action:`` and ``threshold:``
headers; this module reads the rest of each block and the schedule.  An
error about one line names that line; an error about a whole block
(missing threshold, no variants, duplicate name, overlapping targets)
names its ``action:`` line.  The export must scan back as the records
simulated: a path may not hold ``|`` or ``\\`` nor end in a bodyfile
``(deleted)`` marker, no default or schedule epoch may be 0 (a bodyfile's
"absent"), and no default or ``epoch + threshold`` may pass
``bodyfile.MAX_TIME``.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .bodyfile import _DELETED_SUFFIX, MAX_TIME
from .model import (
    ActionInstanceApproximation,
    InstanceRank,
    ObjectRecord,
    TimestampKind,
    Timestamp,
)
from .signatures import (
    BlockFileError,
    Signature,
    SignaturePack,
    TraceCategory,
    TracePattern,
    _KIND_WORDS,
    _content_lines,
    _read_blocks,
)

# An object map: path -> {kind -> value}.  Plain dicts keep simulation state
# cheap to copy; records are materialized only at the export boundary.
SimState = dict[str, dict[TimestampKind, int]]

UpdateTarget = tuple[str, TimestampKind]
DefaultTarget = tuple[str, TimestampKind, int]


_LAST_TIME = "9999-12-31T23:59:59Z"  # MAX_TIME, the last time the exported bodyfile holds
_READS_AS_ABSENT = "would read back from the exported bodyfile as absent"


class ScenarioError(BlockFileError):
    """Fatal scenario-file problem."""


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class PathVariant:
    """One code path: targets always updated, defaults written, objects created."""

    updates: frozenset[UpdateTarget] = frozenset()
    defaults: frozenset[DefaultTarget] = frozenset()
    creates: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.updates & {(path, kind) for path, kind, _ in self.defaults}
        if overlap:
            raise ValueError(f"update and default targets overlap: {sorted(overlap)}")


@dataclass(frozen=True)
class ActionSpec:
    """Simulator-side description of an action and its update threshold."""

    name: str
    threshold: int
    variants: tuple[PathVariant, ...]

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError(f"action {self.name!r}: threshold must be positive")
        if not self.variants:
            raise ValueError(f"action {self.name!r}: needs at least one path variant")


@dataclass(frozen=True)
class ScheduleEntry:
    """One scripted instance; variant None means a seeded random pick."""

    action: str
    tau: Timestamp
    variant: int | None = None

    def __post_init__(self) -> None:
        if self.tau < 0:
            raise ValueError("instance time must be non-negative")


@dataclass(frozen=True)
class InstanceSchedule:
    entries: tuple[ScheduleEntry, ...]

    def __post_init__(self) -> None:
        taus = [e.tau for e in self.entries]
        if taus != sorted(taus):
            raise ValueError("schedule entries must be sorted by time")

    @classmethod
    def of(cls, entries: Iterable[ScheduleEntry]) -> "InstanceSchedule":
        return cls(tuple(sorted(entries, key=lambda e: e.tau)))


@dataclass(frozen=True)
class TruthInstance:
    index: int
    action: str
    tau: Timestamp
    variant: int


@dataclass(frozen=True)
class TruthWrite:
    instance_index: int
    path: str
    kind: TimestampKind
    value: int
    is_default: bool


@dataclass(frozen=True)
class GroundTruth:
    """Everything that actually happened: instances and the values they wrote."""

    instances: tuple[TruthInstance, ...]
    writes: tuple[TruthWrite, ...]


# (path, kind, written value, is_default) as performed by one instance
WriteRecord = tuple[str, TimestampKind, int, bool]


def apply_instance(
    state: SimState,
    spec: ActionSpec,
    variant_index: int,
    tau: Timestamp,
    rng: random.Random,
) -> tuple[SimState, list[WriteRecord]]:
    """Apply one instance; returns the new state plus the writes performed.

    The input state is not mutated: the new state shares the inner dicts of
    every path the variant leaves alone and copies only the paths it
    touches.  Targets are processed in sorted order so the delay draws, and
    therefore the whole simulation, depend only on the seed and not on set
    iteration order.
    """
    if not 0 <= variant_index < len(spec.variants):
        raise SimulationError(
            f"action {spec.name!r} has no variant {variant_index}"
        )
    if tau < 0:
        raise SimulationError("instance time must be non-negative")
    variant = spec.variants[variant_index]
    creates = sorted(variant.creates)
    updates = sorted(variant.updates, key=lambda t: (t[0], t[1].value))
    defaults = sorted(variant.defaults, key=lambda t: (t[0], t[1].value, t[2]))
    new_state: SimState = dict(state)
    touched = [*creates, *(t[0] for t in updates), *(t[0] for t in defaults)]
    for path in dict.fromkeys(touched):
        new_state[path] = dict(state.get(path, {}))
    writes: list[WriteRecord] = []
    for path, kind in updates:
        value = tau + rng.randint(0, spec.threshold)
        new_state[path][kind] = value
        writes.append((path, kind, value, False))
    for path, kind, default in defaults:
        new_state[path][kind] = default
        writes.append((path, kind, default, True))
    return new_state, writes


def simulate(
    initial: Mapping[str, Mapping[TimestampKind, int]],
    specs: Mapping[str, ActionSpec],
    schedule: InstanceSchedule,
    seed: int,
) -> tuple[list[ObjectRecord], GroundTruth]:
    """Run a schedule from an initial object map; same seed, same bytes out.

    Returns the final snapshot as records (sorted by path; objects that
    never received a timestamp are unobservable and are dropped) plus the
    ground-truth log.
    """
    rng = random.Random(seed)
    state: SimState = {path: dict(times) for path, times in initial.items()}
    instances: list[TruthInstance] = []
    writes: list[TruthWrite] = []
    for index, entry in enumerate(schedule.entries):
        spec = specs.get(entry.action)
        if spec is None:
            raise SimulationError(f"schedule references unknown action {entry.action!r}")
        variant = (
            entry.variant
            if entry.variant is not None
            else rng.randrange(len(spec.variants))
        )
        state, instance_writes = apply_instance(state, spec, variant, entry.tau, rng)
        instances.append(TruthInstance(index, entry.action, entry.tau, variant))
        writes.extend(
            TruthWrite(index, path, kind, value, is_default)
            for path, kind, value, is_default in instance_writes
        )
    return export_records(state), GroundTruth(tuple(instances), tuple(writes))


def export_records(state: SimState) -> list[ObjectRecord]:
    """Materialize an object map as records, sorted by path."""
    return [
        ObjectRecord(path, **{kind.value: value for kind, value in state[path].items()})
        for path in sorted(state)
        if state[path]
    ]


def always_updated_targets(spec: ActionSpec) -> frozenset[UpdateTarget]:
    """Targets written by every variant: the action's core evidence."""
    targets = set(spec.variants[0].updates)
    for variant in spec.variants[1:]:
        targets &= variant.updates
    return frozenset(targets)


def derive_signatures(specs: Mapping[str, ActionSpec]) -> SignaturePack:
    """Build the signature pack a scenario's action set implies.

    A target updated by several actions is a shared trace for each of them;
    a single-action target updated by every variant is core, otherwise
    supporting.  Default writes carry no causal timing and produce no
    patterns.  Actions with no update targets are unobservable and are
    omitted.
    """
    owners: dict[UpdateTarget, set[str]] = {}
    for spec in specs.values():
        for variant in spec.variants:
            for target in variant.updates:
                owners.setdefault(target, set()).add(spec.name)

    signatures = []
    for spec in specs.values():
        all_targets = {t for variant in spec.variants for t in variant.updates}
        if not all_targets:
            continue
        always = always_updated_targets(spec)
        traces = []
        for path, kind in sorted(all_targets, key=lambda t: (t[0], t[1].value)):
            if len(owners[(path, kind)]) > 1:
                category = TraceCategory.SHARED
            elif (path, kind) in always:
                category = TraceCategory.CORE
            else:
                category = TraceCategory.SUPPORTING
            traces.append(TracePattern(category, kind, "^" + re.escape(path) + "$"))
        signatures.append(Signature(spec.name, spec.threshold, tuple(traces)))
    return SignaturePack(signatures)


ORACLE_PROPERTIES = (
    "interval-soundness",
    "count-bound",
    "most-recent-coverage",
    "no-false-positives",
)


@dataclass(frozen=True)
class OracleViolation:
    prop: str
    action: str
    detail: str


@dataclass(frozen=True)
class OracleReport:
    violations: tuple[OracleViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def failed_properties(self) -> set[str]:
        return {v.prop for v in self.violations}

    def summary_lines(self) -> list[str]:
        failed = self.failed_properties()
        lines = [
            f"{prop}: {'FAIL' if prop in failed else 'PASS'}"
            for prop in ORACLE_PROPERTIES
        ]
        lines.extend(f"  {v.prop}: {v.action}: {v.detail}" for v in self.violations)
        return lines


def oracle_check(
    truth: GroundTruth,
    results: Sequence[ActionInstanceApproximation],
    core_targets: Mapping[str, frozenset[UpdateTarget]] | None = None,
) -> OracleReport:
    """Verify reconstruction output directly against the ground truth.

    Checks, per reported approximation and per action:

    * interval-soundness: every reported interval contains the time of at
      least one true instance of that action;
    * count-bound: an action is never reported more often than it truly ran
      (clusters may merge true instances, never exceed them);
    * most-recent-coverage: when an action's last true instance wrote at
      least one of its core targets, the reported most-recent approximation
      exists and its interval contains that instance's time (checked only
      when ``core_targets`` is provided);
    * no-false-positives: nothing is reported for actions that never ran.
    """
    violations: list[OracleViolation] = []

    reported_by_action: dict[str, list[ActionInstanceApproximation]] = {}
    for approx in results:
        reported_by_action.setdefault(approx.action_name, []).append(approx)

    true_instances: dict[str, list[TruthInstance]] = {}
    for instance in truth.instances:
        true_instances.setdefault(instance.action, []).append(instance)

    for action, approxes in sorted(reported_by_action.items()):
        true_times = sorted(i.tau for i in true_instances.get(action, []))
        if not true_times:
            violations.append(
                OracleViolation(
                    "no-false-positives",
                    action,
                    f"{len(approxes)} instance(s) reported for an action that never ran",
                )
            )
            continue
        for approx in approxes:
            if not any(approx.interval.contains(tau) for tau in true_times):
                violations.append(
                    OracleViolation(
                        "interval-soundness",
                        action,
                        f"interval [{approx.interval.start}, {approx.interval.end}] "
                        f"contains no true instance time (truth: {true_times})",
                    )
                )
        if len(approxes) > len(true_times):
            violations.append(
                OracleViolation(
                    "count-bound",
                    action,
                    f"reported {len(approxes)} instances, only {len(true_times)} ran",
                )
            )

    if core_targets is not None:
        # One pass over the write log finds the last instances that wrote core.
        lasts: dict[int, TruthInstance] = {}
        for instances in true_instances.values():
            last = max(instances, key=lambda i: (i.tau, i.index))
            lasts[last.index] = last
        wrote_core = {
            lasts[w.instance_index]
            for w in truth.writes
            if w.instance_index in lasts
            and not w.is_default
            and (w.path, w.kind) in core_targets.get(lasts[w.instance_index].action, frozenset())
        }
        for last in sorted(wrote_core, key=lambda i: i.action):
            if not any(
                a.interval.contains(last.tau)
                for a in reported_by_action.get(last.action, [])
                if a.rank is InstanceRank.MOST_RECENT
            ):
                violations.append(
                    OracleViolation(
                        "most-recent-coverage",
                        last.action,
                        f"last true instance at {last.tau} is not covered by a "
                        f"most-recent approximation",
                    )
                )

    return OracleReport(tuple(violations))


@dataclass(frozen=True)
class Scenario:
    specs: dict[str, ActionSpec]
    schedule: InstanceSchedule


def _target_path(line_no: int, keyword: str, text: str) -> str:
    """The path of a target line, if the exported bodyfile reads it back unchanged."""
    path = text.strip()
    if "\\" in path:
        raise ScenarioError(line_no, f"'{keyword}' path contains '\\', read back as '/'")
    if _DELETED_SUFFIX.search(path):
        raise ScenarioError(line_no, f"'{keyword}' path ends in a bodyfile deletion marker")
    return path


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; structural problems raise :class:`ScenarioError`."""
    lines = _content_lines(text)
    blocks = itertools.takewhile(lambda item: not item[1].startswith("schedule:"), lines)
    specs: dict[str, ActionSpec] = {}
    for block in _read_blocks(blocks, ScenarioError):
        # One (updates, defaults, creates) triple per variant.
        variants: list[tuple[set, set, set]] = []
        for line_no, line in block.body:
            if line.startswith("variant:"):
                variants.append((set(), set(), set()))
                continue
            parts = line.split(None, 1)
            keyword = parts[0]
            if keyword not in ("ma", "da", "oa"):
                raise ScenarioError(line_no, f"unrecognized line: {line!r}")
            if len(parts) != 2:
                raise ScenarioError(line_no, f"'{keyword}' line is missing its arguments")
            if "|" in parts[1]:
                raise ScenarioError(line_no, f"'{keyword}' line contains the field separator '|'")
            if not variants:
                variants.append((set(), set(), set()))
            updates, defaults, creates = variants[-1]
            if keyword == "oa":
                creates.add(_target_path(line_no, keyword, parts[1]))
                continue
            sub = parts[1].split(None, 1)
            if len(sub) != 2 or sub[0] not in _KIND_WORDS:
                raise ScenarioError(
                    line_no, f"'{keyword}' needs a timestamp kind then its arguments"
                )
            kind = _KIND_WORDS[sub[0]]
            if keyword == "ma":
                updates.add((_target_path(line_no, keyword, sub[1]), kind))
                continue
            value_and_path = sub[1].split(None, 1)
            if len(value_and_path) != 2:
                raise ScenarioError(line_no, "'da' needs '<kind> <default epoch> <path>'")
            try:
                default = int(value_and_path[0])
            except ValueError:
                raise ScenarioError(line_no, f"bad default epoch {value_and_path[0]!r}")
            if default < 0:
                raise ScenarioError(line_no, "default epoch must be non-negative")
            if default == 0:
                raise ScenarioError(line_no, f"default epoch 0 {_READS_AS_ABSENT}")
            if default > MAX_TIME:
                raise ScenarioError(line_no, f"default epoch is past {_LAST_TIME}: {default}")
            defaults.add((_target_path(line_no, keyword, value_and_path[1]), kind, default))
        if not variants:
            raise ScenarioError(block.line_no, f"action {block.name!r} defines no variants")
        try:
            specs[block.name] = ActionSpec(
                block.name,
                block.threshold,
                tuple(PathVariant(*map(frozenset, variant)) for variant in variants),
            )
        except ValueError as exc:
            raise ScenarioError(block.line_no, str(exc))

    entries: list[ScheduleEntry] = []
    for line_no, line in lines:
        tokens = line.split()
        if len(tokens) < 3:
            raise ScenarioError(line_no, "schedule entry needs '<epoch> <action> <variant|?>'")
        try:
            tau = int(tokens[0])
        except ValueError:
            raise ScenarioError(line_no, f"bad epoch value {tokens[0]!r}")
        action_name = " ".join(tokens[1:-1])
        spec = specs.get(action_name)
        if spec is None:
            raise ScenarioError(line_no, f"unknown action in schedule: {action_name!r}")
        if tau > MAX_TIME - spec.threshold:
            raise ScenarioError(line_no, f"epoch plus threshold is past {_LAST_TIME}: {tau}")
        if tau == 0:
            raise ScenarioError(line_no, f"epoch 0 can write time 0, which {_READS_AS_ABSENT}")
        variant_token = tokens[-1]
        if variant_token == "?":
            variant: int | None = None
        else:
            try:
                variant = int(variant_token)
            except ValueError:
                raise ScenarioError(
                    line_no, f"variant must be an index or '?': {variant_token!r}"
                )
            if not 0 <= variant < len(spec.variants):
                raise ScenarioError(line_no, f"action {action_name!r} has no variant {variant}")
        try:
            entries.append(ScheduleEntry(action_name, tau, variant))
        except ValueError as exc:
            raise ScenarioError(line_no, str(exc))
    return Scenario(specs, InstanceSchedule.of(entries))
