"""Forward simulator of the action/trace model, used as a testing oracle.

An action is described by one or more path variants (different code paths
through the same program touch different objects).  Executing an instance at
time ``tau`` writes each of the variant's update targets to ``tau + delay``
with a delay drawn uniformly from ``[0, threshold]`` whole seconds and writes
each default target to its fixed value.  Later instances overwrite earlier
values.  A delay is drawn by the standard library's own rejection rule on
``getrandbits`` (the bit length of ``threshold + 1``, drawn again while not
below it), so a seed gives the same draws as ``random.randint(0, threshold)``.

Running a scripted schedule against an initial object map produces a final
metadata snapshot together with the ground truth, against which
reconstruction output can be verified independently of how the
reconstruction is computed.  Every instance of one (action, variant) writes
the same targets in the same order, so the truth is kept per instance: the
variant's :attr:`PathVariant.order` (shared by all its instances) and the
values its update targets got.  :func:`write_truth` writes it as
``truth.json``, one record per write.

A scenario file is a block file (:mod:`tracerecon.blockfile`): each block
is one action, whose body lists its path variants, and a ``schedule:``
line after the last block opens the instances to run::

    action: <name up to end of line>
    threshold: <positive integer seconds>
    variant:
    ma <accessed|modified|created|metachanged> <object path to end of line>
    da <accessed|modified|created|metachanged> <default epoch> <object path>
    ---
    schedule:
    <epoch> <action name> <variant index, or ? for a seeded random pick>

``ma``/``da`` lines before any ``variant:`` line fall into an implicit
first variant; ``_VARIANT_LINES`` holds the reader of each.  A legacy
``oa <object path>`` line is read and checked like a target line, and
opens the implicit variant too, but writes nothing.  A block with no
variants or with overlapping targets is an error naming its ``action:``
line.  The export must scan back as the records simulated: a path may
not hold ``|`` or ``\\`` nor end in a bodyfile ``(deleted)`` marker, no
default or schedule epoch may be 0 (a bodyfile's "absent"), and no default
or ``epoch + threshold`` may pass ``bodyfile.MAX_TIME``.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence, TextIO

from .blockfile import KIND_WORDS, BlockFileError, content_lines, read_blocks
from .bodyfile import DELETED_SUFFIX, LAST_TIME, MAX_TIME
from .model import (
    ActionInstanceApproximation,
    InstanceRank,
    ObjectRecord,
    SimulationError,
    TimestampKind,
    Timestamp,
    read_int,
)
from .signatures import Signature, SignaturePack, TraceCategory, TracePattern

# An object map: path -> {kind -> value}.  A simulation updates one such map
# in place; records are materialized only at the export boundary.
SimState = dict[str, dict[TimestampKind, int]]

UpdateTarget = tuple[str, TimestampKind]
DefaultTarget = tuple[str, TimestampKind, int]
# A variant's update targets and its default targets.
VariantOrder = tuple[tuple[UpdateTarget, ...], tuple[DefaultTarget, ...]]


_READS_AS_ABSENT = "would read back from the exported bodyfile as absent"


class ScenarioError(BlockFileError):
    """Fatal scenario-file problem."""


@dataclass(frozen=True)
class PathVariant:
    """One code path: the targets it always updates and the defaults it writes."""

    updates: frozenset[UpdateTarget] = frozenset()
    defaults: frozenset[DefaultTarget] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.updates & {(path, kind) for path, kind, _ in self.defaults}
        if overlap:
            listed = sorted(overlap)
            raise ValueError(f"update and default targets overlap: {listed}")

    @cached_property
    def order(self) -> VariantOrder:
        """The variant's updates and its defaults, each sorted.

        Sorting fixes the order of the delay draws, so a simulation depends
        only on its seed and not on set iteration order.  Computed once per
        variant, on the first instance that runs it.
        """
        return tuple(sorted(self.updates)), tuple(sorted(self.defaults))


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
class GroundTruth:
    """Everything that actually happened: instances and the values they wrote.

    ``written`` holds one ``(order, values)`` pair per instance, in the
    order of ``instances``: ``order`` is the :attr:`PathVariant.order` of
    the variant it ran (the variant's own tuple, not a copy) and ``values``
    the times its update targets got, one per ``order[0]`` entry.  Its
    default targets got their fixed values.
    """

    instances: tuple[TruthInstance, ...]
    written: tuple[tuple[VariantOrder, tuple[int, ...]], ...]


_JSON_SEPARATORS = (",", ":")
# One compact write object, its keys in sorted order: %d stays for the
# instance index, and the value is %d for an update, the number for a default.
_WRITE_JSON = '{"default":%s,"instance":%%d,"kind":"%s","path":%s,"value":%s}'


def _instance_template(order: VariantOrder) -> tuple[str, int, int]:
    """The writes of one instance of a variant as one ``%`` template.

    Returns the template, the number of update targets and the number of
    arguments it takes: the instance index and value of each update, then
    the index of each default.  Paths are quoted by ``json.dumps`` (ASCII
    escapes, as in a whole-document dump) with ``%`` doubled.
    """
    updates, defaults = order
    forms = [
        _WRITE_JSON % ("false", kind.value, json.dumps(path).replace("%", "%%"), "%d")
        for path, kind in updates
    ]
    forms += [
        _WRITE_JSON % ("true", kind.value, json.dumps(path).replace("%", "%%"), default)
        for path, kind, default in defaults
    ]
    return ",".join(forms), len(updates), 2 * len(updates) + len(defaults)


def write_truth(fh: TextIO, seed: int, truth: GroundTruth) -> None:
    """Write ``truth.json``: compact JSON with sorted keys, plus a newline.

    The document holds the seed, the instances and one ``"writes"`` record
    per write, instance by instance: its updates, then its defaults, each
    as ``{"default", "instance", "kind", "path", "value"}``.  The bytes
    equal one ``json.dumps(..., sort_keys=True)`` of the whole document.
    Each instance's writes go out in one call as soon as they are
    formatted, so the document is never held whole in memory.  Each variant
    order gets its ``%`` template the first time an instance of it is seen;
    an instance is then one ``template % args``.  ``"writes"`` is the last
    key in sorted order, so the head closes over it.
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
    templates: dict[int, tuple[str, int, int]] = {}
    separator = ""
    for instance, (order, values) in zip(truth.instances, truth.written):
        known = templates.get(id(order))
        if known is None:
            known = templates[id(order)] = _instance_template(order)
        template, updates, size = known
        if size:
            args = [instance.index] * size
            args[1:2 * updates:2] = values
            fh.write(separator + template % tuple(args))
            separator = ","
    fh.write("]}\n")


def apply_instance(
    state: SimState,
    spec: ActionSpec,
    variant_index: int,
    tau: Timestamp,
    rng: random.Random,
) -> tuple[SimState, tuple[int, ...]]:
    """Apply one instance to ``state`` in place; returns it plus its update values.

    The values are those the variant's update targets got, in the order of
    ``order[0]`` of its :attr:`PathVariant.order`; its default targets get
    their fixed values.  A path written for the first time is added at the
    end of ``state``; every other path keeps its place and its inner dict,
    and written inner dicts are updated in place.  ``tau`` is
    not checked again: a :class:`ScheduleEntry` is never negative.
    """
    if not 0 <= variant_index < len(spec.variants):
        raise SimulationError(
            f"action {spec.name!r} has no variant {variant_index}"
        )
    updates, defaults = spec.variants[variant_index].order
    values: list[int] = []
    # randint(0, threshold) as the stdlib draws it, without its Python frames:
    # bound.bit_length() random bits, drawn again until below the bound.
    bound = spec.threshold + 1
    bits = bound.bit_length()
    getrandbits = rng.getrandbits
    for path, kind in updates:
        delay = getrandbits(bits)
        while delay >= bound:
            delay = getrandbits(bits)
        value = tau + delay
        state.setdefault(path, {})[kind] = value
        values.append(value)
    for path, kind, default in defaults:
        state.setdefault(path, {})[kind] = default
    return state, tuple(values)


def simulate(
    initial: Mapping[str, Mapping[TimestampKind, int]],
    specs: Mapping[str, ActionSpec],
    schedule: InstanceSchedule,
    seed: int,
) -> tuple[list[ObjectRecord], GroundTruth]:
    """Run a schedule from an initial object map; same seed, same bytes out.

    Returns the final snapshot as records (sorted by path; objects that
    never received a timestamp are unobservable and are dropped) plus the
    ground truth.  ``initial`` is copied once and left as it was.
    """
    rng = random.Random(seed)
    state: SimState = {path: dict(times) for path, times in initial.items()}
    instances: list[TruthInstance] = []
    written: list[tuple[VariantOrder, tuple[int, ...]]] = []
    for index, entry in enumerate(schedule.entries):
        spec = specs.get(entry.action)
        if spec is None:
            raise SimulationError(f"schedule references unknown action {entry.action!r}")
        variant = (
            entry.variant
            if entry.variant is not None
            else rng.randrange(len(spec.variants))
        )
        state, values = apply_instance(state, spec, variant, entry.tau, rng)
        instances.append(TruthInstance(index, entry.action, entry.tau, variant))
        written.append((spec.variants[variant].order, values))
    return export_records(state), GroundTruth(tuple(instances), tuple(written))


def export_records(state: SimState) -> list[ObjectRecord]:
    """Materialize an object map as records, sorted by path."""
    return [
        ObjectRecord(path, **{kind.value: value for kind, value in state[path].items()})
        for path in sorted(state)
        if state[path]
    ]


def always_updated_targets(spec: ActionSpec) -> frozenset[UpdateTarget]:
    """Targets updated by every variant; the shared and defaulted ones are not core."""
    targets = set(spec.variants[0].updates)
    for variant in spec.variants[1:]:
        targets &= variant.updates
    return frozenset(targets)


def _categories(specs: Mapping[str, ActionSpec]) -> dict[str, dict[UpdateTarget, TraceCategory]]:
    """Each action's evidence targets, sorted, with the category of each.

    A target updated by several actions is a shared trace for each of them;
    a single-action target updated by every variant is core, otherwise
    supporting.  A default can overwrite the time an update left, so a
    target that any variant of any action writes as a default is no
    action's evidence and is left out.
    """
    updated = {
        name: set().union(*(variant.updates for variant in spec.variants))
        for name, spec in specs.items()
    }
    owners = Counter(target for targets in updated.values() for target in targets)
    defaulted = {
        (path, kind)
        for spec in specs.values()
        for variant in spec.variants
        for path, kind, _ in variant.defaults
    }
    categories = {}
    for name, spec in specs.items():
        always = always_updated_targets(spec)
        categories[name] = {
            target: TraceCategory.SHARED if owners[target] > 1
            else TraceCategory.CORE if target in always
            else TraceCategory.SUPPORTING
            for target in sorted(updated[name] - defaulted)
        }
    return categories


def core_targets(specs: Mapping[str, ActionSpec]) -> dict[str, frozenset[UpdateTarget]]:
    """Each action's core targets: updated by every variant and by no other
    action, and written as a default by none.

    These are exactly the targets :func:`derive_signatures` makes CORE, so
    they are the ones :func:`oracle_check` expects the most recent instance
    to leave as evidence.
    """
    return {
        name: frozenset(
            target for target, category in targets.items() if category is TraceCategory.CORE
        )
        for name, targets in _categories(specs).items()
    }


def derive_signatures(specs: Mapping[str, ActionSpec]) -> SignaturePack:
    """Build the signature pack a scenario's action set implies.

    Each action gets one exact trace per evidence target, in the category
    :func:`_categories` gives it.  Actions left with no evidence targets
    are unobservable and are omitted.
    """
    categories = _categories(specs)
    return SignaturePack(
        Signature(spec.name, spec.threshold, tuple(
            TracePattern.for_path(category, kind, path)
            for (path, kind), category in categories[name].items()
        ))
        for name, spec in specs.items()
        if categories[name]
    )


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
    core_targets: Mapping[str, frozenset[UpdateTarget]],
) -> OracleReport:
    """Verify reconstruction output directly against the ground truth.

    Checks, per reported approximation and per action:

    * interval-soundness: every reported interval contains the time of at
      least one true instance of that action;
    * count-bound: an action is never reported more often than it truly ran
      (clusters may merge true instances, never exceed them);
    * most-recent-coverage: when the variant of an action's last true
      instance updates at least one of its targets in ``core_targets`` (by
      action name; see :func:`core_targets`), the reported most-recent
      approximation exists and its interval contains that instance's time;
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

    # Only each action's last instance matters: did its variant update core?
    written = {i.index: w for i, w in zip(truth.instances, truth.written)}
    for action, instances in sorted(true_instances.items()):
        last = max(instances, key=lambda i: (i.tau, i.index))
        entry = written.get(last.index)
        if entry is None or core_targets.get(action, frozenset()).isdisjoint(entry[0][0]):
            continue
        if not any(
            a.interval.contains(last.tau)
            for a in reported_by_action.get(action, [])
            if a.rank is InstanceRank.MOST_RECENT
        ):
            violations.append(
                OracleViolation(
                    "most-recent-coverage",
                    action,
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
    # DELETED_SUFFIX ends in r"\)$" and a stripped path ends in no newline.
    if path.endswith(")") and DELETED_SUFFIX.search(path):
        raise ScenarioError(line_no, f"'{keyword}' path ends in a bodyfile deletion marker")
    return path


def _is_header(line_no: int, line: str, header: str) -> bool:
    """Whether ``line`` is the bare ``header``; text after its colon is an error."""
    if not line.startswith(header):
        return False
    if line != header:
        rest = line[len(header):].strip()
        raise ScenarioError(line_no, f"unexpected text after {header!r}: {rest!r}")
    return True


def _kind_and_rest(line_no: int, keyword: str, args: str) -> tuple[TimestampKind, str]:
    """The timestamp kind that opens a target line's arguments, and the text after it."""
    sub = args.split(None, 1)
    if len(sub) != 2 or sub[0] not in KIND_WORDS:
        raise ScenarioError(line_no, f"'{keyword}' needs a timestamp kind then its arguments")
    return KIND_WORDS[sub[0]], sub[1]


def _read_update(line_no: int, keyword: str, args: str) -> UpdateTarget:
    """The (path, kind) target of an ``ma`` line."""
    kind, path = _kind_and_rest(line_no, keyword, args)
    return _target_path(line_no, keyword, path), kind


def _read_default(line_no: int, keyword: str, args: str) -> DefaultTarget:
    """The (path, kind, default epoch) target of a ``da`` line."""
    kind, rest = _kind_and_rest(line_no, keyword, args)
    value_and_path = rest.split(None, 1)
    if len(value_and_path) != 2:
        raise ScenarioError(line_no, "'da' needs '<kind> <default epoch> <path>'")
    try:
        default = read_int(value_and_path[0])
    except ValueError:
        raise ScenarioError(line_no, f"bad default epoch {value_and_path[0]!r}")
    if default < 0:
        raise ScenarioError(line_no, "default epoch must be non-negative")
    if default == 0:
        raise ScenarioError(line_no, f"default epoch 0 {_READS_AS_ABSENT}")
    if default > MAX_TIME:
        raise ScenarioError(line_no, f"default epoch is past {LAST_TIME}: {default}")
    return _target_path(line_no, keyword, value_and_path[1]), kind, default


# Each variant line's keyword, with the index of the set its target joins in
# the (updates, defaults) of a variant, and the reader of its arguments,
# called with the line number, the keyword and the arguments.  A legacy
# ``oa`` line's path is checked, then joins no set.
_VARIANT_LINES = {"ma": (0, _read_update), "da": (1, _read_default), "oa": (None, _target_path)}


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; structural problems raise :class:`ScenarioError`."""
    lines = content_lines(text)
    blocks = itertools.takewhile(lambda item: not _is_header(*item, "schedule:"), lines)
    specs: dict[str, ActionSpec] = {}
    for block in read_blocks(blocks, ScenarioError):
        # One (updates, defaults) pair per variant.
        variants: list[tuple[set, set]] = []
        for line_no, line in block.body:
            if _is_header(line_no, line, "variant:"):
                variants.append((set(), set()))
                continue
            parts = line.split(None, 1)
            keyword = parts[0]
            entry = _VARIANT_LINES.get(keyword)
            if entry is None:
                raise ScenarioError(line_no, f"unrecognized line: {line!r}")
            if len(parts) != 2:
                raise ScenarioError(line_no, f"'{keyword}' line is missing its arguments")
            if "|" in parts[1]:
                raise ScenarioError(line_no, f"'{keyword}' line contains the field separator '|'")
            if not variants:
                variants.append((set(), set()))
            index, read = entry
            target = read(line_no, keyword, parts[1])
            if index is not None:
                variants[-1][index].add(target)
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
        # The action name is the text between the epoch and the variant, kept
        # as written, so a name with a tab or a run of spaces still matches.
        head = line.split(None, 1)
        tail = head[1].rsplit(None, 1) if len(head) == 2 else []
        if len(tail) != 2:
            raise ScenarioError(line_no, "schedule entry needs '<epoch> <action> <variant|?>'")
        epoch_token, (action_name, variant_token) = head[0], tail
        try:
            tau = read_int(epoch_token)
        except ValueError:
            raise ScenarioError(line_no, f"bad epoch value {epoch_token!r}")
        spec = specs.get(action_name)
        if spec is None:
            raise ScenarioError(line_no, f"unknown action in schedule: {action_name!r}")
        if tau > MAX_TIME - spec.threshold:
            raise ScenarioError(line_no, f"epoch plus threshold is past {LAST_TIME}: {tau}")
        if tau == 0:
            raise ScenarioError(line_no, f"epoch 0 can write time 0, which {_READS_AS_ABSENT}")
        if variant_token == "?":
            variant: int | None = None
        else:
            try:
                variant = read_int(variant_token)
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
