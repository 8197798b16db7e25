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
values its update targets got.  For the same reason a target's last writer
is always the last instance of some variant, so the snapshot is built from
those alone, replayed in schedule order.  :func:`write_truth` writes the
truth as ``truth.json``, one record per write, from one bytes template per
variant: a template holds the instance index as a slot that one
``bytes.replace`` fills per instance, and a ``%d`` for each update value.

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
first variant.  One ``split`` reads an ``ma`` line whole (keyword, kind,
path), and its checks run inline.  A legacy ``oa <object path>`` line is
read and checked like a target line, and opens the implicit variant too,
but writes nothing.  A block with no variants or with overlapping targets
is an error naming its ``action:`` line.  The export must scan back as the
records simulated: a path may not hold ``|`` or ``\\`` nor end in a
bodyfile ``(deleted)`` marker, no default or schedule epoch may be 0 (a
bodyfile's "absent"), and no default or ``epoch + threshold`` may pass
``bodyfile.MAX_TIME``.  Since the matcher folds case
(:func:`~tracerecon.signatures.fold`, which equates exactly what
case-insensitive matching does, such as the micro sign and mu), no two
``ma``/``da`` paths, in any action or variant, may differ only in case:
the later one is an error at its first line, naming the earlier spelling
and its line.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from io import BufferedIOBase

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
from .signatures import Signature, SignaturePack, TraceCategory, TracePattern, fold

# An object map: path -> {kind -> value}.  A simulation builds one such map
# from the last instance of each variant; records are materialized only at
# the export boundary.
SimState = dict[str, dict[TimestampKind, int]]

UpdateTarget = tuple[str, TimestampKind]
DefaultTarget = tuple[str, TimestampKind, int]
# A variant's update targets and its default targets.
VariantOrder = tuple[tuple[UpdateTarget, ...], tuple[DefaultTarget, ...]]


_READS_AS_ABSENT = "would read back from the exported bodyfile as absent"


class ScenarioError(BlockFileError):
    """Fatal scenario-file problem."""


class PathVariant(namedtuple("PathVariant", "updates defaults")):
    """One code path: the targets it always updates and the defaults it writes.

    A variant keeps a ``__dict__`` (no ``__slots__``) for its cached ``order``.
    """

    def __new__(
        cls,
        updates: frozenset[UpdateTarget] = frozenset(),
        defaults: frozenset[DefaultTarget] = frozenset(),
    ) -> PathVariant:
        overlap = updates & {(path, kind) for path, kind, _ in defaults}
        if overlap:
            listed = sorted(overlap)
            raise ValueError(f"update and default targets overlap: {listed}")
        return tuple.__new__(cls, (updates, defaults))

    @cached_property
    def order(self) -> VariantOrder:
        """The variant's updates and its defaults, each sorted.

        Sorting fixes the order of the delay draws, so a simulation depends
        only on its seed and not on set iteration order.  Computed once per
        variant, on the first instance that runs it.
        """
        return tuple(sorted(self.updates)), tuple(sorted(self.defaults))


class ActionSpec(namedtuple("ActionSpec", "name threshold variants")):
    """Simulator-side description of an action and its update threshold."""

    __slots__ = ()

    def __new__(cls, name: str, threshold: int, variants: tuple[PathVariant, ...]) -> ActionSpec:
        if threshold <= 0:
            raise ValueError(f"action {name!r}: threshold must be positive")
        if not variants:
            raise ValueError(f"action {name!r}: needs at least one path variant")
        return tuple.__new__(cls, (name, threshold, variants))


class ScheduleEntry(namedtuple("ScheduleEntry", "action tau variant")):
    """One scripted instance; variant None means a seeded random pick."""

    __slots__ = ()

    def __new__(cls, action: str, tau: Timestamp, variant: int | None = None) -> ScheduleEntry:
        if tau < 0:
            raise ValueError("instance time must be non-negative")
        return tuple.__new__(cls, (action, tau, variant))


class InstanceSchedule(namedtuple("InstanceSchedule", "entries")):
    __slots__ = ()

    def __new__(cls, entries: tuple[ScheduleEntry, ...]) -> InstanceSchedule:
        taus = [e.tau for e in entries]
        if taus != sorted(taus):
            raise ValueError("schedule entries must be sorted by time")
        return tuple.__new__(cls, (entries,))

    @classmethod
    def of(cls, entries: Iterable[ScheduleEntry]) -> "InstanceSchedule":
        return cls(tuple(sorted(entries, key=lambda e: e.tau)))


class TruthInstance(namedtuple("TruthInstance", "index action tau variant")):
    index: int
    action: str
    tau: Timestamp
    variant: int

    __slots__ = ()


class GroundTruth(namedtuple("GroundTruth", "instances written")):
    """Everything that actually happened: instances and the values they wrote.

    ``written`` holds one ``(order, values)`` pair per instance, in the
    order of ``instances``: ``order`` is the :attr:`PathVariant.order` of
    the variant it ran (the variant's own tuple, not a copy) and ``values``
    the times its update targets got, one per ``order[0]`` entry.  Its
    default targets got their fixed values.
    """

    instances: tuple[TruthInstance, ...]
    written: tuple[tuple[VariantOrder, tuple[int, ...]], ...]

    __slots__ = ()


_JSON_SEPARATORS = (",", ":")
# One compact write object, its keys in sorted order: the instance index is
# the slot _INDEX, and the value is %d for an update, the number for a default.
_WRITE_JSON = '{"default":%s,"instance":\x00,"kind":"%s","path":%s,"value":%s}'
# json.dumps writes a NUL as \u0000, so this byte is never part of a path.
_INDEX = b"\x00"


def _instance_template(order: VariantOrder) -> bytes:
    """The writes of one instance of a variant as one bytes template.

    Each write holds the slot :data:`_INDEX` for the instance index, and
    each update a ``%d`` for its value.  Paths are quoted by ``json.dumps``
    (ASCII escapes, as in a whole-document dump) with ``%`` doubled, so the
    template is ASCII.
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
    return ",".join(forms).encode("ascii")


def write_truth(fh: BufferedIOBase, seed: int, truth: GroundTruth) -> None:
    """Write ``truth.json`` to a binary file: compact JSON with sorted keys, plus a newline.

    The document holds the seed, the instances and one ``"writes"`` record
    per write, instance by instance: its updates, then its defaults, each
    as ``{"default", "instance", "kind", "path", "value"}``.  The bytes
    equal one ``json.dumps(..., sort_keys=True)`` of the whole document,
    which is ASCII.  Each instance's writes go out in one call as soon as
    they are formatted, so the document is never held whole in memory.
    Each variant order gets its bytes template the first time an instance
    of it is seen.  An instance fills the template's index slots with one
    ``bytes.replace``, so its index is formatted once, and then its update
    values with one ``%``.  ``"writes"`` is the last key in sorted order, so
    the head closes over it.
    """
    head = {
        "seed": seed,
        "instances": [
            {"index": i.index, "action": i.action, "tau": i.tau, "variant": i.variant}
            for i in truth.instances
        ],
    }
    fh.write(json.dumps(head, sort_keys=True, separators=_JSON_SEPARATORS)[:-1].encode("ascii"))
    fh.write(b',"writes":[')
    templates: dict[int, bytes] = {}
    separator = b""
    for instance, (order, values) in zip(truth.instances, truth.written):
        template = templates.get(id(order))
        if template is None:
            template = templates[id(order)] = _instance_template(order)
        if template:
            fh.write(separator + template.replace(_INDEX, b"%d" % instance.index) % values)
            separator = b","
    fh.write(b"]}\n")


def simulate(
    initial: Mapping[str, Mapping[TimestampKind, int]],
    specs: Mapping[str, ActionSpec],
    schedule: InstanceSchedule,
    seed: int,
) -> tuple[list[ObjectRecord], GroundTruth]:
    """Run a schedule from an initial object map; same seed, same bytes out.

    Returns the final snapshot as records (sorted by path; objects that
    never received a timestamp are unobservable and are dropped) plus the
    ground truth.  The schedule loop only draws each instance's update
    values; the snapshot is then a copy of ``initial``, which is left as it
    was, with the last instance of each variant applied in schedule order.
    """
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    instances: list[TruthInstance] = []
    written: list[tuple[VariantOrder, tuple[int, ...]]] = []
    # Index of the last instance of each variant, by the identity of its order.
    last: dict[int, int] = {}
    for index, entry in enumerate(schedule.entries):
        spec = specs.get(entry.action)
        if spec is None:
            raise SimulationError(f"schedule references unknown action {entry.action!r}")
        variant = (
            entry.variant
            if entry.variant is not None
            else rng.randrange(len(spec.variants))
        )
        if not 0 <= variant < len(spec.variants):
            raise SimulationError(f"action {spec.name!r} has no variant {variant}")
        order = spec.variants[variant].order
        # randint(0, threshold) as the stdlib draws it, without its Python
        # frames: bound.bit_length() random bits, drawn again until below bound.
        bound = spec.threshold + 1
        bits = bound.bit_length()
        values = []
        for _ in order[0]:
            delay = getrandbits(bits)
            while delay >= bound:
                delay = getrandbits(bits)
            values.append(entry.tau + delay)
        instances.append(TruthInstance(index, entry.action, entry.tau, variant))
        written.append((order, tuple(values)))
        last[id(order)] = index
    state: SimState = {path: dict(times) for path, times in initial.items()}
    for index in sorted(last.values()):
        (updates, defaults), values = written[index]
        for (path, kind), value in zip(updates, values):
            state.setdefault(path, {})[kind] = value
        for path, kind, default in defaults:
            state.setdefault(path, {})[kind] = default
    return export_records(state), GroundTruth(tuple(instances), tuple(written))


# The timestamp kinds in the order of ObjectRecord's time fields.
_RECORD_KINDS = tuple(TimestampKind(name) for name in ObjectRecord._fields[1:5])


def export_records(state: SimState) -> list[ObjectRecord]:
    """Materialize an object map as records, sorted by path."""
    return [
        ObjectRecord(path, *map(state[path].get, _RECORD_KINDS))
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


class OracleViolation(namedtuple("OracleViolation", "prop action detail")):
    prop: str
    action: str
    detail: str

    __slots__ = ()


class OracleReport(namedtuple("OracleReport", "violations")):
    violations: tuple[OracleViolation, ...]

    __slots__ = ()

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


class Scenario(namedtuple("Scenario", "specs schedule")):
    specs: dict[str, ActionSpec]
    schedule: InstanceSchedule

    __slots__ = ()


def _is_header(line_no: int, line: str, header: str) -> bool:
    """Whether ``line`` is the bare ``header``; text after its colon is an error."""
    if not line.startswith(header):
        return False
    if line != header:
        rest = line[len(header):].strip()
        raise ScenarioError(line_no, f"unexpected text after {header!r}: {rest!r}")
    return True


def _read_default(line_no: int, args: str) -> tuple[int, str]:
    """The default epoch that opens a ``da`` line's text after its kind, and the path after it."""
    value_and_path = args.split(None, 1)
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
    return default, value_and_path[1]


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; structural problems raise :class:`ScenarioError`."""
    lines = content_lines(text)
    blocks = itertools.takewhile(
        lambda item: not (item[1].startswith("schedule:") and _is_header(*item, "schedule:")),
        lines,
    )
    specs: dict[str, ActionSpec] = {}
    # The line where each target path is first written, in file order.
    first_lines: dict[str, int] = {}
    for block in read_blocks(blocks, ScenarioError):
        # One (updates, defaults) pair per variant.
        variants: list[tuple[set, set]] = []
        for line_no, line in block.body:
            if line.startswith("variant:") and _is_header(line_no, line, "variant:"):
                variants.append((set(), set()))
                continue
            # Keyword, kind and path: one split reads an ``ma`` line whole.
            parts = line.split(None, 2)
            keyword = parts[0]
            if keyword not in ("ma", "da", "oa"):
                raise ScenarioError(line_no, f"unrecognized line: {line!r}")
            if len(parts) == 1:
                raise ScenarioError(line_no, f"'{keyword}' line is missing its arguments")
            if "|" in line:
                raise ScenarioError(line_no, f"'{keyword}' line contains the field separator '|'")
            if not variants:
                variants.append((set(), set()))
            if keyword == "oa":
                path = line[2:].lstrip()
            elif len(parts) == 2 or parts[1] not in KIND_WORDS:
                raise ScenarioError(
                    line_no, f"'{keyword}' needs a timestamp kind then its arguments"
                )
            elif keyword == "ma":
                path = parts[2]
            else:
                default, path = _read_default(line_no, parts[2])
            # A content line ends in whitespace only where a '\\' escapes it,
            # so a path that passes this check is already stripped, and it
            # ends in no newline for DELETED_SUFFIX's r"\)$" to pass over.
            if "\\" in path:
                raise ScenarioError(line_no, f"'{keyword}' path contains '\\', read back as '/'")
            if path.endswith(")") and DELETED_SUFFIX.search(path):
                raise ScenarioError(
                    line_no, f"'{keyword}' path ends in a bodyfile deletion marker"
                )
            # A legacy 'oa' line is checked, then writes nothing.
            if keyword == "ma":
                variants[-1][0].add((path, KIND_WORDS[parts[1]]))
            elif keyword == "da":
                variants[-1][1].add((path, KIND_WORDS[parts[1]], default))
            else:
                continue
            first_lines.setdefault(path, line_no)
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
    # The matcher folds case, so two paths that differ only in case would
    # each match the other's traces.
    spellings: dict[str, str] = {}
    for path in first_lines:
        earlier = spellings.setdefault(fold(path), path)
        if earlier != path:
            message = f"path {path!r} differs only in case from {earlier!r}"
            raise ScenarioError(first_lines[path], f"{message} on line {first_lines[earlier]}")

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
