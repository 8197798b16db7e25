"""The per-write simulator that the per-instance ground truth replaced, kept as a test reference.

``apply_instance`` returns one ``TruthWrite`` per target, ``simulate`` keeps
them all in one log, ``write_truth`` formats them one at a time and
``oracle_check`` walks the whole log to find what each action's last
instance wrote.  So there is no variant template and no per-instance
shortcut that could go wrong.  ``writes_of`` derives the same log from a
:class:`~tracerecon.simulator.GroundTruth`, for tests that read single
writes.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from tracerecon.model import InstanceRank, TimestampKind
from tracerecon.simulator import (
    OracleReport,
    OracleViolation,
    SimulationError,
    TruthInstance,
    export_records,
)


class TruthWrite(NamedTuple):
    """One write of one instance."""

    instance_index: int
    path: str
    kind: TimestampKind
    value: int
    is_default: bool


class ReferenceTruth(NamedTuple):
    """Instances plus one ``TruthWrite`` per write, in write order."""

    instances: tuple[TruthInstance, ...]
    writes: tuple[TruthWrite, ...]


def writes_of(truth) -> tuple[TruthWrite, ...]:
    """Every single write of a ``GroundTruth``, instance by instance: updates, then defaults."""
    writes: list[TruthWrite] = []
    for instance, ((updates, defaults), values) in zip(truth.instances, truth.written):
        index = instance.index
        writes += [
            TruthWrite(index, path, kind, value, False)
            for (path, kind), value in zip(updates, values)
        ]
        writes += [TruthWrite(index, path, kind, default, True) for path, kind, default in defaults]
    return tuple(writes)


def apply_instance(state, spec, variant_index, tau, rng: random.Random, index):
    """Apply instance ``index`` to ``state`` in place; returns it plus its writes."""
    if not 0 <= variant_index < len(spec.variants):
        raise SimulationError(f"action {spec.name!r} has no variant {variant_index}")
    updates, defaults = spec.variants[variant_index].order
    writes = []
    for path, kind in updates:
        value = tau + rng.randint(0, spec.threshold)  # the draw the simulator copies
        state.setdefault(path, {})[kind] = value
        writes.append(TruthWrite(index, path, kind, value, False))
    for path, kind, default in defaults:
        state.setdefault(path, {})[kind] = default
        writes.append(TruthWrite(index, path, kind, default, True))
    return state, writes


def simulate(initial, specs, schedule, seed):
    """The final records and the whole write log of a schedule."""
    rng = random.Random(seed)
    state = {path: dict(times) for path, times in initial.items()}
    instances, writes = [], []
    for index, entry in enumerate(schedule.entries):
        spec = specs.get(entry.action)
        if spec is None:
            raise SimulationError(f"schedule references unknown action {entry.action!r}")
        variant = (
            entry.variant
            if entry.variant is not None
            else rng.randrange(len(spec.variants))
        )
        state, instance_writes = apply_instance(state, spec, variant, entry.tau, rng, index)
        instances.append(TruthInstance(index, entry.action, entry.tau, variant))
        writes.extend(instance_writes)
    return export_records(state), ReferenceTruth(tuple(instances), tuple(writes))


TRUTH_SLICE = 4096
_WRITE_JSON = '{"default":%s,"instance":%%d,"kind":"%s","path":%s,"value":%%d}'


def write_truth(fh, seed, truth):
    """truth.json: the head, then each write from its target's template, in slices."""
    head = {
        "seed": seed,
        "instances": [
            {"index": i.index, "action": i.action, "tau": i.tau, "variant": i.variant}
            for i in truth.instances
        ],
    }
    fh.write(json.dumps(head, sort_keys=True, separators=(",", ":"))[:-1])
    fh.write(',"writes":[')
    forms = {}
    for start in range(0, len(truth.writes), TRUTH_SLICE):
        chunk = []
        for index, path, kind, value, is_default in truth.writes[start:start + TRUTH_SLICE]:
            target = path, kind, is_default
            form = forms.get(target)
            if form is None:
                quoted = json.dumps(path).replace("%", "%%")
                form = forms[target] = _WRITE_JSON % (
                    ("false", "true")[is_default], kind.value, quoted
                )
            chunk.append(form % (index, value))
        if start:
            fh.write(",")
        fh.write(",".join(chunk))
    fh.write("]}\n")


def oracle_check(truth, results, core_targets):
    """The four oracle properties, the last instances' core writes found in the log."""
    violations = []
    reported_by_action = {}
    for approx in results:
        reported_by_action.setdefault(approx.action_name, []).append(approx)
    true_instances = {}
    for instance in truth.instances:
        true_instances.setdefault(instance.action, []).append(instance)

    for action, approxes in sorted(reported_by_action.items()):
        true_times = sorted(i.tau for i in true_instances.get(action, []))
        if not true_times:
            violations.append(OracleViolation(
                "no-false-positives", action,
                f"{len(approxes)} instance(s) reported for an action that never ran",
            ))
            continue
        for approx in approxes:
            if not any(approx.interval.contains(tau) for tau in true_times):
                violations.append(OracleViolation(
                    "interval-soundness", action,
                    f"interval [{approx.interval.start}, {approx.interval.end}] "
                    f"contains no true instance time (truth: {true_times})",
                ))
        if len(approxes) > len(true_times):
            violations.append(OracleViolation(
                "count-bound", action,
                f"reported {len(approxes)} instances, only {len(true_times)} ran",
            ))

    lasts = {}
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
            violations.append(OracleViolation(
                "most-recent-coverage", last.action,
                f"last true instance at {last.tau} is not covered by a "
                f"most-recent approximation",
            ))
    return OracleReport(tuple(violations))
