"""Reconstruction engine: threshold clustering, consistency tests and
layered shared-trace disambiguation.

Given ingested object records and a signature pack, the engine resolves all
patterns into trace states in one pass over the records, groups states that
lie within the action's update threshold of each other into clusters (one
cluster per inferred instance), checks the always-updated core traces for
consistency, and finally attributes shared traces by eliminating candidate
actions whose core evidence rules them out.

Each surviving cluster becomes an :class:`ActionInstanceApproximation` whose
interval is ``[oldest - threshold, newest]``: the causing instance ran no
later than the oldest update and no more than one threshold before it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .model import (
    ActionInstanceApproximation,
    ConfidenceNote,
    EPOCH_FLOOR,
    InstanceRank,
    ObjectRecord,
    TimeInterval,
    Timestamp,
    TraceState,
    trace_sort_key,
)
from .signatures import Bucket, Signature, SignaturePack, TraceCategory, match_pack


@dataclass(frozen=True)
class Cluster:
    """A maximal run of trace states whose span fits within one threshold."""

    members: tuple[TraceState, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("cluster must have at least one member")
        values = [m.value for m in self.members]
        if values != sorted(values):
            raise ValueError("cluster members must be sorted ascending by value")

    @property
    def oldest(self) -> Timestamp:
        return self.members[0].value

    @property
    def newest(self) -> Timestamp:
        return self.members[-1].value

    @property
    def span(self) -> int:
        return self.newest - self.oldest


class CoreStatus(Enum):
    CONSISTENT = "consistent"
    MULTI_INSTANCE = "multi-instance"


@dataclass(frozen=True)
class CoreVerdict:
    """Outcome of checking an action's always-updated traces.

    Consistent means all core values fit within one threshold (at most one
    cluster; zero when no core trace survived).  Multi-instance means the
    core values disagree by more than the threshold, which only happens
    when instances overlap in time (e.g. one holds an object locked while
    another runs), so each core cluster is reported as its own execution.
    """

    status: CoreStatus
    clusters: tuple[Cluster, ...]

    def __post_init__(self) -> None:
        if self.status is CoreStatus.CONSISTENT and len(self.clusters) > 1:
            raise ValueError("a consistent verdict carries at most one cluster")
        if self.status is CoreStatus.MULTI_INSTANCE and len(self.clusters) < 2:
            raise ValueError("a multi-instance verdict needs at least two clusters")


@dataclass(frozen=True)
class SharedAttribution:
    """One cluster of shared-trace evidence and the actions that could own it."""

    cluster: Cluster
    candidate_actions: frozenset[str]
    resolved: str | None = None

    def __post_init__(self) -> None:
        if not self.candidate_actions:
            raise ValueError("attribution requires at least one candidate action")
        if self.resolved is not None and self.resolved not in self.candidate_actions:
            raise ValueError("resolved action must be one of the candidates")


@dataclass(frozen=True)
class ActionResult:
    """Per-action analysis: verdicts, clusters, and ranked instances."""

    action_name: str
    threshold: int
    core_verdict: CoreVerdict
    support_clusters: tuple[Cluster, ...]
    instances: tuple[ActionInstanceApproximation, ...]


def cluster_by_threshold(states: Sequence[TraceState], threshold: int) -> list[Cluster]:
    """Greedy left-to-right partition of sorted states.

    A state joins the open cluster iff it lies within ``threshold`` of the
    cluster's oldest member; otherwise it starts a new cluster.  Comparing
    against the oldest member (not the previous state) is what separates
    two instances even when intermediate values chain between them.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    clusters: list[Cluster] = []
    current: list[TraceState] = []
    for state in sorted(states, key=trace_sort_key):
        if current and state.value > current[0].value + threshold:
            clusters.append(Cluster(tuple(current)))
            current = []
        current.append(state)
    if current:
        clusters.append(Cluster(tuple(current)))
    return clusters


def core_test(threshold: int, states: Sequence[TraceState]) -> CoreVerdict:
    """Check always-updated traces: one instance window, or parallel instances.

    Empty input is vacuously consistent.  When the newest value exceeds the
    oldest by more than the threshold the verdict carries the full cluster
    partition, because every core trace must be refreshed by every
    execution and a stale one therefore marks a distinct overlapping run.
    """
    clusters = cluster_by_threshold(states, threshold)
    if len(clusters) <= 1:
        return CoreVerdict(CoreStatus.CONSISTENT, tuple(clusters))
    return CoreVerdict(CoreStatus.MULTI_INSTANCE, tuple(clusters))


def support_test(threshold: int, states: Sequence[TraceState]) -> list[Cluster]:
    """Partition irregularly-updated traces; each cluster is a past instance.

    A supporting trace is touched only by its action, so two values more
    than one threshold apart cannot come from the same execution.
    """
    return cluster_by_threshold(states, threshold)


def shared_test(
    threshold: int, states: Sequence[TraceState], candidates: Iterable[str]
) -> list[SharedAttribution]:
    """Cluster shared traces; every candidate action could own each cluster.

    With a single candidate the attribution resolves immediately; otherwise
    resolution waits for :func:`disambiguate_shared`.
    """
    candidate_set = frozenset(candidates)
    attributions = []
    for cluster in cluster_by_threshold(states, threshold):
        resolved = next(iter(candidate_set)) if len(candidate_set) == 1 else None
        attributions.append(SharedAttribution(cluster, candidate_set, resolved))
    return attributions


def _last_core_newest(result: ActionResult) -> Timestamp | None:
    if not result.core_verdict.clusters:
        return None
    return max(c.newest for c in result.core_verdict.clusters)


def disambiguate_shared(
    attributions: Sequence[SharedAttribution],
    per_action_results: Mapping[str, ActionResult],
) -> list[SharedAttribution]:
    """Eliminate candidates whose core evidence rules them out.

    Core traces are refreshed by every execution, so an action cannot have
    run after its newest core value plus its threshold.  A shared cluster
    older than that bound stays compatible; a newer one eliminates the
    action.  When exactly one candidate survives, the attribution resolves
    to it; with several compatible candidates no conclusion is possible.
    """
    resolved: list[SharedAttribution] = []
    for attribution in attributions:
        if attribution.resolved is not None:
            resolved.append(attribution)
            continue
        remaining = set(attribution.candidate_actions)
        for name in sorted(attribution.candidate_actions):
            result = per_action_results.get(name)
            if result is None:
                continue
            bound = _last_core_newest(result)
            if bound is not None and attribution.cluster.oldest > bound + result.threshold:
                remaining.discard(name)
        if len(remaining) == 1:
            resolved.append(replace(attribution, resolved=remaining.pop()))
        else:
            resolved.append(attribution)
    return resolved


def _interval_for(cluster: Cluster, threshold: int) -> TimeInterval:
    return TimeInterval(max(EPOCH_FLOOR, cluster.oldest - threshold), cluster.newest)


def _merge_clusters(clusters: Iterable[Cluster]) -> Cluster:
    members = sorted(
        (m for c in clusters for m in c.members), key=trace_sort_key
    )
    return Cluster(tuple(members))


def _span_gap(a: Cluster, b: Cluster) -> int:
    """Distance between two cluster spans; zero when they overlap."""
    if a.newest < b.oldest:
        return b.oldest - a.newest
    if b.newest < a.oldest:
        return a.oldest - b.newest
    return 0


def analyze_action(
    signature: Signature, matched: Mapping[Bucket, Sequence[TraceState]]
) -> ActionResult:
    """Run the core and supporting analysis for one action.

    ``matched`` holds the trace states :func:`match_pack` found for a pack
    that contains ``signature``.

    When the core traces are consistent, supporting clusters that overlap
    the core window or sit within one threshold of it merge into the same
    execution (the execution updated some supporting objects a little
    earlier or later than the core ones); remaining supporting clusters are
    distinct past executions.  When the core traces indicate parallel
    instances, nothing merges: each core cluster is reported at its own
    time and supporting clusters stand alone, since under overlapping
    executions the pairing of supporting updates to executions is unknown.
    """
    name = signature.action_name
    verdict = core_test(signature.threshold, matched[(name, TraceCategory.CORE)])
    support_clusters = support_test(
        signature.threshold, matched[(name, TraceCategory.SUPPORTING)]
    )

    instance_clusters: list[tuple[Cluster, ConfidenceNote]] = []
    if verdict.status is CoreStatus.CONSISTENT and verdict.clusters:
        core_cluster = verdict.clusters[0]
        absorbed = [
            c for c in support_clusters
            if _span_gap(core_cluster, c) <= signature.threshold
        ]
        merged = _merge_clusters([core_cluster, *absorbed])
        instance_clusters.append((merged, ConfidenceNote.DEFINITE))
        instance_clusters.extend(
            (c, ConfidenceNote.DEFINITE) for c in support_clusters if c not in absorbed
        )
    else:
        note = (
            ConfidenceNote.PARALLEL_INSTANCE_DIAGNOSTIC
            if verdict.status is CoreStatus.MULTI_INSTANCE
            else ConfidenceNote.DEFINITE
        )
        instance_clusters.extend((c, note) for c in verdict.clusters)
        instance_clusters.extend((c, ConfidenceNote.DEFINITE) for c in support_clusters)

    instance_clusters.sort(key=lambda pair: (pair[0].newest, pair[0].oldest))
    instances = []
    for index, (cluster, note) in enumerate(instance_clusters):
        rank = (
            InstanceRank.MOST_RECENT
            if index == len(instance_clusters) - 1
            else InstanceRank.PAST
        )
        instances.append(
            ActionInstanceApproximation(
                action_name=signature.action_name,
                interval=_interval_for(cluster, signature.threshold),
                evidence=cluster.members,
                rank=rank,
                note=note,
            )
        )
    return ActionResult(
        action_name=signature.action_name,
        threshold=signature.threshold,
        core_verdict=verdict,
        support_clusters=tuple(support_clusters),
        instances=tuple(instances),
    )


def shared_attributions(
    pack: SignaturePack,
    matched: Mapping[Bucket, Sequence[TraceState]],
    per_action_results: Mapping[str, ActionResult],
) -> list[SharedAttribution]:
    """Cluster and disambiguate every shared-trace group in the pack.

    Traces shared by the same set of actions are clustered together; the
    grouping threshold is the largest of the candidates' thresholds, the
    conservative choice when they disagree (a wider window merges more and
    claims fewer separate instances).
    """
    attributions: list[SharedAttribution] = []
    for candidates, _ in pack.shared_groups():
        group_threshold = max(pack.get(name).threshold for name in candidates)
        attributions.extend(shared_test(group_threshold, matched[candidates], candidates))
    return disambiguate_shared(attributions, per_action_results)


def _near_existing_instance(
    cluster: Cluster, result: ActionResult | None, threshold: int
) -> bool:
    if result is None:
        return False
    for instance in result.instances:
        existing = Cluster(instance.evidence)
        if _span_gap(cluster, existing) <= threshold:
            return True
    return False


def reconstruct(
    objects: Iterable[ObjectRecord], pack: SignaturePack
) -> list[ActionInstanceApproximation]:
    """Full reconstruction: per-action analysis plus shared-trace layering.

    Resolved shared clusters append an extra instance for the surviving
    candidate unless they fall within one threshold of an instance already
    known for it (then they merely corroborate it).  Shared evidence can
    prove an action ran, but not that the run was its most recent, so
    appended instances rank as past ones.  Output is sorted newest-first
    and is a pure function of the inputs.  ``objects`` is iterated once.
    """
    matched = match_pack(pack, objects)
    results: dict[str, ActionResult] = {
        sig.action_name: analyze_action(sig, matched) for sig in pack
    }

    approximations: list[ActionInstanceApproximation] = []
    for result in results.values():
        approximations.extend(result.instances)

    for attribution in shared_attributions(pack, matched, results):
        if attribution.resolved is None:
            continue
        owner = attribution.resolved
        threshold = pack.get(owner).threshold
        if _near_existing_instance(attribution.cluster, results.get(owner), threshold):
            continue
        approximations.append(
            ActionInstanceApproximation(
                action_name=owner,
                interval=_interval_for(attribution.cluster, threshold),
                evidence=attribution.cluster.members,
                rank=InstanceRank.PAST,
                note=ConfidenceNote.SHARED_AMBIGUOUS,
            )
        )

    approximations.sort(
        key=lambda a: (-(a.interval.end or 0), -a.detected, a.action_name)
    )
    return approximations
