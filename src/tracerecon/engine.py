"""Reconstruction engine: threshold clustering and layered shared-trace
disambiguation.

Given ingested object records and a signature pack, the engine resolves all
patterns into trace states in one pass over the records and partitions each
category's states by the action's update threshold (one cluster per inferred
instance).  The clusters are the verdicts: more than one core cluster means
parallel instances, and a shared cluster is attributed by eliminating the
candidate actions whose newest core value rules them out.

Each surviving cluster becomes an :class:`ActionInstanceApproximation` whose
interval is :func:`~tracerecon.model.instance_interval` of the cluster's
oldest and newest values: ``[oldest - threshold, newest]``.
:func:`reconstruction` keeps every layer (the verdicts, the attributions and
the approximations); :func:`reconstruct` returns the approximations alone.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence

from .model import (
    ActionInstanceApproximation,
    ConfidenceNote,
    InstanceRank,
    ObjectRecord,
    Timestamp,
    TraceState,
    instance_interval,
    trace_sort_key,
)
from .signatures import Bucket, Signature, SignaturePack, TraceCategory, match_pack


class Cluster(namedtuple("Cluster", "members")):
    """A maximal run of trace states whose span fits within one threshold."""

    __slots__ = ()

    def __new__(cls, members: tuple[TraceState, ...]) -> Cluster:
        if not members:
            raise ValueError("cluster must have at least one member")
        values = [m.value for m in members]
        if values != sorted(values):
            raise ValueError("cluster members must be sorted ascending by value")
        return tuple.__new__(cls, (members,))

    @property
    def oldest(self) -> Timestamp:
        return self.members[0].value

    @property
    def newest(self) -> Timestamp:
        return self.members[-1].value


class SharedAttribution(namedtuple("SharedAttribution", "cluster candidate_actions resolved")):
    """One cluster of shared-trace evidence and the actions that could own it."""

    __slots__ = ()

    def __new__(
        cls, cluster: Cluster, candidate_actions: frozenset[str], resolved: str | None = None
    ) -> SharedAttribution:
        if not candidate_actions:
            raise ValueError("attribution requires at least one candidate action")
        if resolved is not None and resolved not in candidate_actions:
            raise ValueError("resolved action must be one of the candidates")
        return tuple.__new__(cls, (cluster, candidate_actions, resolved))


class ActionResult(
    namedtuple("ActionResult", "action_name threshold core_clusters support_clusters instances")
):
    """Per-action analysis: core and supporting clusters, and ranked instances."""

    action_name: str
    threshold: int
    core_clusters: tuple[Cluster, ...]
    support_clusters: tuple[Cluster, ...]
    instances: tuple[ActionInstanceApproximation, ...]

    __slots__ = ()

    @property
    def parallel(self) -> bool:
        """Whether the core values disagree by more than the threshold.

        Every execution refreshes every core trace, so core values more than
        one threshold apart only arise when instances overlap in time (e.g.
        one holds an object locked while another runs).  Each core cluster
        is then reported as its own execution.  No core evidence, or one
        core cluster, is consistent.
        """
        return len(self.core_clusters) > 1


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


def _merge_clusters(clusters: Iterable[Cluster]) -> Cluster:
    members = sorted(
        (m for c in clusters for m in c.members), key=trace_sort_key
    )
    return Cluster(tuple(members))


def _approximation(
    name: str, threshold: int, cluster: Cluster, rank: InstanceRank, note: ConfidenceNote
) -> ActionInstanceApproximation:
    interval = instance_interval(cluster.oldest, cluster.newest, threshold)
    return ActionInstanceApproximation(name, interval, cluster.members, rank, note)


def _span_gap(a: Cluster, b: Cluster) -> int:
    """Distance between two cluster spans; zero when they overlap."""
    return max(0, b.oldest - a.newest, a.oldest - b.newest)


def analyze_action(
    signature: Signature, matched: Mapping[Bucket, Sequence[TraceState]]
) -> ActionResult:
    """Run the core and supporting analysis for one action.

    ``matched`` holds the trace states :func:`match_pack` found for a pack
    that contains ``signature``.

    When the core values form one cluster, supporting clusters that overlap
    the core window or sit within one threshold of it merge into the same
    execution (the execution updated some supporting objects a little
    earlier or later than the core ones); remaining supporting clusters are
    distinct past executions.  When they form several
    (:attr:`ActionResult.parallel`), nothing merges: each core cluster is reported at its own
    time and supporting clusters stand alone, since under overlapping
    executions the pairing of supporting updates to executions is unknown.
    """
    name = signature.action_name
    core_clusters = cluster_by_threshold(
        matched[(name, TraceCategory.CORE)], signature.threshold
    )
    support_clusters = cluster_by_threshold(
        matched[(name, TraceCategory.SUPPORTING)], signature.threshold
    )

    instance_clusters: list[tuple[Cluster, ConfidenceNote]] = []
    if len(core_clusters) == 1:
        (core_cluster,) = core_clusters
        absorbed = [
            c for c in support_clusters
            if _span_gap(core_cluster, c) <= signature.threshold
        ]
        merged = _merge_clusters([core_cluster, *absorbed])
        instance_clusters.append((merged, ConfidenceNote.DEFINITE))
        instance_clusters.extend(
            (c, ConfidenceNote.DEFINITE) for c in support_clusters if c not in absorbed
        )
    else:  # no core cluster, or parallel instances
        instance_clusters.extend(
            (c, ConfidenceNote.PARALLEL_INSTANCE_DIAGNOSTIC) for c in core_clusters
        )
        instance_clusters.extend((c, ConfidenceNote.DEFINITE) for c in support_clusters)

    instance_clusters.sort(key=lambda pair: (pair[0].newest, pair[0].oldest))
    instances = []
    for index, (cluster, note) in enumerate(instance_clusters):
        rank = (
            InstanceRank.MOST_RECENT
            if index == len(instance_clusters) - 1
            else InstanceRank.PAST
        )
        instances.append(_approximation(name, signature.threshold, cluster, rank, note))
    return ActionResult(
        action_name=signature.action_name,
        threshold=signature.threshold,
        core_clusters=tuple(core_clusters),
        support_clusters=tuple(support_clusters),
        instances=tuple(instances),
    )


def shared_attributions(
    matched: Mapping[Bucket, Sequence[TraceState]],
    results: Mapping[str, ActionResult],
) -> list[SharedAttribution]:
    """Cluster every shared group of ``matched`` and attribute each cluster.

    ``matched`` is what :func:`match_pack` returned; its shared groups are
    its frozenset keys.  ``results`` holds the :func:`analyze_action`
    verdict of every candidate of every group: each verdict carries the
    threshold and the core clusters that bound when its action could
    have run.

    Traces shared by the same set of actions are clustered together; the
    grouping threshold is the largest of the candidates' thresholds, the
    conservative choice when they disagree (a wider window merges more and
    claims fewer separate instances).

    Each cluster's candidates are eliminated in one loop.  A group with one
    candidate resolves to it unconditionally.  Otherwise core traces are
    refreshed by every execution, so an action cannot have run after its
    newest core value plus its threshold: a cluster whose oldest value is
    later than that bound drops the action.  A candidate without core
    evidence is never dropped.  The cluster resolves when exactly one
    candidate survives; with several no conclusion is possible.
    """
    attributions: list[SharedAttribution] = []
    for candidates, states in matched.items():
        if not isinstance(candidates, frozenset):
            continue
        group_threshold = max(results[name].threshold for name in candidates)
        for cluster in cluster_by_threshold(states, group_threshold):
            survivors = set(candidates)
            for name in candidates:
                result = results[name]
                if len(candidates) == 1 or not result.core_clusters:
                    continue
                if cluster.oldest > result.core_clusters[-1].newest + result.threshold:
                    survivors.discard(name)
            resolved = survivors.pop() if len(survivors) == 1 else None
            attributions.append(SharedAttribution(cluster, candidates, resolved))
    return attributions


class Reconstruction(namedtuple("Reconstruction", "results attributions approximations")):
    """Every layer of one reconstruction.

    ``results`` holds each action's :func:`analyze_action` verdict, by name;
    ``attributions`` is :func:`shared_attributions` of the same match; and
    ``approximations`` is what :func:`reconstruct` returns.
    """

    results: dict[str, ActionResult]
    attributions: list[SharedAttribution]
    approximations: list[ActionInstanceApproximation]

    __slots__ = ()


def reconstruction(objects: Iterable[ObjectRecord], pack: SignaturePack) -> Reconstruction:
    """Full reconstruction: per-action analysis plus shared-trace layering.

    Resolved shared clusters append an extra instance for the surviving
    candidate unless they fall within one threshold of an instance already
    reported for it, its own or one a shared cluster appended before (then
    they merely corroborate it).  Shared evidence can
    prove an action ran, but not that the run was its most recent, so
    appended instances rank as past ones.  Approximations are sorted
    newest-first, and the whole is a pure function of the inputs.
    ``objects`` is iterated once.
    """
    matched = match_pack(pack, objects)
    results = {sig.action_name: analyze_action(sig, matched) for sig in pack}
    attributions = shared_attributions(matched, results)

    reported = {name: list(result.instances) for name, result in results.items()}
    for attribution in attributions:
        if attribution.resolved is None:
            continue
        owner = results[attribution.resolved]
        known = reported[owner.action_name]
        if any(
            _span_gap(attribution.cluster, Cluster(instance.evidence)) <= owner.threshold
            for instance in known
        ):
            continue
        known.append(
            _approximation(
                owner.action_name,
                owner.threshold,
                attribution.cluster,
                InstanceRank.PAST,
                ConfidenceNote.SHARED_AMBIGUOUS,
            )
        )

    approximations = [a for instances in reported.values() for a in instances]
    approximations.sort(key=lambda a: (-a.interval.end, -a.detected, a.action_name))
    return Reconstruction(results, attributions, approximations)


def reconstruct(
    objects: Iterable[ObjectRecord], pack: SignaturePack
) -> list[ActionInstanceApproximation]:
    """The approximations of :func:`reconstruction`, newest first."""
    return reconstruction(objects, pack).approximations
