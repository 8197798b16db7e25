import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracerecon import (
    ConfidenceNote,
    InstanceRank,
    ObjectRecord,
    TimestampKind,
    TraceCategory,
    TraceState,
    load_metadata,
    match_pack,
    parse_signature_pack,
    reconstruct,
)
from tracerecon.engine import (
    Cluster,
    SharedAttribution,
    analyze_action,
    cluster_by_threshold,
    shared_attributions,
)
from tracerecon.model import trace_sort_key
from tracerecon.signatures import Signature, TracePattern

import casedata
from conftest import FIXTURES, epoch


def states_of(*values):
    return [
        TraceState(f"C:/obj{i}", TimestampKind.MODIFIED, v)
        for i, v in enumerate(values)
    ]


def cluster_values(clusters):
    return [[m.value for m in c.members] for c in clusters]


def signature_of(action, threshold):
    return Signature(
        action, threshold, (TracePattern(TraceCategory.CORE, TimestampKind.MODIFIED, "x"),)
    )


def analyzed(action, threshold, core_values=(), support_values=()):
    """``analyze_action`` on hand-made core and supporting values."""
    matched = {
        (action, TraceCategory.CORE): states_of(*core_values),
        (action, TraceCategory.SUPPORTING): states_of(*support_values),
    }
    return analyze_action(signature_of(action, threshold), matched)


def attribute(threshold, shared_values, candidates, verdicts):
    """``shared_attributions`` for one group of actions sharing the given values.

    Each candidate gets a no-evidence verdict at ``threshold`` unless
    ``verdicts`` gives its own.
    """
    results = {name: analyzed(name, threshold) for name in candidates}
    results.update(verdicts)
    matched = {frozenset(candidates): states_of(*shared_values)}
    return shared_attributions(matched, results)


# --- clustering ---------------------------------------------------------


def test_overlapping_chain_splits_at_the_oldest_not_the_previous_value():
    # 13:00:58 is within 60 s of 13:00:00 but not of the cluster's oldest
    # value 12:59:30, so it must open a second cluster
    t1, t2, t3 = (
        epoch(2010, 1, 1, 12, 59, 30),
        epoch(2010, 1, 1, 13, 0, 0),
        epoch(2010, 1, 1, 13, 0, 58),
    )
    clusters = cluster_by_threshold(states_of(t1, t2, t3), 60)
    assert cluster_values(clusters) == [[t1, t2], [t3]]


def test_example_supporting_set_splits_into_two_instances():
    clusters = cluster_by_threshold(
        states_of(casedata.T_SUP_EARLY, casedata.T_SUP_A, casedata.T_SUP_B), 30
    )
    assert cluster_values(clusters) == [
        [casedata.T_SUP_EARLY],
        [casedata.T_SUP_A, casedata.T_SUP_B],
    ]


def test_single_state_forms_a_singleton_cluster():
    (cluster,) = cluster_by_threshold(states_of(1000), 60)
    assert cluster.members[0].value == 1000
    assert cluster.oldest == cluster.newest == 1000


def test_empty_input_clusters_to_nothing():
    assert cluster_by_threshold([], 60) == []


def test_unsorted_input_is_sorted_first():
    clusters = cluster_by_threshold(states_of(300, 100, 101), 50)
    assert cluster_values(clusters) == [[100, 101], [300]]


values_strategy = st.lists(st.integers(0, 5000), min_size=0, max_size=40)
threshold_strategy = st.integers(0, 500)


@given(values_strategy, threshold_strategy)
def test_clustering_is_a_partition_with_bounded_spans(values, threshold):
    states = states_of(*values)
    clusters = cluster_by_threshold(states, threshold)
    regrouped = [m for c in clusters for m in c.members]
    assert sorted(m.value for m in regrouped) == sorted(values)
    assert len(regrouped) == len(states)
    for c in clusters:
        assert c.newest - c.oldest <= threshold
    for earlier, later in zip(clusters, clusters[1:]):
        assert later.oldest - earlier.oldest > threshold


# --- core clusters -----------------------------------------------------


def test_consistent_core_pair():
    result = analyzed("A", 30, core_values=(casedata.T_CORE_1, casedata.T_CORE_2))
    assert not result.parallel
    (cluster,) = result.core_clusters
    assert (cluster.oldest, cluster.newest) == (casedata.T_CORE_1, casedata.T_CORE_2)


def test_core_disagreement_reports_parallel_instances():
    t_a, t_b = epoch(2011, 7, 24, 13, 24, 14), epoch(2011, 7, 24, 15, 2, 31)
    result = analyzed("A", 50, core_values=(t_a, t_b))
    assert result.parallel
    assert cluster_values(result.core_clusters) == [[t_a], [t_b]]


def test_empty_core_evidence_is_vacuously_consistent():
    result = analyzed("A", 10)
    assert not result.parallel
    assert result.core_clusters == ()


def test_single_core_state_is_consistent():
    assert not analyzed("A", 1, core_values=(123,)).parallel


@given(values_strategy, st.integers(1, 500))
def test_core_consistency_means_span_within_threshold(values, threshold):
    result = analyzed("A", threshold, core_values=values)
    if values:
        brute_consistent = max(values) - min(values) <= threshold
        assert result.parallel is not brute_consistent


# --- supporting clusters ------------------------------------------------


def test_supporting_partition_of_the_computer1_values():
    result = analyzed("A", casedata.FF3_THRESHOLD, support_values=casedata.C1_FF3_SUPPORT)
    assert cluster_values(result.support_clusters) == [[v] for v in casedata.C1_FF3_SUPPORT]


def test_dense_supporting_values_collapse_to_the_core_interval():
    values = (1000, 1010, 1020)
    result = analyzed("A", 30, core_values=values, support_values=values)
    assert cluster_values(result.support_clusters) == cluster_values(result.core_clusters)


# --- shared attribution and elimination ---------------------------------


def test_shared_clusters_keep_all_candidates():
    attributions = attribute(
        30, (casedata.T_SHARED_NEAR, casedata.T_SHARED_LATE), {casedata.X, casedata.Y}, {}
    )
    assert [a.cluster.oldest for a in attributions] == [
        casedata.T_SHARED_NEAR,
        casedata.T_SHARED_LATE,
    ]
    assert all(a.candidate_actions == {casedata.X, casedata.Y} for a in attributions)
    assert all(a.resolved is None for a in attributions)


def test_single_candidate_resolves_immediately():
    (attribution,) = attribute(30, (500,), {"OnlyAction"}, {})
    assert attribution.resolved == "OnlyAction"


def test_single_candidate_resolves_even_past_its_core_horizon():
    # 10_000 is later than the lone candidate's newest core value plus its
    # threshold, which would eliminate it in a group of two; alone, the
    # shared evidence can only be its own
    per_action = {"OnlyAction": analyzed("OnlyAction", 30, core_values=(100,))}
    (attribution,) = attribute(30, (10_000,), {"OnlyAction"}, per_action)
    assert attribution.resolved == "OnlyAction"


def test_no_shared_states_no_attributions():
    assert attribute(30, (), {"A", "B"}, {}) == []


def test_cluster_after_the_last_core_execution_eliminates_that_action():
    per_action = {
        casedata.X: analyzed(casedata.X, 30, core_values=(casedata.T_CORE_1, casedata.T_CORE_2))
    }
    (late,) = attribute(30, (casedata.T_SHARED_LATE,), {casedata.X, casedata.Y}, per_action)
    assert late.resolved == casedata.Y


def test_cluster_inside_a_known_instance_stays_unresolved():
    per_action = {
        casedata.X: analyzed(casedata.X, 30, core_values=(casedata.T_CORE_1, casedata.T_CORE_2))
    }
    (near,) = attribute(30, (casedata.T_SHARED_NEAR,), {casedata.X, casedata.Y}, per_action)
    assert near.resolved is None
    assert near.candidate_actions == {casedata.X, casedata.Y}


def test_elimination_bound_is_the_newest_of_parallel_core_clusters():
    # A's core values form two parallel clusters; the shared value at 500
    # is past the first one's horizon (130) but not the last one's (1030)
    per_action = {"A": analyzed("A", 30, core_values=(100, 1000))}
    assert per_action["A"].parallel
    (attribution,) = attribute(30, (500,), {"A", "B"}, per_action)
    assert attribution.resolved is None


def test_actions_without_core_evidence_cannot_be_eliminated():
    per_action = {
        "A": analyzed("A", 30, support_values=(100,)),  # support only
        "B": analyzed("B", 30),
    }
    (attribution,) = attribute(30, (10_000,), {"A", "B"}, per_action)
    assert attribution.resolved is None


def test_a_group_clusters_at_its_largest_candidate_threshold():
    # 1050 is 50 s after 1000: past A's 10 s threshold but within B's 100 s,
    # so the group's one window holds both values
    verdicts = {"B": analyzed("B", 100)}
    (attribution,) = attribute(10, (1000, 1050), {"A", "B"}, verdicts)
    assert (attribution.cluster.oldest, attribution.cluster.newest) == (1000, 1050)
    assert attribution.resolved is None


def test_a_cluster_at_exactly_the_elimination_bound_keeps_the_candidate():
    # A's bound is its newest core value plus its threshold, 1000 + 30; a
    # cluster starting at 1030 is not later than that, so A survives
    verdicts = {
        "A": analyzed("A", 30, core_values=(1000,)),
        "B": analyzed("B", 30, core_values=(5000,)),
    }
    (attribution,) = attribute(30, (1030,), {"A", "B"}, verdicts)
    assert attribution.resolved is None


def test_attribution_invariants():
    cluster = Cluster(tuple(states_of(5)))
    with pytest.raises(ValueError):
        SharedAttribution(cluster, frozenset())
    with pytest.raises(ValueError):
        SharedAttribution(cluster, frozenset({"A"}), resolved="B")


# --- per-action analysis and merging ------------------------------------


def worked_example_objects():
    return load_metadata(FIXTURES / "worked_example.body")


def test_supporting_evidence_merges_into_a_consistent_core_window(worked_example_pack):
    matched = match_pack(worked_example_pack, worked_example_objects())
    result = analyze_action(casedata.signature(worked_example_pack, casedata.X), matched)
    assert not result.parallel
    last, previous = result.instances[-1], result.instances[0]
    assert last.rank is InstanceRank.MOST_RECENT
    # the merged window is anchored by the older supporting update
    assert last.detected == casedata.T_SUP_A
    assert last.interval.end == casedata.T_SUP_B
    assert last.interval.start == casedata.T_SUP_A - casedata.EXAMPLE_THRESHOLD
    assert len(last.evidence) == 4  # two core plus two supporting values
    assert previous.rank is InstanceRank.PAST
    assert previous.detected == casedata.T_SUP_EARLY


def test_parallel_instances_do_not_absorb_supporting_clusters(ff3_pack):
    objects = load_metadata(FIXTURES / "computer1.body")
    ff3 = casedata.signature(ff3_pack, casedata.FF3)
    result = analyze_action(ff3, match_pack(ff3_pack, objects))
    assert result.parallel
    by_anchor = {i.detected: i for i in result.instances}
    # both core values stand alone as parallel-instance detections, even
    # though a supporting update sits four seconds from one of them
    for anchor in (epoch(2011, 7, 24, 13, 24, 14), epoch(2011, 7, 24, 15, 2, 31)):
        assert by_anchor[anchor].note is ConfidenceNote.PARALLEL_INSTANCE_DIAGNOSTIC
        assert len(by_anchor[anchor].evidence) == 1
    assert by_anchor[epoch(2011, 7, 24, 13, 24, 10)].note is ConfidenceNote.DEFINITE


def test_supporting_cluster_merges_ahead_of_the_core_window(ie8_pack):
    objects = load_metadata(FIXTURES / "computer2.body")
    ie8 = casedata.signature(ie8_pack, casedata.IE8)
    result = analyze_action(ie8, match_pack(ie8_pack, objects))
    most_recent = result.instances[-1]
    assert most_recent.rank is InstanceRank.MOST_RECENT
    assert most_recent.detected == epoch(2011, 7, 17, 15, 15, 9)  # support crtime
    assert most_recent.interval.end == epoch(2011, 7, 17, 15, 15, 13)  # core mtime
    assert len(most_recent.evidence) == 2


def test_trace_states_of_all_categories_merge(ff3_pack):
    objects = load_metadata(FIXTURES / "computer1.body")
    matched = match_pack(ff3_pack, objects)
    states = sorted(
        (s for category in (TraceCategory.CORE, TraceCategory.SUPPORTING)
         for s in matched[(casedata.FF3, category)]),
        key=trace_sort_key,
    )
    assert [s.value for s in states] == sorted(
        casedata.C1_FF3_CORE + casedata.C1_FF3_SUPPORT
    )


# --- full reconstruction -------------------------------------------------


def test_worked_example_reconstruction(worked_example_pack):
    out = reconstruct(worked_example_objects(), worked_example_pack)
    assert [(a.action_name, a.detected, a.rank, a.note) for a in out] == [
        (casedata.Y, casedata.T_SHARED_LATE, InstanceRank.PAST, ConfidenceNote.SHARED_AMBIGUOUS),
        (casedata.X, casedata.T_SUP_A, InstanceRank.MOST_RECENT, ConfidenceNote.DEFINITE),
        (casedata.X, casedata.T_SUP_EARLY, InstanceRank.PAST, ConfidenceNote.DEFINITE),
    ]


class CountingRecords:
    """An iterable of records that counts how often it is walked."""

    def __init__(self, records):
        self.records = records
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return iter(self.records)


def test_reconstruct_walks_the_records_once(worked_example_pack, browser_pack):
    for pack, names in (
        (worked_example_pack, ["worked_example.body"]),
        (browser_pack, ["computer1.body", "computer2.body"]),
    ):
        objects = [r for name in names for r in load_metadata(FIXTURES / name)]
        counted = CountingRecords(objects)
        assert reconstruct(counted, pack) == reconstruct(objects, pack)
        assert counted.passes == 1


def test_resolved_shared_cluster_near_an_existing_instance_only_corroborates():
    # B's shared trace value sits within B's known instance window, so no
    # second instance may be claimed from it
    pack = parse_signature_pack(
        "action: A\nthreshold: 30\ncore modified .*/a-core$\nshared modified .*/lib$\n"
        "---\n"
        "action: B\nthreshold: 30\ncore modified .*/b-core$\nshared modified .*/lib$\n"
    )
    objects = [
        ObjectRecord(path="C:/x/a-core", modified=1000),
        ObjectRecord(path="C:/x/b-core", modified=5000),
        ObjectRecord(path="C:/x/lib", modified=5010),  # after A's horizon, inside B's
    ]
    out = reconstruct(objects, pack)
    assert [(a.action_name, a.detected) for a in out] == [("B", 5000), ("A", 1000)]


def test_a_resolved_cluster_one_threshold_from_an_instance_corroborates_it():
    # the shared value at 1030 resolves to A (B's bound is 100 + 30) and
    # sits exactly one threshold after A's instance, so it claims no new run
    pack = parse_signature_pack(
        "action: A\nthreshold: 30\ncore modified ^/a/core$\nshared modified ^/lib$\n---\n"
        "action: B\nthreshold: 30\ncore modified ^/b/core$\nshared modified ^/lib$\n"
    )
    objects = [
        ObjectRecord(path="/a/core", modified=1000),
        ObjectRecord(path="/b/core", modified=100),
        ObjectRecord(path="/lib", modified=1030),
    ]
    out = reconstruct(objects, pack)
    assert [(a.action_name, a.detected) for a in out] == [("A", 1000), ("B", 100)]


def test_one_past_run_seen_through_two_shared_groups_is_reported_once():
    # A's past run refreshed /s/one (shared with B) and /s/two (shared with
    # C); both clusters resolve to A, and the second corroborates the
    # instance the first appended instead of claiming a third run.
    pack = parse_signature_pack(
        "action: A\nthreshold: 10\ncore modified ^/a/core$\n"
        "shared modified ^/s/one$\nshared modified ^/s/two$\n---\n"
        "action: B\nthreshold: 10\ncore modified ^/b/core$\nshared modified ^/s/one$\n---\n"
        "action: C\nthreshold: 10\ncore modified ^/c/core$\nshared modified ^/s/two$\n"
    )
    objects = [
        ObjectRecord(path="/a/core", modified=1007),
        ObjectRecord(path="/b/core", modified=102),
        ObjectRecord(path="/c/core", modified=101),
        ObjectRecord(path="/s/one", modified=507),
        ObjectRecord(path="/s/two", modified=507),
    ]
    out = reconstruct(objects, pack)
    assert [(a.action_name, a.rank, a.interval.start, a.note) for a in out] == [
        ("A", InstanceRank.MOST_RECENT, 997, ConfidenceNote.DEFINITE),
        ("A", InstanceRank.PAST, 497, ConfidenceNote.SHARED_AMBIGUOUS),
        ("B", InstanceRank.MOST_RECENT, 92, ConfidenceNote.DEFINITE),
        ("C", InstanceRank.MOST_RECENT, 91, ConfidenceNote.DEFINITE),
    ]


def test_empty_object_list_reconstructs_to_nothing(browser_pack):
    assert reconstruct([], browser_pack) == []


def test_reconstruction_is_order_independent(browser_pack):
    objects = load_metadata(FIXTURES / "computer1.body")
    baseline = reconstruct(objects, browser_pack)
    rng = random.Random(13)
    for _ in range(5):
        shuffled = objects[:]
        rng.shuffle(shuffled)
        assert reconstruct(shuffled, browser_pack) == baseline


def test_output_is_sorted_newest_first(browser_pack):
    objects = load_metadata(FIXTURES / "computer1.body")
    out = reconstruct(objects, browser_pack)
    ends = [a.interval.end for a in out]
    assert ends == sorted(ends, reverse=True)


def test_instance_window_is_threshold_plus_evidence_span(browser_pack):
    thresholds = {sig.action_name: sig.threshold for sig in browser_pack}
    for computer in ("computer1", "computer2"):
        for approx in reconstruct(load_metadata(FIXTURES / f"{computer}.body"), browser_pack):
            span = max(s.value for s in approx.evidence) - approx.detected
            assert approx.interval.end - approx.interval.start == thresholds[approx.action_name] + span


def test_per_row_and_per_object_encodings_reconstruct_identically(ff3_pack):
    # Table-style one-line-per-timestamp encoding carries the same evidence
    # as the realistic one-line-per-object encoding
    per_row = load_metadata(FIXTURES / "computer1_ff3_rows.body")
    per_object = [
        r
        for r in load_metadata(FIXTURES / "computer1.body")
        if "Prefetch/Iexplore" not in r.path and "/Cookies/" not in r.path
    ]
    rows_out = reconstruct(per_row, ff3_pack)
    objects_out = reconstruct(per_object, ff3_pack)
    assert [(a.detected, a.rank, a.note) for a in rows_out] == [
        (a.detected, a.rank, a.note) for a in objects_out
    ]
