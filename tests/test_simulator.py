import copy
import io
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracerecon import (
    ObjectRecord,
    ScenarioError,
    SimulationError,
    TimestampKind,
    TraceCategory,
    derive_signatures,
    oracle_check,
    parse_bodyfile,
    parse_scenario,
    reconstruct,
    simulate,
    write_bodyfile,
)
from tracerecon.model import (
    ActionInstanceApproximation,
    ConfidenceNote,
    InstanceRank,
    TimeInterval,
    TraceState,
)
from tracerecon.simulator import (
    ActionSpec,
    GroundTruth,
    InstanceSchedule,
    PathVariant,
    ScheduleEntry,
    SimState,
    TruthInstance,
    always_updated_targets,
    apply_instance,
    core_targets,
    export_records,
)
from tracerecon.bodyfile import MAX_TIME, read_bodyfile
from tracerecon.engine import analyze_action, shared_attributions
from tracerecon.signatures import TracePattern, match_pack, path_prefilter

import casedata
from conftest import FIXTURES
from reference_simulator import TruthWrite, writes_of

MOD = TimestampKind.MODIFIED
CRE = TimestampKind.CREATED


def state_from_records(records) -> SimState:
    """Inverse of :func:`export_records` for round trips through metadata files."""
    return {record.path: dict(record.timestamps) for record in records}


def single_target_spec(name="app", threshold=50, path="/obj/a"):
    return ActionSpec(name, threshold, (PathVariant(updates=frozenset({(path, MOD)})),))


def instance_writes(spec, variant_index, index, tau, values):
    """The ``TruthWrite`` log of one applied instance, derived from its ``GroundTruth``."""
    instance = TruthInstance(index, spec.name, tau, variant_index)
    order = spec.variants[variant_index].order
    return list(writes_of(GroundTruth((instance,), ((order, values),))))


# --- applying one instance ----------------------------------------------


def test_update_lands_within_the_threshold_window():
    spec = single_target_spec(threshold=50)
    state, values = apply_instance({}, spec, 0, 1000, random.Random(1))
    value = state["/obj/a"][MOD]
    assert 1000 <= value <= 1050
    assert values == (value,)
    assert instance_writes(spec, 0, 4, 1000, values) == [TruthWrite(4, "/obj/a", MOD, value, False)]


def test_default_write_is_exact():
    spec = ActionSpec(
        "installer", 50, (PathVariant(defaults=frozenset({("/obj/d", CRE, 500)})),)
    )
    state, values = apply_instance({}, spec, 0, 1000, random.Random(1))
    assert state["/obj/d"][CRE] == 500
    assert values == ()
    assert instance_writes(spec, 0, 0, 1000, values) == [TruthWrite(0, "/obj/d", CRE, 500, True)]


def test_apply_instance_updates_the_state_it_is_given_in_place():
    spec = single_target_spec()
    untouched, touched = {MOD: 3}, {MOD: 7}
    state = {"/obj/z": untouched, "/obj/a": touched}
    new_state, values = apply_instance(state, spec, 0, 1000, random.Random(1))
    assert new_state is state
    assert list(state) == ["/obj/z", "/obj/a"]
    assert state["/obj/z"] is untouched and untouched == {MOD: 3}
    assert state["/obj/a"] is touched and touched == {MOD: values[0]}


def reference_apply(state, spec, variant_index, tau, rng, index):
    """apply_instance as it was before it stopped copying untouched paths.

    It writes the ``TruthWrite`` log entries that ``writes_of`` derives
    from the truth now, and draws each delay with ``rng.randint``, the rule
    apply_instance copies.
    """
    variant = spec.variants[variant_index]
    new_state = {path: dict(times) for path, times in state.items()}
    writes = []
    for path, kind in sorted(variant.updates, key=lambda t: (t[0], t[1].value)):
        value = tau + rng.randint(0, spec.threshold)
        new_state.setdefault(path, {})[kind] = value
        writes.append(TruthWrite(index, path, kind, value, False))
    for path, kind, default in sorted(variant.defaults, key=lambda t: (t[0], t[1].value, t[2])):
        new_state.setdefault(path, {})[kind] = default
        writes.append(TruthWrite(index, path, kind, default, True))
    return new_state, writes


SIM_PATHS = ("/a", "/b", "/c", "/d")


@st.composite
def variants_and_states(draw):
    updates, defaults = set(), set()
    for path in SIM_PATHS:
        for kind in (MOD, CRE):
            role = draw(st.sampled_from(("none", "update", "default")))
            if role == "update":
                updates.add((path, kind))
            elif role == "default":
                defaults.add((path, kind, draw(st.integers(0, 9))))
    variant = PathVariant(frozenset(updates), frozenset(defaults))
    state = draw(st.dictionaries(
        st.sampled_from(SIM_PATHS),
        st.dictionaries(st.sampled_from((MOD, CRE)), st.integers(0, 9), max_size=2),
    ))
    return variant, state


# Thresholds at every bit-length edge of the delay bound threshold + 1, where
# the redraw loop rejects most (2**k) or fewest (2**k - 1) draws.
EDGE_THRESHOLDS = sorted({1, 2} | {t for k in range(1, 41) for t in (2**k - 1, 2**k, 2**k + 1)})


@given(
    variants_and_states(),
    st.one_of(st.sampled_from(EDGE_THRESHOLDS), st.integers(1, 2**40)),
    st.integers(0, 1000),
    st.integers(0, 2**16),
    st.integers(0, 9),
)
def test_apply_instance_equals_the_full_copy_reference(
    variant_and_state, threshold, tau, seed, index
):
    variant, state = variant_and_state
    spec = ActionSpec("app", threshold, (variant,))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    ref_state, ref_writes = reference_apply(copy.deepcopy(state), spec, 0, tau, ref_rng, index)
    new_state, values = apply_instance(state, spec, 0, tau, rng)
    assert new_state == ref_state and list(new_state) == list(ref_state)
    assert instance_writes(spec, 0, index, tau, values) == ref_writes
    assert rng.getstate() == ref_rng.getstate()


def test_bad_variant_index_is_fatal():
    with pytest.raises(SimulationError):
        apply_instance({}, single_target_spec(), 3, 1000, random.Random(1))


def test_update_and_default_targets_must_be_disjoint():
    with pytest.raises(ValueError):
        PathVariant(
            updates=frozenset({("/obj/a", MOD)}),
            defaults=frozenset({("/obj/a", MOD, 5)}),
        )


def test_spec_requires_a_variant_and_positive_threshold():
    with pytest.raises(ValueError):
        ActionSpec("a", 10, ())
    with pytest.raises(ValueError):
        ActionSpec("a", 0, (PathVariant(),))


# --- running schedules ---------------------------------------------------


def test_empty_schedule_is_the_identity():
    initial = {"/obj/a": {MOD: 123}}
    records, truth = simulate(initial, {}, InstanceSchedule(()), seed=9)
    assert records == export_records(initial)
    assert truth.instances == ()
    assert truth.written == ()


def test_simulate_does_not_mutate_its_initial_map():
    spec = ActionSpec(
        "app", 50, (PathVariant(updates=frozenset({("/obj/a", MOD), ("/obj/new", MOD)})),)
    )
    times = {MOD: 7, CRE: 3}
    initial = {"/obj/a": times, "/obj/other": {CRE: 1}}
    before = copy.deepcopy(initial)
    schedule = InstanceSchedule.of([ScheduleEntry("app", 1000, 0)])
    records, truth = simulate(initial, {"app": spec}, schedule, seed=3)
    assert initial == before and initial["/obj/a"] is times
    written = {(w.path, w.kind): w.value for w in writes_of(truth)}
    assert written[("/obj/a", MOD)] != 7
    assert {r.path: r.timestamps for r in records}["/obj/a"] == {
        MOD: written[("/obj/a", MOD)], CRE: 3,
    }


def test_same_seed_same_output():
    specs = {"app": single_target_spec()}
    schedule = InstanceSchedule.of(
        [ScheduleEntry("app", 1000, 0), ScheduleEntry("app", 5000, 0)]
    )
    first = simulate({}, specs, schedule, seed=42)
    second = simulate({}, specs, schedule, seed=42)
    assert first == second
    different = simulate({}, specs, schedule, seed=43)
    assert different != first  # overwhelmingly likely with a 51-wide window


def test_ground_truth_pickles_whole_and_bare():
    variant = PathVariant(
        updates=frozenset({("/obj/a", MOD)}), defaults=frozenset({("/obj/d", CRE, 9)})
    )
    truth = GroundTruth((TruthInstance(2, "app", 1000, 0),), ((variant.order, (1005,)),))
    restored = pickle.loads(pickle.dumps(truth))
    assert restored == truth
    assert writes_of(restored) == (
        TruthWrite(2, "/obj/a", MOD, 1005, False), TruthWrite(2, "/obj/d", CRE, 9, True),
    )
    # The bench builds a truth of instances alone, positionally, and pickles it.
    bare = GroundTruth((TruthInstance(0, "app", 5, 1),), ())
    assert pickle.loads(pickle.dumps(bare)) == bare and writes_of(bare) == ()


def test_unknown_action_is_fatal():
    with pytest.raises(SimulationError, match="ghost"):
        simulate({}, {}, InstanceSchedule.of([ScheduleEntry("ghost", 1, 0)]), seed=0)


def test_schedule_must_be_time_ordered():
    with pytest.raises(ValueError):
        InstanceSchedule((ScheduleEntry("a", 10, 0), ScheduleEntry("a", 5, 0)))
    ordered = InstanceSchedule.of([ScheduleEntry("a", 10, 0), ScheduleEntry("a", 5, 0)])
    assert [e.tau for e in ordered.entries] == [5, 10]


def test_every_nondefault_write_obeys_the_delay_bound():
    rng = random.Random(7)
    spec = ActionSpec(
        "app",
        35,
        (
            PathVariant(updates=frozenset({("/o/a", MOD), ("/o/b", CRE)})),
            PathVariant(updates=frozenset({("/o/a", MOD)})),
        ),
    )
    schedule = InstanceSchedule.of(
        [ScheduleEntry("app", rng.randrange(10_000), None) for _ in range(20)]
    )
    _, truth = simulate({}, {"app": spec}, schedule, seed=11)
    tau_of = {i.index: i.tau for i in truth.instances}
    for write in writes_of(truth):
        assert 0 <= write.value - tau_of[write.instance_index] <= 35


def test_two_far_apart_instances_reconstruct_as_two():
    # the first run refreshes a file the second code path leaves alone, so
    # irregular (supporting) evidence of the older instance survives
    spec = ActionSpec(
        "app",
        30,
        (
            PathVariant(updates=frozenset({("/o/a", MOD), ("/o/b", MOD)})),
            PathVariant(updates=frozenset({("/o/b", MOD)})),
        ),
    )
    schedule = InstanceSchedule.of(
        [ScheduleEntry("app", 1000, 0), ScheduleEntry("app", 2000, 1)]
    )
    records, _ = simulate({}, {"app": spec}, schedule, seed=3)
    out = reconstruct(records, derive_signatures({"app": spec}))
    assert len(out) == 2
    for approx, tau in zip(sorted(out, key=lambda a: a.detected), (1000, 2000)):
        assert approx.interval.contains(tau)


def test_total_overwrites_leave_only_the_most_recent_instance():
    # when every target is refreshed by every run, the later run erases the
    # older evidence; only the most recent instance can be recovered
    spec = ActionSpec(
        "app",
        30,
        (PathVariant(updates=frozenset({("/o/a", MOD), ("/o/b", MOD)})),),
    )
    schedule = InstanceSchedule.of(
        [ScheduleEntry("app", 1000, 0), ScheduleEntry("app", 2000, 0)]
    )
    records, _ = simulate({}, {"app": spec}, schedule, seed=3)
    (only,) = reconstruct(records, derive_signatures({"app": spec}))
    assert only.rank is InstanceRank.MOST_RECENT
    assert only.interval.contains(2000)


def test_two_close_instances_merge_into_one_window_containing_both():
    spec = ActionSpec(
        "app",
        60,
        (PathVariant(updates=frozenset({("/o/a", MOD), ("/o/b", MOD)})),),
    )
    schedule = InstanceSchedule.of(
        [ScheduleEntry("app", 1000, 0), ScheduleEntry("app", 1010, 0)]
    )
    records, _ = simulate({}, {"app": spec}, schedule, seed=5)
    out = reconstruct(records, derive_signatures({"app": spec}))
    assert len(out) == 1
    assert out[0].interval.contains(1000) and out[0].interval.contains(1010)


def test_metadata_file_round_trip_preserves_the_engine_view():
    spec = ActionSpec(
        "app",
        20,
        (
            PathVariant(
                updates=frozenset({("/o/a", MOD)}),
                defaults=frozenset({("/o/a", CRE, 300)}),
            ),
        ),
    )
    schedule = InstanceSchedule.of([ScheduleEntry("app", 1000, 0)])
    records, _ = simulate({}, {"app": spec}, schedule, seed=1)
    buffer = io.StringIO()
    write_bodyfile(records, buffer)
    reparsed, diagnostics = parse_bodyfile(buffer.getvalue())
    assert diagnostics == []
    assert reparsed == records
    assert state_from_records(reparsed) == state_from_records(records)


# Paths that a bodyfile reads back unchanged, some ending in a rarer piece
# that makes it read back as another path.
SAFE_PIECES = ["/q", "/a b", "x", "\u00e9", "\u2028", "\x85", "\t", "#", " "]
TRICKY_ENDS = ["\\", " (deleted)", "(deleted-realloc)", "|"]
scenario_paths = st.builds(
    lambda pieces, end: "/p" + "".join(pieces) + end,
    st.lists(st.sampled_from(SAFE_PIECES), max_size=3),
    st.sampled_from([""] * 12 + TRICKY_ENDS),
)
scenario_kinds = st.sampled_from([k.value for k in TimestampKind])
# 0, a bodyfile's "absent", is drawn rarely.
default_epochs = st.sampled_from([1, 1_000_000_000, MAX_TIME] * 4 + [0])
schedule_epochs = st.sampled_from([1, 7, 1_000_000_000, MAX_TIME - 60] * 4 + [0])
target_lines = st.one_of(
    st.builds("ma {} {}".format, scenario_kinds, scenario_paths),
    st.builds("da {} {} {}".format, scenario_kinds, default_epochs, scenario_paths),
    st.builds("oa {}".format, scenario_paths),
)


@st.composite
def scenario_texts(draw):
    """Scenario text of one to three actions and a short schedule."""
    blocks = []
    actions = draw(st.integers(1, 3))
    for a in range(actions):
        lines = [f"action: A{a}", f"threshold: {draw(st.integers(1, 60))}"]
        for _ in range(draw(st.integers(1, 2))):
            lines.append("variant:")
            lines.extend(draw(st.lists(target_lines, min_size=1, max_size=4)))
        blocks.append("\n".join(lines))
    entries = [
        f"{draw(schedule_epochs)} A{draw(st.integers(0, actions - 1))} ?"
        for _ in range(draw(st.integers(0, 4)))
    ]
    return "\n---\n".join(blocks) + "\n---\nschedule:\n" + "\n".join(entries) + "\n"


@settings(max_examples=150)
@given(scenario_texts(), st.integers(0, 3))
def test_every_accepted_scenario_exports_a_bodyfile_that_reads_back_as_its_records(
    text, seed
):
    try:
        scenario = parse_scenario(text)
    except ScenarioError:
        assume(False)
    records, _ = simulate({}, scenario.specs, scenario.schedule, seed)
    buffer = io.StringIO()
    write_bodyfile(records, buffer)
    assert parse_bodyfile(buffer.getvalue()) == (records, [])


# --- derived signatures --------------------------------------------------


def test_derived_categories_follow_update_behavior():
    editor = ActionSpec(
        "editor",
        30,
        (
            PathVariant(updates=frozenset({("/o/core", MOD), ("/o/some", MOD), ("/o/common", MOD)})),
            PathVariant(updates=frozenset({("/o/core", MOD), ("/o/common", MOD)})),
        ),
    )
    viewer = ActionSpec(
        "viewer", 15, (PathVariant(updates=frozenset({("/o/common", MOD)})),)
    )
    pack = derive_signatures({"editor": editor, "viewer": viewer})
    categories = {
        trace.source: trace.category for trace in casedata.signature(pack, "editor").traces
    }
    assert categories["^/o/core$"] is TraceCategory.CORE
    assert categories["^/o/some$"] is TraceCategory.SUPPORTING
    assert categories["^/o/common$"] is TraceCategory.SHARED
    assert pack.buckets[frozenset({"editor", "viewer"})] == (
        TracePattern(TraceCategory.SHARED, MOD, "^/o/common$"),
    )
    assert [key for key in pack.buckets if isinstance(key, frozenset)] == [
        frozenset({"editor", "viewer"})
    ]
    assert always_updated_targets(editor) == frozenset(
        {("/o/core", MOD), ("/o/common", MOD)}
    )


@settings(max_examples=150)
@given(scenario_texts())
def test_core_targets_are_exactly_the_targets_derived_as_core(text):
    try:
        scenario = parse_scenario(text)
    except ScenarioError:
        assume(False)
    pack = derive_signatures(scenario.specs)
    traces = {signature.action_name: signature.traces for signature in pack}
    targets = core_targets(scenario.specs)
    assert list(targets) == list(scenario.specs)
    for name, core in targets.items():
        derived = [t for t in traces.get(name, ()) if t.category is TraceCategory.CORE]
        expected = [TracePattern.for_path(TraceCategory.CORE, kind, path) for path, kind in core]
        assert sorted(derived, key=repr) == sorted(expected, key=repr)


def test_derived_patterns_are_exact_and_matching_ascii_paths_compiles_no_regex():
    scenario, records, _ = run_basic_scenario()
    pack = derive_signatures(scenario.specs)
    traces = [trace for sig in pack for trace in sig.traces]
    assert traces and all(trace.exact is not None for trace in traces)
    assert reconstruct(records, pack)
    assert [trace.source for trace in traces if "regex" in vars(trace)] == []


def test_actions_without_update_targets_are_omitted():
    silent = ActionSpec("silent", 10, (PathVariant(defaults=frozenset({("/o/x", MOD, 5)})),))
    assert derive_signatures({"silent": silent}).signatures == ()


# --- the oracle ----------------------------------------------------------


def run_basic_scenario(seed=0):
    scenario = parse_scenario((FIXTURES / "scenario_basic.scn").read_text())
    records, truth = simulate({}, scenario.specs, scenario.schedule, seed)
    return scenario, records, truth


def test_sound_results_pass_every_property():
    scenario, records, truth = run_basic_scenario()
    results = reconstruct(records, derive_signatures(scenario.specs))
    core_targets = {
        name: always_updated_targets(spec) for name, spec in scenario.specs.items()
    }
    report = oracle_check(truth, results, core_targets)
    assert report.ok, report.summary_lines()
    assert all(line.endswith("PASS") for line in report.summary_lines())


def test_fabricated_interval_fails_soundness_with_a_counterexample():
    _, _, truth = run_basic_scenario()
    bogus = ActionInstanceApproximation(
        "open editor",
        TimeInterval(10, 20),  # long before anything ran
        (TraceState("/profile/editor/state.db", MOD, 20),),
        InstanceRank.PAST,
        ConfidenceNote.DEFINITE,
    )
    report = oracle_check(truth, [bogus], {})
    assert not report.ok
    assert report.failed_properties() == {"interval-soundness"}
    assert any("[10, 20]" in v.detail for v in report.violations)


def test_unscheduled_action_with_results_is_a_false_positive():
    _, _, truth = run_basic_scenario()
    phantom = ActionInstanceApproximation(
        "phantom",
        TimeInterval(0, 10),
        (TraceState("/x", MOD, 10),),
        InstanceRank.MOST_RECENT,
        ConfidenceNote.DEFINITE,
    )
    report = oracle_check(truth, [phantom], {})
    assert report.failed_properties() == {"no-false-positives"}


def test_overcounting_fails_the_count_bound():
    scenario, records, truth = run_basic_scenario()
    results = reconstruct(records, derive_signatures(scenario.specs))
    doubled = results + [r for r in results if r.action_name == "open viewer"]
    report = oracle_check(truth, doubled, {})
    assert "count-bound" in report.failed_properties()


def test_missing_most_recent_coverage_is_reported():
    scenario, records, truth = run_basic_scenario()
    core_targets = {
        name: always_updated_targets(spec) for name, spec in scenario.specs.items()
    }
    results = [
        r
        for r in reconstruct(records, derive_signatures(scenario.specs))
        if r.action_name != "open editor"
    ]
    report = oracle_check(truth, results, core_targets)
    assert "most-recent-coverage" in report.failed_properties()


def test_most_recent_coverage_counts_only_core_updates_of_the_last_instance():
    updates = PathVariant(updates=frozenset({("/core", MOD)}))
    defaults = PathVariant(defaults=frozenset({("/core", MOD, 5)}))
    truth = GroundTruth(
        instances=(TruthInstance(0, "app", 100, 0), TruthInstance(1, "app", 200, 1)),
        written=((updates.order, (120,)), (defaults.order, ())),
    )
    assert writes_of(truth) == (
        TruthWrite(0, "/core", MOD, 120, False),
        TruthWrite(1, "/core", MOD, 5, True),
    )
    assert oracle_check(truth, [], {"app": frozenset({("/core", MOD)})}).ok


def test_a_default_write_on_another_actions_core_target_passes_the_check():
    scenario = parse_scenario(
        "action: X\nthreshold: 10\nvariant:\nma modified /x/core\n---\n"
        "action: Z\nthreshold: 10\nvariant:\nda modified 1000 /x/core\n"
        "ma modified /z/core\n---\nschedule:\n100000 X 0\n200000 Z 0\n"
    )
    records, truth = simulate({}, scenario.specs, scenario.schedule, 0)
    pack = derive_signatures(scenario.specs)
    # X's only target may hold Z's default, so it is no evidence of X.
    assert [signature.action_name for signature in pack] == ["Z"]
    assert core_targets(scenario.specs) == {"X": frozenset(), "Z": frozenset({("/z/core", MOD)})}
    results = reconstruct(records, pack)
    assert oracle_check(truth, results, core_targets(scenario.specs)).ok


def test_a_past_run_seen_through_two_shared_groups_passes_the_count_bound():
    # A's first variant refreshes two targets, one shared with B and one
    # with C; its one past run must not be reported once per shared group.
    scenario = parse_scenario(
        "action: A\nthreshold: 10\nvariant:\nma modified /a/core\n"
        "ma modified /s/one\nma modified /s/two\nvariant:\nma modified /a/core\n---\n"
        "action: B\nthreshold: 10\nma modified /b/core\nma modified /s/one\n---\n"
        "action: C\nthreshold: 10\nma modified /c/core\nma modified /s/two\n---\n"
        "schedule:\n100 B 0\n100 C 0\n500 A 0\n1000 A 1\n"
    )
    records, truth = simulate({}, scenario.specs, scenario.schedule, 1)
    results = reconstruct(records, derive_signatures(scenario.specs))
    assert [r.action_name for r in results].count("A") == 2
    assert oracle_check(truth, results, core_targets(scenario.specs)).ok


ORACLE_PATHS = ("/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h")
ORACLE_TARGETS = [(path, kind) for path in ORACLE_PATHS for kind in (MOD, CRE)]
oracle_targets = st.sampled_from(ORACLE_TARGETS)


@st.composite
def oracle_variants(draw):
    """A variant over a few shared paths; its defaults avoid its own updates only."""
    updates = draw(st.frozensets(oracle_targets, max_size=3))
    defaults = draw(st.dictionaries(oracle_targets, st.integers(1, 10**6), max_size=2))
    return PathVariant(
        updates,
        frozenset((p, k, v) for (p, k), v in defaults.items() if (p, k) not in updates),
    )


@st.composite
def oracle_worlds(draw):
    """Up to five actions on eight paths, so targets are often shared or defaulted
    by another action, and instances close enough to overlap."""
    specs = {}
    for a in range(draw(st.integers(1, 5))):
        variants = tuple(draw(st.lists(oracle_variants(), min_size=1, max_size=2)))
        specs[f"A{a}"] = ActionSpec(f"A{a}", draw(st.integers(1, 100)), variants)
    entries = [
        ScheduleEntry(draw(st.sampled_from(sorted(specs))), draw(st.integers(1, 2000)), None)
        for _ in range(draw(st.integers(0, 6)))
    ]
    return specs, InstanceSchedule.of(entries)


def own_check_report(specs, schedule, seed):
    """Simulate a world, write its bodyfile, read it back through the derived
    pack's prefilter, reconstruct from what was read and check the truth.

    Also checks every shared attribution that resolves, whether or not
    ``reconstruct`` reports it as an instance of its own: its owner truly
    ran in ``[cluster.oldest - threshold, cluster.newest]``.  An eliminated
    candidate wrote last at most its threshold after its newest core value,
    before the cluster, so the owner wrote every value of it.  Returns the
    oracle report and the shared attributions.
    """
    records, truth = simulate({}, specs, schedule, seed)
    pack = derive_signatures(specs)
    text = io.StringIO()
    write_bodyfile(records, text)
    hits = path_prefilter(pack)
    read_back = list(read_bodyfile(io.BytesIO(text.getvalue().encode()), "world", hits))
    # No oracle path holds another, so the prefilter lists exactly the lines
    # of derived paths; with no pattern at all, it lists every line.
    derived = {trace.exact for signature in pack for trace in signature.traces}
    assert read_back == [r for r in records if hits is None or r.path in derived]
    matched = match_pack(pack, read_back)
    results = {signature.action_name: analyze_action(signature, matched) for signature in pack}
    attributions = shared_attributions(matched, results)
    for attribution in attributions:
        owner, cluster = attribution.resolved, attribution.cluster
        if owner is not None:
            start = cluster.oldest - specs[owner].threshold
            assert any(
                instance.action == owner and start <= instance.tau <= cluster.newest
                for instance in truth.instances
            ), (attribution, truth.instances)
    report = oracle_check(truth, reconstruct(read_back, pack), core_targets(specs))
    return report, attributions


@settings(max_examples=300)
@given(oracle_worlds(), st.integers(0, 3))
def test_every_simulated_world_passes_its_own_check(world, seed):
    report, _ = own_check_report(*world, seed)
    assert report.ok, report.summary_lines()


def random_oracle_world(rng):
    """Four to six actions of up to six updates each on eight paths, thresholds up
    to 300 and up to twelve instances in 1-2000: wide enough that one action's
    shared traces often fall in several shared groups."""
    specs = {}
    for a in range(rng.randint(4, 6)):
        variants = []
        for _ in range(rng.randint(1, 2)):
            updates = frozenset(rng.sample(ORACLE_TARGETS, rng.randint(0, 6)))
            defaults = frozenset(
                (p, k, rng.randint(1, 10**6))
                for p, k in rng.sample(ORACLE_TARGETS, rng.randint(0, 2))
                if (p, k) not in updates
            )
            # This draw made the create set; kept so that a seed keeps its worlds.
            rng.sample(ORACLE_PATHS, rng.randint(0, 1))
            variants.append(PathVariant(updates, defaults))
        specs[f"A{a}"] = ActionSpec(f"A{a}", rng.randint(1, 300), tuple(variants))
    names = sorted(specs)
    entries = [
        ScheduleEntry(rng.choice(names), rng.randint(1, 2000), None)
        for _ in range(rng.randint(0, 12))
    ]
    return specs, InstanceSchedule.of(entries)


def test_a_seeded_campaign_of_random_worlds_passes_its_own_check():
    # The property above shrinks well but rarely reaches faults that need
    # several actions to share traces in more than one group.  This campaign
    # reached the double report of one past run through two shared groups
    # (test_a_past_run_seen_through_two_shared_groups_passes_the_count_bound)
    # about once per 500 worlds with that fault put back.
    rng = random.Random(2026)
    failures = []
    wide_clusters = wide_resolved = 0
    for index in range(2000):
        specs, schedule = random_oracle_world(rng)
        report, attributions = own_check_report(specs, schedule, index)
        if not report.ok:
            failures.append((index, specs, schedule, report.summary_lines()))
        for attribution in attributions:
            if len(attribution.candidate_actions) >= 3:
                wide_clusters += 1
                wide_resolved += attribution.resolved is not None
    assert failures == []
    # Elimination among three or more candidates is reached, and resolves;
    # a change to the generator must not silently stop reaching it.
    assert wide_clusters > 0 and wide_resolved > 0, (wide_clusters, wide_resolved)


# --- scenario files ------------------------------------------------------


def test_scenario_fixture_parses_completely():
    scenario = parse_scenario((FIXTURES / "scenario_basic.scn").read_text())
    assert set(scenario.specs) == {"open editor", "open viewer"}
    editor = scenario.specs["open editor"]
    assert editor.threshold == 40
    assert len(editor.variants) == 2
    viewer = scenario.specs["open viewer"]
    assert viewer.variants == (
        PathVariant(
            updates=frozenset(
                {("/profile/viewer/session.ini", MOD), ("/profile/shared/mru.dat", MOD)}
            ),
            defaults=frozenset({("/profile/viewer/install.log", CRE, 900000000)}),
        ),
    )
    assert [e.action for e in scenario.schedule.entries] == [
        "open editor",
        "open viewer",
        "open editor",
    ]


def test_an_oa_line_before_any_variant_opens_an_empty_first_variant():
    text = "action: app\nthreshold: 10\noa /o/x\nvariant:\nma modified /o/a\nschedule:\n"
    assert parse_scenario(text).specs["app"].variants == (
        PathVariant(),
        PathVariant(updates=frozenset({("/o/a", MOD)})),
    )


def test_random_variant_marker_is_seed_stable():
    text = (
        "action: app\nthreshold: 10\nvariant:\nma modified /o/a\nvariant:\nma modified /o/b\n"
        "schedule:\n100 app ?\n200 app ?\n300 app ?\n"
    )
    scenario = parse_scenario(text)
    assert all(e.variant is None for e in scenario.schedule.entries)
    first = simulate({}, scenario.specs, scenario.schedule, seed=21)
    second = simulate({}, scenario.specs, scenario.schedule, seed=21)
    assert first == second


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("action: a\nthreshold: 0\nma modified /x\n", "threshold"),
        ("action: a\nthreshold: 5\nmx modified /x\n", "unrecognized"),
        ("action: a\nthreshold: 5\nma someday /x\n", "kind"),
        ("action: a\nthreshold: 5\nda modified nope /x\n", "default epoch"),
        ("action: a\nthreshold: 5\nma modified /x\nschedule:\n10 ghost 0\n", "unknown action"),
        ("action: a\nthreshold: 5\nma modified /x\nschedule:\n10 a 7\n", "variant"),
        ("action: a\nthreshold: 5\nma modified /x\nschedule:\nten a 0\n", "epoch"),
        ("action: a\nthreshold: 5\nma modified /x\nschedule:\n10 a\n", "schedule entry"),
        ("ma modified /x\n", "before 'action:'"),
        ("action: a\nthreshold: 5\n---\n", "no variants"),
    ],
)
def test_malformed_scenarios_fail_with_line_numbers(text, fragment):
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(text)
    assert fragment in str(exc_info.value)
    assert "line" in str(exc_info.value)


def test_action_names_with_spaces_parse_in_schedules():
    text = (
        "action: open the editor\nthreshold: 10\nma modified /o/a\n"
        "schedule:\n50 open the editor 0\n"
    )
    scenario = parse_scenario(text)
    (entry,) = scenario.schedule.entries
    assert entry.action == "open the editor"
    assert entry.variant == 0


def test_object_record_deletion_flag_not_modeled_in_state():
    record = ObjectRecord(path="C:/x", modified=5, deleted=True)
    assert state_from_records([record]) == {"C:/x": {MOD: 5}}
