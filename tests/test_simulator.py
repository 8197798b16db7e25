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
    EPOCH_FLOOR,
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
    core_targets,
    export_records,
)
from tracerecon import engine
from tracerecon.bodyfile import MAX_TIME
from tracerecon.signatures import TracePattern, path_prefilter

import casedata
from conftest import FIXTURES
import reference_simulator
from reference_simulator import TruthWrite, writes_of
from worlds import campaign, oracle_worlds, own_check_report, seeded_worlds

MOD = TimestampKind.MODIFIED
CRE = TimestampKind.CREATED


def state_from_records(records) -> SimState:
    """Inverse of :func:`export_records` for round trips through metadata files."""
    return {record.path: dict(record.timestamps) for record in records}


def single_target_spec(name="app", threshold=50, path="/obj/a"):
    return ActionSpec(name, threshold, (PathVariant(updates=frozenset({(path, MOD)})),))


# --- the writes of one instance -----------------------------------------


def run_one(spec, tau=1000, seed=1, initial=None, variant=0):
    """Simulate one instance of ``spec``: its records and its ground truth."""
    schedule = InstanceSchedule((ScheduleEntry(spec.name, tau, variant),))
    return simulate(initial or {}, {spec.name: spec}, schedule, seed)


def test_update_lands_within_the_threshold_window():
    spec = single_target_spec(threshold=50)
    records, truth = run_one(spec)
    (record,) = records
    value = record.timestamps[MOD]
    assert 1000 <= value <= 1050
    assert truth.written == ((spec.variants[0].order, (value,)),)
    assert list(writes_of(truth)) == [TruthWrite(0, "/obj/a", MOD, value, False)]


def test_default_write_is_exact():
    spec = ActionSpec(
        "installer", 50, (PathVariant(defaults=frozenset({("/obj/d", CRE, 500)})),)
    )
    records, truth = run_one(spec)
    assert [(r.path, r.timestamps) for r in records] == [("/obj/d", {CRE: 500})]
    assert truth.written == ((spec.variants[0].order, ()),)
    assert list(writes_of(truth)) == [TruthWrite(0, "/obj/d", CRE, 500, True)]


def test_simulate_leaves_initial_as_it_was_and_keeps_its_untouched_paths():
    spec = single_target_spec()
    untouched, touched = {MOD: 3}, {MOD: 7}
    initial = {"/obj/z": untouched, "/obj/a": touched}
    records, truth = run_one(spec, initial=initial)
    assert initial == {"/obj/z": {MOD: 3}, "/obj/a": {MOD: 7}}
    assert initial["/obj/z"] is untouched and initial["/obj/a"] is touched
    ((_, (value,)),) = truth.written
    assert {r.path: r.timestamps for r in records} == {"/obj/a": {MOD: value}, "/obj/z": {MOD: 3}}


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

# Four variants with one update each and a 2**40-wide window: a trailing '?'
# pick of this action, and the delay it draws, show whether the simulator
# left the generator where the reference leaves it.
PROBE = ActionSpec("probe", 2**40, tuple(
    PathVariant(updates=frozenset({(f"/probe/{i}", MOD)})) for i in range(4)
))


@given(
    variants_and_states(),
    st.one_of(st.sampled_from(EDGE_THRESHOLDS), st.integers(1, 2**40)),
    st.lists(st.tuples(st.integers(0, 1000), st.sampled_from((0, None))), min_size=1, max_size=4),
    st.integers(0, 2**16),
)
def test_simulate_draws_as_the_randint_reference(variant_and_state, threshold, runs, seed):
    variant, initial = variant_and_state
    specs = {"app": ActionSpec("app", threshold, (variant,)), "probe": PROBE}
    entries = [ScheduleEntry("app", tau, pick) for tau, pick in runs]
    schedule = InstanceSchedule.of([*entries, ScheduleEntry("probe", 2000, None)])
    before = copy.deepcopy(initial)
    records, truth = simulate(initial, specs, schedule, seed)
    expected_records, expected = reference_simulator.simulate(initial, specs, schedule, seed)
    assert initial == before
    assert records == expected_records
    assert truth.instances == expected.instances
    assert writes_of(truth) == expected.writes


def test_bad_variant_index_is_fatal():
    with pytest.raises(SimulationError, match="no variant 3"):
        run_one(single_target_spec(), variant=3)


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


# A updates /s and B writes /s as a default.  The final /s is the time of its
# last writer: not that of the variant that ran first, nor of any variant's
# first instance.
@pytest.mark.parametrize("runs, last_writer", [("ABAB", 3), ("ABA", 2), ("BABA", 3)])
def test_a_target_keeps_the_time_of_its_last_writer(runs, last_writer):
    specs = {
        "A": ActionSpec("A", 30, (PathVariant(updates=frozenset({("/s", MOD)})),)),
        "B": ActionSpec("B", 30, (PathVariant(defaults=frozenset({("/s", MOD, 500)})),)),
    }
    schedule = InstanceSchedule.of(
        [ScheduleEntry(name, 1000 * (i + 1), 0) for i, name in enumerate(runs)]
    )
    records, truth = simulate({}, specs, schedule, seed=4)
    written = {w.instance_index: w.value for w in writes_of(truth)}
    assert [(r.path, r.timestamps) for r in records] == [("/s", {MOD: written[last_writer]})]
    assert records == reference_simulator.simulate({}, specs, schedule, 4)[0]


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


def test_a_pack_derived_for_non_ascii_targets_is_exact_and_prefiltered():
    scenario = parse_scenario(
        "action: A\nthreshold: 10\nma modified /d/Caf\u00e9/\u00b5\nma accessed /d/\u0391\u03a3\n"
        "---\naction: B\nthreshold: 10\nma modified /d/\u0130\u017f\nma modified /e/caf\u00e9\n"
        "---\nschedule:\n1000 A 0\n3000 B 0\n5000 A 0\n"
    )
    pack = derive_signatures(scenario.specs)
    traces = [trace for sig in pack for trace in sig.traces]
    assert len(traces) == 4 and all(trace.exact is not None for trace in traces)
    assert path_prefilter(pack) is not None
    assert own_check_report(scenario.specs, scenario.schedule, 1)[0] == []
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


@settings(max_examples=300)
@given(oracle_worlds(), st.integers(0, 3))
def test_every_simulated_world_passes_its_own_check(world, seed):
    failures, _ = own_check_report(*world, seed)
    assert failures == []


def test_a_seeded_campaign_of_random_worlds_passes_its_own_check():
    # The property above shrinks well but rarely reaches faults that need
    # several actions to share traces in more than one group.  This campaign
    # reached the double report of one past run through two shared groups
    # (test_a_past_run_seen_through_two_shared_groups_passes_the_count_bound)
    # about once per 500 worlds with that fault put back.
    failures, attributions = campaign(seeded_worlds(2000))
    assert failures == []
    # Elimination among three or more candidates is reached, and resolves;
    # a change to the generator must not silently stop reaching it.
    wide = [a for a in attributions if len(a.candidate_actions) >= 3]
    assert wide and any(a.resolved is not None for a in wide)


def test_the_width_rule_fails_the_campaign_under_each_widening_mutant(monkeypatch):
    # Each mutant only widens intervals, which the four oracle properties
    # cannot see; the width rule catches both within the first 100 worlds.
    mutants = {
        # Every support cluster merges into the core instance.
        "_span_gap": lambda a, b: min(0, b.oldest - a.newest, a.oldest - b.newest),
        # Every interval starts at the epoch.
        "instance_interval": lambda oldest, newest, threshold: TimeInterval(
            min(EPOCH_FLOOR, oldest - threshold), newest),
    }
    for name, mutant in mutants.items():
        with monkeypatch.context() as patch:
            patch.setattr(engine, name, mutant)
            failures, _ = campaign(seeded_worlds(100))
        assert any(line.startswith("width: ") for _, lines in failures for line in lines), name


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


# Action A writes /d/X on line 3; the target lines added for action B start on line 7.
_CASE_PAIRS = "action: A\nthreshold: 10\nma modified /d/X\n---\naction: B\nthreshold: 10\n"


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
        # The matcher folds case, so each path's derived trace would match the other.
        (_CASE_PAIRS + "ma modified /d/x\n",
         "path '/d/x' differs only in case from '/d/X' on line 3 (line 7)"),
        (_CASE_PAIRS + "ma modified /d/y\nda modified 3000 /d/x\n",
         "path '/d/x' differs only in case from '/d/X' on line 3 (line 8)"),
        ("action: A\nthreshold: 10\nvariant:\nma modified /d/\u00c4\nvariant:\n"
         "ma accessed /D/\u00e4\n",
         "path '/D/\u00e4' differs only in case from '/d/\u00c4' on line 4 (line 6)"),
        # The micro sign and mu have no lower() in common, but the matcher
        # equates them, as re.IGNORECASE does.
        ("action: A\nthreshold: 10\nma modified /d/\u00b5\n---\n"
         "action: B\nthreshold: 10\nma modified /d/\u03bc\n",
         "path '/d/\u03bc' differs only in case from '/d/\u00b5' on line 3 (line 7)"),
    ],
)
def test_malformed_scenarios_fail_with_line_numbers(text, fragment):
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(text)
    assert fragment in str(exc_info.value)
    assert "line" in str(exc_info.value)


@pytest.mark.parametrize("line", ["ma modified /d/X", "ma accessed /d/X", "oa /d/x"])
def test_a_path_spelled_the_same_or_only_read_is_not_refused(line):
    specs = parse_scenario(_CASE_PAIRS + line + "\n").specs
    assert list(specs) == ["A", "B"]


def test_paths_that_case_insensitive_matching_equates_are_refused_or_pass_the_check():
    text = ("action: A\nthreshold: 10\nma modified /d/µ\n---\n"
            "action: B\nthreshold: 10\nma modified /d/μ\n---\n"
            "schedule:\n1000 A 0\n5000 B 0\n")
    try:
        scenario = parse_scenario(text)
    except ScenarioError:
        return
    records, truth = simulate({}, scenario.specs, scenario.schedule, 1)
    results = reconstruct(records, derive_signatures(scenario.specs))
    report = oracle_check(truth, results, core_targets(scenario.specs))
    assert report.ok, report.summary_lines()


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
