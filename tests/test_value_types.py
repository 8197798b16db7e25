"""Every value type is a named tuple: read-only fields, equality and hashing by
field, the repr and the check messages the types have always had, and a
pickle that round-trips what the benchmark and the simulator keep."""

import pickle
from importlib import import_module
from pathlib import Path

import pytest

from tracerecon.blockfile import Block
from tracerecon.bodyfile import ParseDiagnostic
from tracerecon.calibration import ThresholdEstimate
from tracerecon.engine import ActionResult, Cluster, Reconstruction, SharedAttribution
from tracerecon.model import (
    ActionInstanceApproximation,
    ConfidenceNote,
    InstanceRank,
    ObjectRecord,
    TimeInterval,
    TimestampKind,
    TraceState,
)
from tracerecon.signatures import Signature, TraceCategory, TracePattern
from tracerecon.simulator import (
    ActionSpec,
    GroundTruth,
    InstanceSchedule,
    OracleReport,
    OracleViolation,
    PathVariant,
    Scenario,
    ScheduleEntry,
    TruthInstance,
)

MODIFIED = TimestampKind.MODIFIED
CORE = TraceCategory.CORE

STATE = TraceState("/a", MODIFIED, 5)
LATER = TraceState("/b", MODIFIED, 9)
CLUSTER = Cluster((STATE,))
APPROXIMATION = ActionInstanceApproximation(
    "A", TimeInterval(1, 5), (STATE,), InstanceRank.MOST_RECENT, ConfidenceNote.DEFINITE
)
ATTRIBUTION = SharedAttribution(CLUSTER, frozenset({"A"}), "A")
RESULT = ActionResult("A", 5, (CLUSTER,), (), (APPROXIMATION,))
TRACE = TracePattern(CORE, MODIFIED, "x")
VARIANT = PathVariant(frozenset({("/a", MODIFIED)}))
SPEC = ActionSpec("A", 5, (VARIANT,))
ENTRY = ScheduleEntry("A", 10)
VIOLATION = OracleViolation("count-bound", "A", "2 > 1")

# The reprs of the values below, as each type has always printed them.
STATE_REPR = "TraceState(object_path='/a', kind=<TimestampKind.MODIFIED: 'modified'>, value=5)"
CLUSTER_REPR = f"Cluster(members=({STATE_REPR},))"
APPROXIMATION_REPR = (
    f"ActionInstanceApproximation(action_name='A', interval=TimeInterval(start=1, end=5), "
    f"evidence=({STATE_REPR},), rank=<InstanceRank.MOST_RECENT: 'MostRecent'>, "
    f"note=<ConfidenceNote.DEFINITE: 'definite'>)"
)
ATTRIBUTION_REPR = (
    f"SharedAttribution(cluster={CLUSTER_REPR}, candidate_actions=frozenset({{'A'}}), "
    f"resolved='A')"
)
RESULT_REPR = (
    f"ActionResult(action_name='A', threshold=5, core_clusters=({CLUSTER_REPR},), "
    f"support_clusters=(), instances=({APPROXIMATION_REPR},))"
)
TRACE_REPR = (
    "TracePattern(category=<TraceCategory.CORE: 'core'>, "
    "kind=<TimestampKind.MODIFIED: 'modified'>, source='x')"
)
VARIANT_REPR = (
    "PathVariant(updates=frozenset({('/a', <TimestampKind.MODIFIED: 'modified'>)}), "
    "defaults=frozenset())"
)
SPEC_REPR = f"ActionSpec(name='A', threshold=5, variants=({VARIANT_REPR},))"
ENTRY_REPR = "ScheduleEntry(action='A', tau=10, variant=None)"
TRUTH_INSTANCE_REPR = "TruthInstance(index=0, action='A', tau=10, variant=0)"
VIOLATION_REPR = "OracleViolation(prop='count-bound', action='A', detail='2 > 1')"

# (value, its repr, [(args, keyword args, the ValueError message)]) per type.
CASES = [
    (
        ObjectRecord("/a", modified=5),
        "ObjectRecord(path='/a', accessed=None, modified=5, metachanged=None, created=None, "
        "deleted=False)",
        [
            (("",), {"modified": 1}, "ObjectRecord requires a non-empty path"),
            (("/a",), {}, "ObjectRecord '/a' has no timestamps"),
            (("/a", 1, -1), {}, "ObjectRecord '/a' has a negative timestamp"),
        ],
    ),
    (STATE, STATE_REPR, []),
    (
        TimeInterval(1, 5),
        "TimeInterval(start=1, end=5)",
        [((5, 1), {}, "interval start 5 exceeds end 1")],
    ),
    (
        APPROXIMATION,
        APPROXIMATION_REPR,
        [
            (("A", TimeInterval(1, 5), (), InstanceRank.PAST, ConfidenceNote.DEFINITE), {},
             "an approximation requires at least one evidence trace"),
        ],
    ),
    (
        Block("A", 5, 1, [(2, "core modified x")]),
        "Block(name='A', threshold=5, line_no=1, body=[(2, 'core modified x')])",
        [],
    ),
    (ParseDiagnostic(3, "bad"), "ParseDiagnostic(line_no=3, message='bad')", []),
    (
        ThresholdEstimate(1.0, 0.5, 2.0, 2, 3),
        "ThresholdEstimate(mean=1.0, sigma=0.5, k=2.0, theta=2, n=3)",
        [],
    ),
    (
        CLUSTER,
        CLUSTER_REPR,
        [
            (((),), {}, "cluster must have at least one member"),
            (((LATER, STATE),), {}, "cluster members must be sorted ascending by value"),
        ],
    ),
    (
        ATTRIBUTION,
        ATTRIBUTION_REPR,
        [
            ((CLUSTER, frozenset()), {}, "attribution requires at least one candidate action"),
            ((CLUSTER, frozenset({"A"})), {"resolved": "B"},
             "resolved action must be one of the candidates"),
        ],
    ),
    (RESULT, RESULT_REPR, []),
    (
        Reconstruction({"A": RESULT}, [ATTRIBUTION], [APPROXIMATION]),
        f"Reconstruction(results={{'A': {RESULT_REPR}}}, attributions=[{ATTRIBUTION_REPR}], "
        f"approximations=[{APPROXIMATION_REPR}])",
        [],
    ),
    (TRACE, TRACE_REPR, [((CORE, MODIFIED, ""), {}, "trace pattern must not be empty")]),
    (
        Signature("A", 5, (TRACE,)),
        f"Signature(action_name='A', threshold=5, traces=({TRACE_REPR},))",
        [
            (("A", 0, (TRACE,)), {}, "signature 'A': threshold must be positive"),
            (("A", 5, ()), {}, "signature 'A': needs at least one trace"),
        ],
    ),
    (
        VARIANT,
        VARIANT_REPR,
        [
            ((frozenset({("/a", MODIFIED)}),), {"defaults": frozenset({("/a", MODIFIED, 3)})},
             "update and default targets overlap: "
             "[('/a', <TimestampKind.MODIFIED: 'modified'>)]"),
        ],
    ),
    (
        SPEC,
        SPEC_REPR,
        [
            (("A", 0, (VARIANT,)), {}, "action 'A': threshold must be positive"),
            (("A", 5, ()), {}, "action 'A': needs at least one path variant"),
        ],
    ),
    (ENTRY, ENTRY_REPR, [(("A", -1), {}, "instance time must be non-negative")]),
    (
        InstanceSchedule((ENTRY,)),
        f"InstanceSchedule(entries=({ENTRY_REPR},))",
        [(((ENTRY, ScheduleEntry("A", 5)),), {}, "schedule entries must be sorted by time")],
    ),
    (TruthInstance(0, "A", 10, 0), TRUTH_INSTANCE_REPR, []),
    (
        GroundTruth((TruthInstance(0, "A", 10, 0),), ((VARIANT.order, (11,)),)),
        f"GroundTruth(instances=({TRUTH_INSTANCE_REPR},), "
        f"written=((((('/a', <TimestampKind.MODIFIED: 'modified'>),), ()), (11,)),))",
        [],
    ),
    (VIOLATION, VIOLATION_REPR, []),
    (OracleReport((VIOLATION,)), f"OracleReport(violations=({VIOLATION_REPR},))", []),
    (
        Scenario({"A": SPEC}, InstanceSchedule((ENTRY,))),
        f"Scenario(specs={{'A': {SPEC_REPR}}}, "
        f"schedule=InstanceSchedule(entries=({ENTRY_REPR},)))",
        [],
    ),
]


def test_the_cases_hold_every_tuple_type_the_package_defines():
    modules = [import_module(f"tracerecon.{path.stem}")
               for path in (Path(__file__).parent.parent / "src" / "tracerecon").glob("*.py")]
    defined = {
        value.__name__
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, tuple)
        and value.__module__ == module.__name__
    }
    assert defined == {type(value).__name__ for value, _, _ in CASES}


# The two types whose cached properties need a __dict__; every other one has none.
WITH_DICT = (TracePattern, PathVariant)


@pytest.mark.parametrize("value, text, checks", CASES,
                         ids=[type(value).__name__ for value, _, _ in CASES])
def test_a_value_type_is_a_read_only_tuple_of_its_fields(value, text, checks):
    cls = type(value)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert hasattr(value, "__dict__") == (cls in WITH_DICT)

    assert cls(*value) == value == tuple(value)
    assert value._replace(**{cls._fields[0]: object()}) != value
    try:
        expected_hash = hash(tuple(value))
    except TypeError:  # a list or dict field
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(*value)) == expected_hash

    assert repr(value) == text

    for args, kwargs, message in checks:
        with pytest.raises(ValueError) as raised:
            cls(*args, **kwargs)
        assert str(raised.value) == message


def _round_trip(value):
    loaded = pickle.loads(pickle.dumps(value))
    assert (type(loaded), loaded) == (type(value), value)
    return loaded


def test_pickle_round_trips_the_truth_a_schedule_entry_and_a_variant_with_its_order():
    variant = PathVariant(frozenset({("/a", MODIFIED), ("/b", MODIFIED)}),
                          frozenset({("/c", MODIFIED, 3)}))
    order = variant.order
    truth = GroundTruth((TruthInstance(0, "A", 10, 0), TruthInstance(1, "A", 20, 0)),
                        ((order, (11, 12)), (order, (21, 22))))
    loaded = _round_trip(truth)
    assert loaded.written[0][0] is loaded.written[1][0]  # one order, shared as before
    _round_trip(ENTRY)
    loaded = _round_trip(variant)
    assert vars(loaded)["order"] == order


def test_pickle_round_trips_an_exact_trace_with_its_exact_path():
    trace = TracePattern.for_path(CORE, MODIFIED, "C:/X.dat")
    assert _round_trip(trace).exact == "c:/x.dat"
    assert _round_trip(TracePattern.for_path(CORE, MODIFIED, "C:/\u00c9")).exact == "c:/\u00e9"
