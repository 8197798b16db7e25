"""tracerecon: post-mortem reconstruction of user-action instances from
file-system timestamp metadata.

The library ingests Sleuth Kit bodyfile extracts, matches them against
signature packs whose trace patterns are categorized by update behavior
(core, supporting, shared), clusters matching timestamps by each action's
measured update threshold, and reports the time interval in which each
detected action instance must have occurred.  A forward simulator of the
same action model generates synthetic metadata with ground truth for
verification.
"""

from .model import (
    ActionInstanceApproximation,
    ConfidenceNote,
    InstanceRank,
    ObjectRecord,
    TimeInterval,
    Timestamp,
    TimestampKind,
    TraceState,
    instance_interval,
)
from .bodyfile import (
    IngestError,
    ParseDiagnostic,
    format_record,
    load_metadata,
    parse_bodyfile,
    write_bodyfile,
)
from .signatures import (
    Signature,
    SignatureError,
    SignaturePack,
    TraceCategory,
    TracePattern,
    match_pack,
    merge_packs,
    parse_signature_pack,
)
from .calibration import (
    CalibrationError,
    ThresholdEstimate,
    estimate_threshold,
    threshold_from_stats,
)
from .engine import (
    ActionResult,
    Cluster,
    CoreStatus,
    CoreVerdict,
    SharedAttribution,
    analyze_action,
    cluster_by_threshold,
    core_test,
    disambiguate_shared,
    reconstruct,
    shared_test,
    support_test,
)
from .simulator import (
    ActionSpec,
    GroundTruth,
    InstanceSchedule,
    OracleReport,
    PathVariant,
    Scenario,
    ScenarioError,
    ScheduleEntry,
    SimulationError,
    apply_instance,
    derive_signatures,
    oracle_check,
    parse_scenario,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ActionInstanceApproximation",
    "ActionResult",
    "ActionSpec",
    "CalibrationError",
    "Cluster",
    "ConfidenceNote",
    "CoreStatus",
    "CoreVerdict",
    "GroundTruth",
    "IngestError",
    "InstanceRank",
    "InstanceSchedule",
    "ObjectRecord",
    "OracleReport",
    "ParseDiagnostic",
    "PathVariant",
    "Scenario",
    "ScenarioError",
    "ScheduleEntry",
    "SharedAttribution",
    "Signature",
    "SignatureError",
    "SignaturePack",
    "SimulationError",
    "ThresholdEstimate",
    "TimeInterval",
    "Timestamp",
    "TimestampKind",
    "TraceCategory",
    "TracePattern",
    "TraceState",
    "analyze_action",
    "apply_instance",
    "cluster_by_threshold",
    "core_test",
    "derive_signatures",
    "disambiguate_shared",
    "estimate_threshold",
    "format_record",
    "instance_interval",
    "load_metadata",
    "match_pack",
    "merge_packs",
    "oracle_check",
    "parse_bodyfile",
    "parse_scenario",
    "parse_signature_pack",
    "reconstruct",
    "shared_test",
    "simulate",
    "support_test",
    "threshold_from_stats",
    "write_bodyfile",
]
