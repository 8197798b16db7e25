"""tracerecon: post-mortem reconstruction of user-action instances from
file-system timestamp metadata.

The library ingests Sleuth Kit bodyfile extracts, matches them against
signature packs whose trace patterns are categorized by update behavior
(core, supporting, shared), clusters matching timestamps by each action's
measured update threshold, and reports the time interval in which each
detected action instance must have occurred.  A forward simulator of the
same action model generates synthetic metadata with ground truth for
verification.

The package exports the documented library surface; everything else
(clusters, per-action results, the matcher, simulator internals) is
imported from its submodule.
"""

from .model import (
    ActionInstanceApproximation,
    ConfidenceNote,
    InstanceRank,
    ObjectRecord,
    TimeInterval,
    TimestampKind,
    TraceState,
)
from .bodyfile import IngestError, ParseDiagnostic, load_metadata, parse_bodyfile, write_bodyfile
from .signatures import (
    SignatureError,
    SignaturePack,
    TraceCategory,
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
from .engine import reconstruct
from .simulator import (
    ScenarioError,
    SimulationError,
    derive_signatures,
    oracle_check,
    parse_scenario,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ActionInstanceApproximation",
    "CalibrationError",
    "ConfidenceNote",
    "IngestError",
    "InstanceRank",
    "ObjectRecord",
    "ParseDiagnostic",
    "ScenarioError",
    "SignatureError",
    "SignaturePack",
    "SimulationError",
    "ThresholdEstimate",
    "TimeInterval",
    "TimestampKind",
    "TraceCategory",
    "TraceState",
    "derive_signatures",
    "estimate_threshold",
    "load_metadata",
    "match_pack",
    "merge_packs",
    "oracle_check",
    "parse_bodyfile",
    "parse_scenario",
    "parse_signature_pack",
    "reconstruct",
    "simulate",
    "threshold_from_stats",
    "write_bodyfile",
]
