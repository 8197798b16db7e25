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
imported from its submodule.  An exported name loads its submodule on first
use (PEP 562), so ``import tracerecon`` alone imports none of them, and
``tracerecon.cli`` does not import the simulator or the calibration for a
scan.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_SUBMODULE = {
    "ActionInstanceApproximation": "model",
    "CalibrationError": "model",
    "ConfidenceNote": "model",
    "InstanceRank": "model",
    "ObjectRecord": "model",
    "SimulationError": "model",
    "TimeInterval": "model",
    "TimestampKind": "model",
    "TraceState": "model",
    "IngestError": "bodyfile",
    "ParseDiagnostic": "bodyfile",
    "load_metadata": "bodyfile",
    "parse_bodyfile": "bodyfile",
    "write_bodyfile": "bodyfile",
    "SignatureError": "signatures",
    "SignaturePack": "signatures",
    "TraceCategory": "signatures",
    "match_pack": "signatures",
    "merge_packs": "signatures",
    "parse_signature_pack": "signatures",
    "ThresholdEstimate": "calibration",
    "estimate_threshold": "calibration",
    "threshold_from_stats": "calibration",
    "reconstruct": "engine",
    "ScenarioError": "simulator",
    "derive_signatures": "simulator",
    "oracle_check": "simulator",
    "parse_scenario": "simulator",
    "simulate": "simulator",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
