"""Walkthrough: the forward simulator as an independent check on the engine.

A scenario scripts what really happened: which actions ran, when, and which
code path each execution took.  The simulator applies them in order, drawing
each trace-update delay uniformly from [0, threshold], and keeps a ground
truth log.  Reconstruction then works backwards from the final metadata
alone, and the oracle verifies its claims against the log:
every reported window must contain a true execution, actions are never
over-counted, the most recent core-updating run is always found, and
nothing is reported for actions that never ran.
"""

from pathlib import Path

from tracerecon import (
    derive_signatures,
    oracle_check,
    parse_scenario,
    reconstruct,
    simulate,
)
from tracerecon.simulator import core_targets

SCENARIO = Path(__file__).parent.parent / "tests" / "fixtures" / "scenario_basic.scn"

scenario = parse_scenario(SCENARIO.read_text())
print("Scripted truth")
print("--------------")
for entry in scenario.schedule.entries:
    print(f"  t={entry.tau}: {entry.action} (variant {entry.variant})")
print()

records, truth = simulate({}, scenario.specs, scenario.schedule, seed=2024)
print(f"Final state: {len(records)} observable objects")
for record in records:
    times = ", ".join(f"{k.value}={v}" for k, v in sorted(record.timestamps.items()))
    print(f"  {record.path}: {times}")
print()

pack = derive_signatures(scenario.specs)
print("Signatures derived from the action definitions")
print("----------------------------------------------")
for signature in pack:
    for trace in signature.traces:
        print(f"  {signature.action_name}: {trace.category.value:7s} {trace.kind.value:8s} {trace.source}")
print()

results = reconstruct(records, pack)
print("Reconstruction, newest first")
print("----------------------------")
for approx in results:
    print(
        f"  {approx.action_name:12s} {approx.rank.value:10s} "
        f"window {approx.interval.start}..{approx.interval.end}"
    )
print()

report = oracle_check(truth, results, core_targets(scenario.specs))
print("Oracle verdict")
print("--------------")
for line in report.summary_lines():
    print(f"  {line}")
