"""Walkthrough: layering trace categories to attribute a shared artifact.

Two fictional programs, ActionX and ActionY, both refresh a pair of shared
cache objects when they run.  ActionX additionally leaves traces of its own:
two objects it always touches (core) and three it touches irregularly
(supporting).  Starting from seven observed timestamps we recover two
executions of ActionX and then, by elimination, one execution of ActionY.
"""

from pathlib import Path

from tracerecon import load_metadata, match_pack, parse_signature_pack, reconstruct
from tracerecon.engine import analyze_action, shared_attributions

FIXTURES = Path(__file__).parent.parent / "tests" / "fixtures"


def show(label, value):
    print(f"  {label}: {value}")


# The pack, and the post-mortem observation: one surviving "modified" time
# for each of the objects o1..o7.
PACK = parse_signature_pack((FIXTURES / "worked_example.sig").read_text())
objects = load_metadata(FIXTURES / "worked_example.body")

print("Step 1 - ActionX on its own evidence")
print("------------------------------------")
matched = match_pack(PACK, objects)  # every pattern, one pass over the objects
# every action's verdict on its own evidence; the shared step needs them all
results = {sig.action_name: analyze_action(sig, matched) for sig in PACK}
result = results["ActionX"]
show("core verdict", "multi-instance" if result.parallel else "consistent")
for instance in result.instances:
    show(
        f"{instance.rank.value} instance",
        f"anchored at {instance.detected} "
        f"(window {instance.interval.start}..{instance.interval.end}, "
        f"{len(instance.evidence)} trace values)",
    )
print()
print("The two always-updated values sit 7 seconds apart, well inside the")
print("30-second update threshold, so they describe a single execution.")
print("Two irregular values merge into that window and the stale third one")
print("proves a separate, earlier execution.")
print()

print("Step 2 - the shared cache objects")
print("---------------------------------")
for attribution in shared_attributions(matched, results):
    claim = attribution.resolved or "unresolved - either action fits"
    show(f"shared value {attribution.cluster.oldest}", claim)
print()
print("The first shared value falls inside ActionX's known window, and")
print("ActionY cannot be excluded either, so no conclusion is drawn from it.")
print("The second one is newer than anything ActionX can explain (its last")
print("always-updated traces would have moved too), leaving only ActionY.")
print()

print("Step 3 - the assembled timeline, newest first")
print("---------------------------------------------")
for approx in reconstruct(objects, PACK):
    print(
        f"  {approx.action_name:8s} {approx.rank.value:10s} "
        f"window {approx.interval.start}..{approx.interval.end}  [{approx.note.value}]"
    )
