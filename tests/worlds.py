"""Random simulated worlds and the one loop that checks them against their truth.

A world is ``(specs, schedule, seed)``: action specs, a schedule whose
variants ``simulate`` picks under ``seed``, and that seed.  Three generators
draw them:

* :func:`oracle_worlds`, a Hypothesis strategy: up to five actions with up
  to two variants each, whose updates and defaults fall on sixteen targets
  of eight paths, and up to six instances in 1-2000.  Targets are often
  shared or defaulted by another action, and failures shrink well.
* :func:`random_oracle_world`, the seeded campaign's worlds: four to six
  actions of up to six updates each on the same eight paths, thresholds up
  to 300 and up to twelve instances in 1-2000.  One action's shared traces
  then often fall in several shared groups, which the strategy rarely
  reaches, and groups of three or more candidates are reached and resolved.
* :func:`random_scenario`, the acceptance campaign's worlds: up to three
  actions on disjoint targets of eight paths, with no defaults, some
  never scheduled, and up to six instances spread over 50,000 s.

Both seeded generators stay because they reach different worlds: the
acceptance campaign's instances mostly stand alone, most-recent and past
runs far apart, while the seeded campaign crowds its instances into
2,000 s and shares targets across groups.

:func:`campaign` runs :func:`own_check_report` on each world, so every
campaign reads its bodyfile back through the derived pack's prefilter and
checks against :func:`~tracerecon.simulator.core_targets`.
"""

import io
import random

from hypothesis import strategies as st

from tracerecon import derive_signatures, oracle_check, simulate, write_bodyfile
from tracerecon.bodyfile import read_bodyfile
from tracerecon.engine import reconstruction
from tracerecon.model import ConfidenceNote, TimestampKind, instance_interval
from tracerecon.signatures import fold, path_prefilter
from tracerecon.simulator import ActionSpec, InstanceSchedule, PathVariant, ScheduleEntry
from tracerecon.simulator import core_targets

MOD, CRE, ACC = TimestampKind.MODIFIED, TimestampKind.CREATED, TimestampKind.ACCESSED

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


def seeded_worlds(count):
    """The first ``count`` worlds of the seed-2026 campaign, world ``i`` simulated with seed ``i``."""
    rng = random.Random(2026)
    return ((*random_oracle_world(rng), index) for index in range(count))


def random_scenario(rng):
    """A small random world: disjoint per-action targets, no defaults.

    Up to 8 objects and 6 instances; every action has at least one target
    updated by all of its variants; some actions are never scheduled.
    """
    paths = [f"/obj/{i}" for i in range(8)]
    rng.shuffle(paths)

    n_actions = rng.randint(1, 3)
    specs = {}
    cursor = 0
    for index in range(n_actions):
        budget = rng.randint(1, max(1, (8 - cursor) // (n_actions - index)))
        targets = [
            (path, rng.choice((MOD, CRE, ACC))) for path in paths[cursor:cursor + budget]
        ]
        cursor += budget
        core = targets[: rng.randint(1, len(targets))]
        extras = targets[len(core):]
        variants = []
        for _ in range(rng.randint(1, 3)):
            chosen = [t for t in extras if rng.random() < 0.5]
            variants.append(PathVariant(updates=frozenset(core + chosen)))
        name = f"action-{index}"
        specs[name] = ActionSpec(name, rng.randint(10, 120), tuple(variants))

    scheduled = [name for name in specs if rng.random() < 0.8] or [next(iter(specs))]
    entries = [
        # The variant is picked under the seed inside simulate.
        ScheduleEntry(rng.choice(scheduled), rng.randrange(0, 50_000), None)
        for _ in range(rng.randint(0, 6))
    ]
    return specs, InstanceSchedule.of(entries)


def own_check_report(specs, schedule, seed):
    """Simulate a world, write its bodyfile, read it back through the derived
    pack's prefilter, make one ``reconstruction`` of what was read and check
    the truth against its layers.

    Besides ``oracle_check`` of its approximations, two rules hold by the
    engine's construction:

    * every shared attribution that resolves, whether or not it is reported
      as an instance of its own: its owner truly ran in
      ``[cluster.oldest - threshold, cluster.newest]``.  An eliminated
      candidate wrote last at most its threshold after its newest core
      value, before the cluster, so the owner wrote every value of it;
    * width: each reported interval is ``instance_interval`` of its own
      evidence at its action's threshold θ, and that evidence spans at most
      θ for a parallel-instance cluster, the largest threshold among its
      candidates for a shared cluster, and 5θ for a definite instance (a
      core cluster spans at most θ, and each support cluster it absorbs
      spans at most θ and lies within θ of it on either side).

    Returns one line per failure, none when the world passes, and the
    shared attributions.
    """
    records, truth = simulate({}, specs, schedule, seed)
    pack = derive_signatures(specs)
    text = io.StringIO()
    write_bodyfile(records, text)
    hits = path_prefilter(pack)
    read_back = list(read_bodyfile(io.BytesIO(text.getvalue().encode()), "world", hits))
    # No generated path holds another, so the prefilter lists exactly the lines
    # of derived paths; with no pattern at all, it lists every line.
    derived = {trace.exact for signature in pack for trace in signature.traces}
    assert read_back == [r for r in records if hits is None or fold(r.path) in derived]
    _, attributions, reported = reconstruction(read_back, pack)
    failures = []
    for attribution in attributions:
        owner, cluster = attribution.resolved, attribution.cluster
        if owner is not None and not any(
            instance.action == owner
            and cluster.oldest - specs[owner].threshold <= instance.tau <= cluster.newest
            for instance in truth.instances
        ):
            failures.append(f"shared-resolution: {attribution}")
    report = oracle_check(truth, reported, core_targets(specs))
    failures += [f"{v.prop}: {v.action}: {v.detail}" for v in report.violations]
    group_thresholds = {
        attribution.cluster.members: max(specs[n].threshold for n in attribution.candidate_actions)
        for attribution in attributions
    }
    for approx in reported:
        threshold = specs[approx.action_name].threshold
        values = [state.value for state in approx.evidence]
        oldest, newest = min(values), max(values)
        widest = {
            ConfidenceNote.PARALLEL_INSTANCE_DIAGNOSTIC: threshold,
            ConfidenceNote.SHARED_AMBIGUOUS: group_thresholds.get(approx.evidence, -1),
            ConfidenceNote.DEFINITE: 5 * threshold,
        }[approx.note]
        if approx.interval != instance_interval(oldest, newest, threshold) or (
            newest - oldest > widest
        ):
            failures.append(f"width: {approx}")
    return failures, attributions


def campaign(worlds):
    """Run :func:`own_check_report` on each ``(specs, schedule, seed)`` of ``worlds``.

    Returns ``(seed, failure lines)`` for each world that fails, and every
    shared attribution seen.
    """
    failures, seen = [], []
    for specs, schedule, seed in worlds:
        lines, attributions = own_check_report(specs, schedule, seed)
        if lines:
            failures.append((seed, lines))
        seen += attributions
    return failures, seen
