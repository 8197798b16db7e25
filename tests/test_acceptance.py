"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import random
import time

from tracerecon import (
    ConfidenceNote,
    InstanceRank,
    TimestampKind,
    TraceState,
    load_metadata,
    reconstruct,
    threshold_from_stats,
)
from tracerecon.cli import main
from tracerecon.engine import cluster_by_threshold, reconstruction

import casedata
from conftest import FIXTURES, epoch
from worlds import campaign, random_scenario


def announce(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_worked_example_reproduction(worked_example_pack):
    started = time.perf_counter()
    objects = load_metadata(FIXTURES / "worked_example.body")
    out = reconstruct(objects, worked_example_pack)
    elapsed = time.perf_counter() - started

    by_action = {}
    for approx in out:
        by_action.setdefault(approx.action_name, []).append(approx)

    (most_recent, previous) = sorted(
        by_action[casedata.X], key=lambda a: a.detected, reverse=True
    )
    assert most_recent.rank is InstanceRank.MOST_RECENT
    assert most_recent.detected == epoch(2010, 4, 14, 19, 28, 18)
    assert previous.rank is InstanceRank.PAST
    assert previous.detected == epoch(2010, 4, 14, 15, 13, 25)

    (y_instance,) = by_action[casedata.Y]
    assert y_instance.detected == epoch(2010, 5, 2, 9, 45, 2)
    assert y_instance.note is ConfidenceNote.SHARED_AMBIGUOUS  # shared trace, resolved
    assert len(out) == 3

    assert elapsed < 1.0
    announce(1, "worked-example reproduction")


def test_criterion_2_case_study_reproduction(browser_pack):
    started = time.perf_counter()
    detections = {}
    for computer in ("computer1", "computer2"):
        objects = load_metadata(FIXTURES / f"{computer}.body")
        for approx in reconstruct(objects, browser_pack):
            detections[(computer, approx.action_name, approx.detected)] = approx
    elapsed = time.perf_counter() - started

    thresholds = {casedata.FF3: casedata.FF3_THRESHOLD, casedata.IE8: casedata.IE8_THRESHOLD}
    for computer, action, detected, logged in casedata.CONFIRMED_DETECTIONS:
        assert (computer, action, detected) in detections, (computer, action, detected)
        # the independently logged execution time must sit inside the
        # window the threshold model asserts for the detection
        assert detected - thresholds[action] <= logged <= detected

    # the two overlapping runs on computer 1 carry the parallel diagnostic
    c1 = load_metadata(FIXTURES / "computer1.body")
    assert reconstruction(c1, browser_pack).results[casedata.FF3].parallel
    for anchor in (epoch(2011, 7, 24, 13, 24, 14), epoch(2011, 7, 24, 15, 2, 31)):
        approx = detections[("computer1", casedata.FF3, anchor)]
        assert approx.note is ConfidenceNote.PARALLEL_INSTANCE_DIAGNOSTIC

    assert elapsed < 1.0
    announce(2, "case-study reproduction")


def test_criterion_3_threshold_calibration():
    assert threshold_from_stats(27.4, 16.76, 2) == 61
    assert threshold_from_stats(24.5, 12.96, 2) == 50
    announce(3, "threshold calibration")


def test_criterion_4_overlap_clustering():
    t1, t2, t3 = (
        epoch(2011, 3, 1, 12, 59, 30),
        epoch(2011, 3, 1, 13, 0, 0),
        epoch(2011, 3, 1, 13, 0, 58),
    )
    states = [
        TraceState(f"C:/obj{i}", TimestampKind.MODIFIED, v)
        for i, v in enumerate((t1, t2, t3))
    ]
    clusters = cluster_by_threshold(states, 60)
    assert [[m.value for m in c.members] for c in clusters] == [[t1, t2], [t3]]
    announce(4, "overlap-handling clustering")


def test_criterion_5_oracle_campaign():
    started = time.perf_counter()
    worlds = [(*random_scenario(random.Random(seed)), seed) for seed in range(500)]
    failures, _ = campaign(worlds)
    elapsed = time.perf_counter() - started
    assert failures == []
    assert elapsed < 30.0
    announce(5, f"oracle campaign ({len(worlds)} scenarios in {elapsed:.1f}s)")


def test_criterion_6_determinism(capsys, tmp_path):
    ff3 = str(FIXTURES.parent.parent / "src" / "tracerecon" / "data" / "signatures" / "ff3.sig")
    ie8 = str(FIXTURES.parent.parent / "src" / "tracerecon" / "data" / "signatures" / "ie8.sig")
    c1 = FIXTURES / "computer1.body"

    def scan(path):
        code = main(["scan", str(path), ff3, ie8, "--label", "c1", "--format", "csv"])
        assert code == 0
        return capsys.readouterr().out

    baseline = scan(c1)
    assert scan(c1) == baseline

    lines = c1.read_text().splitlines()
    rng = random.Random(4242)
    for i in range(5):
        shuffled = lines[:]
        rng.shuffle(shuffled)
        permuted = tmp_path / f"perm{i}.body"
        permuted.write_text("\n".join(shuffled) + "\n")
        assert scan(permuted) == baseline

    scenario = str(FIXTURES / "scenario_basic.scn")
    out_a, out_b = tmp_path / "sim_a", tmp_path / "sim_b"
    assert main(["simulate", scenario, "--seed", "17", "--out", str(out_a)]) == 0
    assert main(["simulate", scenario, "--seed", "17", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "metadata.body").read_bytes() == (out_b / "metadata.body").read_bytes()
    assert (out_a / "truth.json").read_bytes() == (out_b / "truth.json").read_bytes()

    announce(6, "determinism")
