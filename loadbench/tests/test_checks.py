"""Each output checker accepts a correct case and rejects a synthetic
violation of the property it guards."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from loadbench import checks  # noqa: E402

from repro.workload.job import Job, ModelType  # noqa: E402


def job(job_id: str, n: int, single_node: bool = True) -> Job:
    return Job(job_id=job_id, model=ModelType.ALEXNET, batch_size=64,
               num_gpus=n, single_node=single_node)


def test_gpu_overlap_rejected():
    ok = [("a", "m0/gpu0", 0.0, 10.0), ("b", "m0/gpu0", 10.0, 20.0)]
    assert checks.gpu_overlaps(ok) == set()
    bad = ok + [("c", "m0/gpu0", 15.0, 30.0)]
    assert checks.gpu_overlaps(bad) == {"b", "c"}


def test_pre_eviction_interval_counts():
    # a evicted at 5 and re-placed elsewhere; b took gpu0 at 5: fine.
    places = [(0.0, "a", ("m0/gpu0",)), (5.0, "b", ("m0/gpu0",)), (5.0, "a", ("m1/gpu0",))]
    releases = [(5.0, "a", ("m0/gpu0",)), (9.0, "b", ("m0/gpu0",)), (12.0, "a", ("m1/gpu0",))]
    intervals, bad = checks.holding_intervals(places, releases)
    assert bad == set() and checks.gpu_overlaps(intervals) == set()
    # b placed on gpu0 before a's eviction released it
    places[1] = (4.0, "b", ("m0/gpu0",))
    intervals, bad = checks.holding_intervals(places, releases)
    assert bad == set() and checks.gpu_overlaps(intervals) == {"a", "b"}


def test_release_without_placement_rejected():
    _, bad = checks.holding_intervals([], [(1.0, "x", ("m0/gpu0",))])
    assert bad == {"x"}
    _, bad = checks.holding_intervals([(0.0, "y", ("m0/gpu0",))], [])
    assert bad == {"y"}


def test_lost_and_double_finished_jobs_rejected():
    assert checks.finished_once(["a", "b"], ["b", "a"]) == set()
    assert checks.finished_once(["a", "b"], ["a"]) == {"b"}
    assert checks.finished_once(["a", "b"], ["a", "b", "b"]) == {"b"}


def test_placement_shape_rejected():
    machine = {"m0/gpu0": "m0", "m0/gpu1": "m0", "m1/gpu0": "m1"}
    assert checks.placement_shape([(job("a", 2), ("m0/gpu0", "m0/gpu1"))], machine) == set()
    assert checks.placement_shape([(job("a", 2), ("m0/gpu0",))], machine) == {"a"}
    assert checks.placement_shape([(job("a", 2), ("m0/gpu0", "m0/gpu0"))], machine) == {"a"}
    assert checks.placement_shape([(job("a", 2), ("m0/gpu0", "m1/gpu0"))], machine) == {"a"}
    assert checks.placement_shape(
        [(job("a", 2, single_node=False), ("m0/gpu0", "m1/gpu0"))], machine
    ) == set()
    assert checks.placement_shape([(job("a", 1), ("m9/gpu0",))], machine) == {"a"}


def row(**kw):
    base = {"id": "a", "arrival": 0.0, "placed_at": 1.0, "finished_at": 11.0,
            "solo": 10.0, "ideal": 9.0, "evicted": False}
    base.update(kw)
    return base


def test_record_times_rejected():
    assert checks.record_times([row()]) == set()
    assert checks.record_times([row(placed_at=-1.0)]) == {"a"}
    assert checks.record_times([row(finished_at=0.5)]) == {"a"}
    assert checks.record_times([row(finished_at=5.0)]) == {"a"}  # exec < solo
    assert checks.record_times([row(finished_at=5.0, evicted=True)]) == set()
    assert checks.record_times([row(ideal=12.0, finished_at=20.0)]) == {"a"}
    assert checks.record_times([row(finished_at=None)]) == {"a"}


def test_gpu_seconds_bound():
    intervals = [("a", "g0", 0.0, 10.0), ("b", "g1", 0.0, 10.0)]
    assert checks.gpu_seconds_fit(intervals, 10.0, 2)
    assert not checks.gpu_seconds_fit(intervals, 10.0, 1)


PATH = ["SUBMITTED", "QUEUED", "PLACED", "RUNNING", "FINISHED"]


def journal(job_id, states):
    prev, rows = None, []
    for i, s in enumerate(states):
        rows.append((job_id, prev, s, float(i)))
        prev = s
    return rows


def test_illegal_journal_path_rejected():
    assert checks.journal_paths(journal("a", PATH), ["a"]) == set()
    skipped = journal("a", ["SUBMITTED", "QUEUED", "RUNNING", "FINISHED"])
    assert checks.journal_paths(skipped, ["a"]) == {"a"}
    unfinished = journal("a", PATH[:-1])
    assert checks.journal_paths(unfinished, ["a"]) == {"a"}
    requeued = journal("a", PATH[:4] + ["QUEUED", "PLACED", "RUNNING", "FINISHED"])
    assert checks.journal_paths(requeued, ["a"]) == {"a"}
    wrong_from = journal("a", PATH)
    wrong_from[2] = ("a", "SUBMITTED", "PLACED", 2.0)
    assert checks.journal_paths(wrong_from, ["a"]) == {"a"}
    assert checks.journal_paths([], ["a"]) == {"a"}


def test_jobs_listing_must_match_journal():
    rows = journal("a", PATH) + journal("b", PATH)
    assert checks.jobs_agree({"jobs": {"a": "FINISHED", "b": "FINISHED"}}, rows) == set()
    assert checks.jobs_agree({"jobs": {"a": "FINISHED", "b": "RUNNING"}}, rows) == {"b"}
    assert checks.jobs_agree({"jobs": {"a": "FINISHED"}}, rows) == {"b"}


def placed(seq, job_id):
    return (seq, "decision", {"job_id": job_id, "verdict": "placed"})


def test_sse_placements_rejected():
    frames = [placed(1, "a"), (2, "job", {"job_id": "a"}), placed(3, "b")]
    assert checks.sse_placements(frames, ["a", "b"]) == (set(), True)
    missing = [placed(1, "a")]
    assert checks.sse_placements(missing, ["a", "b"])[0] == {"b"}
    duplicated = frames + [placed(4, "b")]
    assert checks.sse_placements(duplicated, ["a", "b"])[0] == {"b"}
    out_of_order = [placed(3, "a"), placed(2, "b")]
    assert checks.sse_placements(out_of_order, ["a", "b"]) == (set(), False)
