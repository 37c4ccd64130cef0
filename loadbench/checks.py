"""Output checks, computed apart from the program.

Every checker takes plain data (tuples, dicts, lists) gathered by the
benchmark and returns the ids of the jobs that break a property, so the
caller can count each such job as one failed operation.  None of them
compares against stored output: they test properties that hold for any
correct schedule.
"""

from __future__ import annotations

from collections import Counter, defaultdict

#: slack for comparing simulated times that went through float sums
EPS = 1e-6

#: the only journal path a job may take in an open-loop run that never
#: cancels or evicts: previous state -> next state
JOURNAL_PATH = {
    None: "SUBMITTED",
    "SUBMITTED": "QUEUED",
    "QUEUED": "PLACED",
    "PLACED": "RUNNING",
    "RUNNING": "FINISHED",
}


def _le(a: float, b: float) -> bool:
    return a <= b + EPS * max(1.0, abs(a), abs(b))


def holding_intervals(places, releases):
    """Per-GPU holding intervals from placement and release events.

    ``places`` holds ``(t, job_id, gpus)``; ``releases`` holds
    ``(t, job_id, gpus)`` for every finish or eviction.  Returns
    ``(intervals, bad)``: ``intervals`` as ``(job_id, gpu, start, end)``
    and ``bad`` the jobs whose releases do not match a placement (a
    release without a placement, other GPUs than placed, or a placement
    never released).
    """
    events = sorted(
        [(t, 1, job, tuple(gpus)) for t, job, gpus in places]
        + [(t, 0, job, tuple(gpus)) for t, job, gpus in releases],
        key=lambda e: (e[0], e[1]),
    )
    open_: dict[str, tuple[float, tuple]] = {}
    intervals = []
    bad = set()
    for t, is_place, job, gpus in events:
        if is_place:
            if job in open_:
                bad.add(job)
            open_[job] = (t, gpus)
            continue
        held = open_.pop(job, None)
        if held is None or set(held[1]) != set(gpus):
            bad.add(job)
            continue
        intervals.extend((job, g, held[0], t) for g in held[1])
    bad.update(open_)
    return intervals, bad


def gpu_overlaps(intervals) -> set[str]:
    """Jobs whose holding interval on some GPU overlaps another's.

    ``intervals`` holds ``(job_id, gpu, start, end)``; touching
    intervals (one ends when the next starts) do not overlap.
    """
    by_gpu = defaultdict(list)
    for job, gpu, start, end in intervals:
        by_gpu[gpu].append((start, end, job))
    bad = set()
    for spans in by_gpu.values():
        spans.sort()
        last_end, last_job = float("-inf"), None
        for start, end, job in spans:
            if not _le(last_end, start):
                bad.update((job, last_job))
            if end > last_end:
                last_end, last_job = end, job
    return bad


def placement_shape(job_gpus, gpu_machine: dict[str, str]) -> set[str]:
    """Jobs placed on the wrong number of GPUs, on GPUs that do not
    exist, or across machines although single-node.

    ``job_gpus`` holds ``(job, gpus)`` for every placement made.
    """
    bad = set()
    for job, gpus in job_gpus:
        if len(gpus) != job.num_gpus or len(set(gpus)) != len(gpus):
            bad.add(job.job_id)
        elif any(g not in gpu_machine for g in gpus):
            bad.add(job.job_id)
        elif job.single_node and len({gpu_machine[g] for g in gpus}) != 1:
            bad.add(job.job_id)
    return bad


def finished_once(job_ids, finished) -> set[str]:
    """Jobs that did not finish exactly once (lost or finished twice).

    ``finished`` holds one job id per finish seen."""
    counts = Counter(finished)
    bad = {j for j in job_ids if counts.get(j) != 1}
    bad.update(j for j in counts if j not in set(job_ids))
    return bad


def record_times(rows) -> set[str]:
    """Per-job time properties of finished records.

    ``rows`` holds dicts with ``id``, ``arrival``, ``placed_at``,
    ``finished_at``, ``solo`` (solo execution time of the last
    placement), ``ideal`` and ``evicted`` (whether the job was ever
    evicted).  Checks arrival <= placed <= finished, solo >= ideal, and
    exec >= solo for jobs never evicted, since interference only slows
    a job down.
    """
    bad = set()
    for r in rows:
        placed, finished = r["placed_at"], r["finished_at"]
        if placed is None or finished is None or r["solo"] is None:
            bad.add(r["id"])
            continue
        ok = (
            _le(r["arrival"], placed)
            and _le(placed, finished)
            and _le(r["ideal"], r["solo"])
            and (r["evicted"] or _le(r["solo"], finished - placed))
        )
        if not ok:
            bad.add(r["id"])
    return bad


def gpu_seconds_fit(intervals, makespan: float, n_gpus: int) -> bool:
    """Total GPU-seconds held never exceed makespan x GPUs."""
    held = sum(end - start for _, _, start, end in intervals)
    return _le(held, makespan * n_gpus)


def journal_paths(transitions, job_ids) -> set[str]:
    """Jobs whose journal is not exactly SUBMITTED -> QUEUED -> PLACED
    -> RUNNING -> FINISHED, each hop starting where the last ended.

    ``transitions`` holds ``(job_id, from_state, to_state, wall)`` in
    append order.
    """
    last: dict[str, str | None] = {}
    bad = set()
    for job, frm, to, _wall in transitions:
        prev = last.get(job)
        if job in last and prev is None:
            bad.add(job)  # a second creation row
        if frm != prev or JOURNAL_PATH.get(prev) != to:
            bad.add(job)
        last[job] = to
    bad.update(j for j in job_ids if last.get(j) != "FINISHED")
    return bad


def jobs_agree(jobs_doc: dict, transitions) -> set[str]:
    """Jobs whose state in ``GET /jobs`` differs from the journal's
    last transition (or that only one of the two knows)."""
    journal = {}
    for job, _frm, to, _wall in transitions:
        journal[job] = to
    listed = jobs_doc.get("jobs", {})
    return {
        j for j in set(journal) | set(listed) if journal.get(j) != listed.get(j)
    }


def sse_placements(frames, job_ids) -> tuple[set[str], bool]:
    """Check the SSE stream: exactly one ``placed`` decision per job, and
    strictly increasing frame ids.

    ``frames`` holds ``(id, event, data)`` with ``data`` the decoded JSON.
    Returns the jobs with a missing or repeated placement, and whether
    the ids increased throughout.
    """
    increasing = all(a[0] < b[0] for a, b in zip(frames, frames[1:]))
    placed = Counter(
        data["job_id"]
        for _id, event, data in frames
        if event == "decision" and data.get("verdict") == "placed"
    )
    bad = {j for j in job_ids if placed.get(j) != 1}
    return bad, increasing
