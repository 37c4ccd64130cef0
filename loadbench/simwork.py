"""The three simulation workloads: set-up, timed phase, checks, metrics.

A run replays seeded job traces through ``Simulator.run`` until its
seconds are used up, each replay on its own trace (trace ``i`` of seed
``s`` is drawn from ``(s, i)``) with a fresh scheduler and engine on
the same warm topology.  Near Scenario 2's load the host work of one
trace depends strongly on how congested that trace happens to get, so
pooling several traces per run is what makes two seeds comparable.
Every replay is checked in full after it ran, outside the timed phase.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from loadbench import checks
from loadbench.stats import enough_setups, quantile

from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
from repro.sim.hooks import BaseObserver
from repro.topology.builders import cluster
from repro.workload.generator import GeneratorConfig, WorkloadGenerator


@dataclass(frozen=True)
class SimSpec:
    machines: int
    #: Poisson arrival rate of the whole fleet, jobs per minute
    rate_per_min: float
    jobs: int
    scheduler: str
    #: job priorities drawn uniformly from this tuple (None: all 0)
    priorities: tuple[int, ...] | None = None
    #: the run must see at least one preemption and one migration
    expect_evictions: bool = False


SPECS = {
    # Scenario 2 (paper §5.5.2): lambda = 0.65 jobs/min per machine on
    # power8-minsky machines; 800 GPUs, below the all-pairs matrix cap
    "scenario2-loaded": SimSpec(200, 0.65 * 200, 3000, "TOPO-AWARE-P"),
    # the paper's Scenario 2 fleet size; 4000 GPUs, above the matrix cap
    "fleet-wide": SimSpec(1000, 600.0, 2000, "TOPO-AWARE"),
    # 0.4 jobs/min per machine: at Scenario 2's 0.65 the probes per job
    # of one 20-machine trace ranged over 7x between seeds (see README)
    "preempt-mix": SimSpec(
        10, 0.4 * 10, 1000, "TOPO-AWARE-PM", priorities=(0, 1, 2),
        expect_evictions=True,
    ),
}

#: toy sizes for the self-test: the same code paths, a second or so each
QUICK = {
    "scenario2-loaded": SimSpec(8, 0.65 * 8, 120, "TOPO-AWARE-P"),
    "fleet-wide": SimSpec(40, 30.0, 120, "TOPO-AWARE"),
    "preempt-mix": SimSpec(
        4, 0.65 * 4, 120, "TOPO-AWARE-PM", priorities=(0, 1, 2),
        expect_evictions=True,
    ),
}

#: every run replays at least this many traces; the simulated metrics
#: are taken over exactly these, so they do not depend on host speed
MIN_REPLAYS = 2


def make_jobs(spec: SimSpec, seed: int, trace: int = 0):
    jobs = WorkloadGenerator(
        GeneratorConfig(arrival_rate_per_min=spec.rate_per_min),
        seed=np.random.default_rng([seed, trace]),
    ).generate(spec.jobs)
    if spec.priorities is not None:
        rng = np.random.default_rng([seed, trace, 1])
        picks = rng.choice(spec.priorities, size=len(jobs))
        jobs = [
            dataclasses.replace(j, priority=int(p)) for j, p in zip(jobs, picks)
        ]
    return jobs


def setup(spec: SimSpec, seed: int):
    """Trace, topology, engine and warm distance tables; returns
    ``(jobs, topo, seconds, matrix_seconds)``."""
    t0 = time.perf_counter()
    jobs = make_jobs(spec, seed)
    topo = cluster(spec.machines)
    Simulator(topo, make_scheduler(spec.scheduler), jobs)
    gpus = topo.gpus()
    t1 = time.perf_counter()
    # a cross-machine distance builds the all-pairs matrix (below its
    # GPU cap) exactly as the first decision round would
    topo.distance(gpus[0], gpus[-1])
    t2 = time.perf_counter()
    return jobs, topo, t2 - t0, t2 - t1


class Probe(BaseObserver):
    """Benchmark-side observer: what each job did and in which step.

    It only appends while the engine runs; every check is computed
    after the timed phase.
    """

    def __init__(self) -> None:
        self.step = 0
        self.steps: list[float] = []
        self.rounds: list[float] = []
        self.arrived: dict[str, int] = {}
        self.first_place: dict[str, int] = {}
        self.places: list[tuple] = []
        self.releases: list[tuple] = []
        self.finished: list[str] = []
        self.evictions: list[tuple[str, str]] = []

    def on_arrival(self, t, job):
        self.arrived[job.job_id] = self.step

    def on_place(self, t, job, solution, solo_exec_time, postponements):
        self.places.append((t, job, tuple(solution.gpus)))
        self.first_place.setdefault(job.job_id, self.step)

    def on_finish(self, t, job, gpus):
        self.releases.append((t, job.job_id, tuple(gpus)))
        self.finished.append(job.job_id)

    def on_evict(self, t, job, gpus, reason):
        self.releases.append((t, job.job_id, tuple(gpus)))
        self.evictions.append((job.job_id, reason))


@dataclass
class Replay:
    result: object
    probe: Probe
    run_s: float
    cpu_s: float


def replay(spec: SimSpec, topo, jobs, timed: bool) -> Replay:
    """One ``Simulator.run`` of ``jobs``.

    With ``timed`` the host time of every engine step is recorded, and
    of every decision round that evaluates at least one placement (a
    round whose queued jobs are all turned away by the O(1) capacity
    check costs a tenth of one that proposes, and the share of such
    rounds varies with the trace).  The traced run leaves this to its
    spans.
    """
    probe = Probe()
    scheduler = make_scheduler(spec.scheduler)
    sim = Simulator(topo, scheduler, jobs, observers=[probe])
    clock = time.perf_counter
    if timed:
        step, schedule = sim.step, scheduler.schedule
        stats = sim.cluster.engine.stats

        def timed_step():
            t0 = clock()
            more = step()
            probe.steps.append(clock() - t0)
            probe.step += 1
            return more

        def timed_schedule(ctx):
            lookups = stats.lookups
            t0 = clock()
            placed = schedule(ctx)
            if stats.lookups != lookups:
                probe.rounds.append(clock() - t0)
            return placed

        sim.step = timed_step
        scheduler.schedule = timed_schedule
    c0, t0 = time.process_time(), clock()
    result = sim.run()
    run_s, cpu_s = clock() - t0, time.process_time() - c0
    return Replay(result, probe, run_s, cpu_s)


def check_replay(topo, jobs, rep: Replay) -> tuple[set[str], list[str]]:
    """Jobs that break a property, and run-wide problems, of one replay."""
    result, probe = rep.result, rep.probe
    ids = [j.job_id for j in jobs]
    gpu_machine = {g: topo.machine_of(g) for g in topo.gpus()}
    intervals, bad = checks.holding_intervals(
        [(t, job.job_id, gpus) for t, job, gpus in probe.places], probe.releases
    )
    bad |= checks.finished_once(ids, probe.finished)
    bad |= checks.gpu_overlaps(intervals)
    bad |= checks.placement_shape(
        [(job, gpus) for _, job, gpus in probe.places], gpu_machine
    )
    evicted = {j for j, _ in probe.evictions}
    rows = []
    for r in result.records:
        if r.unplaceable:
            bad.add(r.job.job_id)
        rows.append({
            "id": r.job.job_id,
            "arrival": r.arrival,
            "placed_at": r.placed_at,
            "finished_at": r.finished_at,
            "solo": r.solo_exec_time,
            "ideal": r.ideal_exec_time,
            "evicted": r.job.job_id in evicted,
        })
    bad |= checks.record_times(rows)
    problems = []
    if not checks.gpu_seconds_fit(intervals, result.makespan, len(gpu_machine)):
        problems.append("GPU-seconds exceed makespan x GPUs")
    return bad, problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def occupancy(result, n_gpus: int) -> float:
    """GPU-seconds held by final placements over makespan x GPUs."""
    held = sum(
        (r.finished_at - r.placed_at) * len(r.gpus)
        for r in result.records
        if r.finished_at is not None and r.placed_at is not None
    )
    return held / (result.makespan * n_gpus) if result.makespan else 0.0


@dataclass
class Summary:
    """What a run keeps of one replay once it is checked."""

    run_s: float
    cpu_s: float
    finished: int
    failed: int
    rounds: list[float]
    submit: list[float]
    start: list[float]
    makespan: float
    slowdowns: list[float]
    evictions: list[str]
    stats: dict
    occupancy: float


def summarize(topo, jobs, rep: Replay, problems: list[str]) -> Summary:
    bad, found = check_replay(topo, jobs, rep)
    problems.extend(found)
    probe, records = rep.probe, rep.result.records
    steps = probe.steps
    return Summary(
        run_s=rep.run_s,
        cpu_s=rep.cpu_s,
        finished=sum(1 for r in records if r.finished_at is not None),
        failed=len(bad),
        rounds=probe.rounds,
        # host time of the step that admitted each job, and of the step
        # that first placed it
        submit=[steps[k] for k in probe.arrived.values()] if steps else [],
        start=[steps[k] for k in probe.first_place.values()] if steps else [],
        makespan=rep.result.makespan,
        slowdowns=[
            (r.finished_at - r.arrival) / r.ideal_exec_time
            for r in records
            if r.finished_at is not None and r.ideal_exec_time > 0
        ],
        evictions=[reason for _, reason in probe.evictions],
        stats=rep.result.placement_stats,
        occupancy=occupancy(rep.result, len(topo.gpus())),
    )


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool, out_dir):
    spec = (QUICK if quick else SPECS)[name]
    setups = []
    while True:
        # each set-up starts from a collected heap, not from the garbage
        # of the one before
        gc.collect()
        first_jobs, topo, setup_s, matrix_s = setup(spec, seed)
        setups.append(setup_s)
        if trace or enough_setups(setups):
            break
    problems: list[str] = []
    done: list[Summary] = []
    timed_s = 0.0

    if trace:
        from loadbench.layers import install_sim_layers
        from loadbench.tracer import Tracer

        # the traced run replays trace 0 only, so its counts repeat
        # exactly for a seed; one untraced replay is the overhead base
        untraced = replay(spec, topo, first_jobs, timed=False)
        done.append(summarize(topo, first_jobs, untraced, problems))
        tracer = Tracer()
        install_sim_layers(tracer)
        traced = 0
        try:
            while traced == 0 or timed_s < seconds:
                rep = replay(spec, topo, first_jobs, timed=False)
                timed_s += rep.run_s
                traced += 1
                done.append(summarize(topo, first_jobs, rep, problems))
        finally:
            tracer.uninstall()
    else:
        i = 0
        while i < MIN_REPLAYS or timed_s < seconds:
            jobs = first_jobs if i == 0 else make_jobs(spec, seed, i)
            rep = replay(spec, topo, jobs, timed=True)
            timed_s += rep.run_s
            done.append(summarize(topo, jobs, rep, problems))
            del rep  # its records must not count into the next one's peak RSS
            i += 1

    reasons = [r for s in done for r in s.evictions]
    if spec.expect_evictions and not {"preempt", "migrate"} <= set(reasons):
        problems.append(f"expected preemptions and migrations, saw {sorted(set(reasons))}")
    attempted = len(first_jobs) * len(done)
    failed = sum(s.failed for s in done)
    info = {
        "replays": len(done),
        "jobs": len(first_jobs),
        "problems": sorted(set(problems)),
        "preemptions_per_replay": reasons.count("preempt") / len(done),
        "migrations_per_replay": reasons.count("migrate") / len(done),
        "memo": done[0].stats,
        "occupancy": statistics.fmean(s.occupancy for s in done),
        "run_s": [round(s.run_s, 3) for s in done],
    }

    if trace:
        from loadbench.layers import layer_metrics, self_time_table
        from loadbench.tracer import Spans

        path = out_dir / f"{name}.spans.npz"
        tracer.dump(path)
        spans = Spans(path)
        metrics = layer_metrics(spans, traced, timed_s)
        metrics["topology.matrix_build_s"] = matrix_s
        metrics["trace.overhead_ratio"] = (timed_s / traced) / untraced.run_s
        info["layers_per_replay"] = self_time_table(spans, traced)
        info["busy_round_share"] = metrics["sched.busy_rounds"] / metrics["sched.rounds"]
        return not problems, attempted, failed, metrics, info

    def pooled(field):
        return [x for s in done for x in getattr(s, field)]

    rounds, submit, start = pooled("rounds"), pooled("submit"), pooled("start")
    simulated = done[:MIN_REPLAYS]
    finished = sum(s.finished for s in done)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "jobs_per_s": finished / timed_s,
        "round_ms_p50": 1e3 * quantile(rounds, 0.50),
        "sim_makespan_s": statistics.fmean(s.makespan for s in simulated),
        "sim_slowdown_mean": statistics.fmean(x for s in simulated for x in s.slowdowns),
        "start_ms_p50": 1e3 * quantile(start, 0.50),
        "cpu_ms_per_job": 1e3 * sum(s.cpu_s for s in done) / finished,
    }
    info["decision_rounds"] = len(rounds)
    info["round_ms_p99"] = 1e3 * quantile(rounds, 0.99)
    info["submit_ms_p50"] = 1e3 * quantile(submit, 0.50)
    info["submit_ms_p99"] = 1e3 * quantile(submit, 0.99)
    info["start_ms_p99"] = 1e3 * quantile(start, 0.99)
    return not problems, attempted, failed, metrics, info
