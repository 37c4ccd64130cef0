"""Which public functions of the program are traced, and the per-layer
metrics computed from their spans.

Every span name is ``<layer>.<what>``; :data:`LAYERS` maps each layer to
its span names so that per-layer self times can be summed and checked
against the traced timed phase.
"""

from __future__ import annotations

from loadbench.tracer import Spans, Tracer

#: layer -> span names recorded for it
LAYERS = {
    "engine": ("engine.start", "engine.step", "engine.finish"),
    "cluster": (
        "cluster.advance", "cluster.co_runners", "cluster.refresh_rates",
        "cluster.lifecycle", "cluster.evict",
    ),
    "interference": ("interference.slowdown",),
    "sched": ("sched.round",),
    "placement": ("placement.propose", "placement.score", "placement.enforce"),
    "constraints": ("constraints.filter",),
    "drb": ("drb.map", "drb.bipartition"),
    "utility": ("utility.eval",),
    "allocation": ("allocation.write",),
    "topology": ("topology.matrix_build",),
    "observers": ("observers",),
    "obs": ("obs.telemetry", "obs.snapshot", "obs.sampler", "obs.recorder"),
    "http": ("http.post",),
    "service": (
        "service.submit", "service.parse", "service.admission",
        "service.journal", "service.lifecycle", "service.apply",
        "service.gauges",
    ),
    "sse": ("sse.serialize",),
}

_HOOKS = (
    "on_arrival", "on_place", "on_finish", "on_failure", "on_requeue",
    "on_evict", "on_decision_round",
)


def install_sim_layers(tracer: Tracer) -> None:
    """Wrap the simulation stack: engine, cluster, scheduler, placement
    and everything placement calls."""
    from repro.core import drb, placement
    from repro.perf.interference import InterferenceModel
    from repro.schedulers.topo import TopoAwareScheduler
    from repro.sim.cluster import ClusterState
    from repro.sim.engine import Simulator
    from repro.sim.hooks import CompositeObserver
    from repro.topology.allocation import AllocationState

    # Simulator.run itself is left bare: its loop outside these three is
    # the only host time of a replay that no layer accounts for
    tracer.patch(Simulator, "start", "engine.start")
    tracer.patch(Simulator, "step", "engine.step")
    tracer.patch(Simulator, "finish", "engine.finish")
    tracer.patch(ClusterState, "advance_to", "cluster.advance")
    tracer.patch(ClusterState, "co_runners", "cluster.co_runners")
    tracer.patch(ClusterState, "refresh_rates", "cluster.refresh_rates")
    for attr in ("start", "finish", "cancel"):
        tracer.patch(ClusterState, attr, "cluster.lifecycle")
    tracer.patch(ClusterState, "preempt", "cluster.evict")
    tracer.patch(InterferenceModel, "slowdown_factor", "interference.slowdown")

    def busy(args, _count=tracer.count):
        if args[0].queue_length():
            _count("sched.busy_rounds")

    tracer.patch(TopoAwareScheduler, "schedule", "sched.round", before=busy)
    tracer.patch(placement.PlacementEngine, "propose", "placement.propose")
    tracer.patch(placement.PlacementEngine, "score_allocation", "placement.score")
    tracer.patch(placement.PlacementEngine, "enforce", "placement.enforce")
    # module globals, wrapped where placement looks them up
    tracer.patch(placement, "filter_hosts", "constraints.filter")
    tracer.patch(placement, "drb_map", "drb.map")
    tracer.patch(placement, "evaluate_solution", "utility.eval")
    tracer.patch(drb, "job_graph_bipartition", "drb.bipartition")
    tracer.patch(AllocationState, "allocate", "allocation.write")
    tracer.patch(AllocationState, "release", "allocation.write")
    for hook in _HOOKS:
        tracer.patch(CompositeObserver, hook, "observers")


def install_service_layers(tracer: Tracer) -> None:
    """Wrap the daemon's own layers: HTTP, admission, journal, lifecycle,
    observers, SSE and the loop."""
    from repro.obs import server
    from repro.obs.provenance import DecisionRecorder
    from repro.obs.state import SnapshotObserver
    from repro.obs.telemetry import TelemetryObserver
    from repro.obs.timeseries import TimeSeriesSampler
    from repro.service import daemon
    from repro.service.queue import QueueManager
    from repro.service.statemachine import LifecycleTable
    from repro.service.store import ServiceStore
    from repro.topology.graph import TopologyGraph

    # the all-pairs matrix is built lazily by whichever of these runs first
    tracer.once(
        TopologyGraph,
        ("distance", "distance_matrix", "pairwise_distance_sum"),
        "topology.matrix_build",
    )
    tracer.patch(server._Handler, "do_POST", "http.post")
    tracer.patch(daemon.SchedulerService, "submit", "service.submit")
    tracer.patch(daemon, "job_from_dict", "service.parse")
    tracer.patch(QueueManager, "admit_and_reserve", "service.admission")
    tracer.patch(QueueManager, "enqueue", "service.admission")
    tracer.patch(ServiceStore, "journal_submission", "service.journal")
    tracer.patch(ServiceStore, "journal_transition", "service.journal")
    for attr in ("create", "advance", "advance_if"):
        tracer.patch(LifecycleTable, attr, "service.lifecycle")
    # the loop thread has no public per-iteration entry point: its
    # iteration is apply-inbox, step, refresh-gauges
    tracer.patch(daemon.SchedulerService, "_apply_submissions", "service.apply")
    tracer.patch(daemon.SchedulerService, "_refresh_gauges", "service.gauges")
    for cls, span in (
        (TelemetryObserver, "obs.telemetry"),
        (SnapshotObserver, "obs.snapshot"),
        (TimeSeriesSampler, "obs.sampler"),
        (DecisionRecorder, "obs.recorder"),
    ):
        for hook in _HOOKS:
            if hook in cls.__dict__:
                tracer.patch(cls, hook, span)
    tracer.patch(DecisionRecorder, "decision", "obs.recorder")

    def frames(args, result, _count=tracer.count):
        if result:
            _count("sse.frames", len(result))

    tracer.patch(DecisionRecorder, "entries_after", "sse.serialize", after=frames)


LOOP_THREAD = "repro-scheduler-loop"


def layer_metrics(spans: Spans, replays: int, timed_s: float | None) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans, per replay of the
    workload's inputs (``replays`` is 1 for the daemon).

    ``timed_s`` is the traced timed phase measured around the replays
    (simulation workloads): the sum of every layer's self time is
    reported as a share of it.
    """
    c = spans.counters
    propose = spans.calls("placement.propose")
    computed = spans.with_child(("placement.propose",), ("constraints.filter",))
    per = 1.0 / replays
    m = {
        "engine.steps": spans.calls("engine.step") * per,
        "engine.step_s": spans.total("engine.step") * per,
        "cluster.advance_s": spans.total("cluster.advance") * per,
        "cluster.co_runners_calls": spans.calls("cluster.co_runners") * per,
        "cluster.co_runners_s": spans.total("cluster.co_runners") * per,
        "cluster.refresh_rates_s": spans.total("cluster.refresh_rates") * per,
        "cluster.lifecycle_s": spans.total("cluster.lifecycle", "cluster.evict") * per,
        "interference.slowdown_calls": spans.calls("interference.slowdown") * per,
        "interference.slowdown_s": spans.total("interference.slowdown") * per,
        "sched.rounds": spans.calls("sched.round") * per,
        "sched.busy_rounds": c.get("sched.busy_rounds", 0) * per,
        "sched.round_s": spans.total("sched.round") * per,
        "placement.propose_calls": propose * per,
        "placement.propose_s": spans.total("placement.propose") * per,
        "placement.score_calls": spans.calls("placement.score") * per,
        "placement.score_s": spans.total("placement.score") * per,
        "placement.place_ratio": (
            spans.calls("placement.enforce") / propose if propose else 0.0
        ),
        "placement.memo_hit_ratio": (propose - computed) / propose if propose else 0.0,
        "constraints.filter_calls": spans.calls("constraints.filter") * per,
        "constraints.filter_s": spans.total("constraints.filter") * per,
        "drb.map_calls": spans.calls("drb.map") * per,
        "drb.map_s": spans.total("drb.map") * per,
        "drb.pools_per_propose": spans.calls("drb.map") / propose if propose else 0.0,
        "drb.bipartition_calls": spans.calls("drb.bipartition") * per,
        "drb.bipartition_s": spans.total("drb.bipartition") * per,
        "utility.eval_calls": spans.calls("utility.eval") * per,
        "utility.eval_s": spans.total("utility.eval") * per,
        # the scheduler's own allocate/release calls are the probes of
        # its preemption and defrag passes: enforced placements go
        # through placement.enforce and evictions through cluster.evict
        "allocation.probe_writes": spans.child_of(("allocation.write",), "sched.round") * per,
        "evict.count": spans.calls("cluster.evict") * per,
        "topology.matrix_build_s": spans.total("topology.matrix_build"),
        "observers.s": spans.total("observers") * per,
        "obs.telemetry_s": spans.total("obs.telemetry") * per,
        "obs.snapshot_s": spans.total("obs.snapshot") * per,
        "obs.sampler_s": spans.total("obs.sampler") * per,
        "obs.recorder_s": spans.total("obs.recorder") * per,
        "http.posts": spans.calls("http.post") * per,
        "http.post_s": spans.total("http.post") * per,
        "service.submit_s": spans.total("service.submit") * per,
        "service.parse_s": spans.total("service.parse") * per,
        "service.admission_s": spans.total("service.admission") * per,
        "service.journal_commits": spans.calls("service.journal") * per,
        "service.journal_s": spans.total("service.journal") * per,
        "service.lifecycle_s": spans.total("service.lifecycle") * per,
        "service.loop_steps": spans.calls("service.gauges") * per,
        "service.loop_step_s": spans.thread_roots_total(LOOP_THREAD) * per,
        "sse.frames": c.get("sse.frames", 0) * per,
        "sse.serialize_s": spans.total("sse.serialize") * per,
    }
    for layer, names in LAYERS.items():
        m[f"{layer}.self_s"] = spans.self_s(*names) * per
    total_self = sum(spans.self_s(*names) for names in LAYERS.values())
    m["trace.self_sum_ratio"] = total_self / timed_s if timed_s else 0.0
    return m


def self_time_table(spans: Spans, replays: int) -> dict[str, dict[str, float]]:
    """layer -> {calls, total_s, self_s} per replay, for the report."""
    out = {}
    for layer, names in LAYERS.items():
        calls = spans.calls(*names)
        if calls:
            out[layer] = {
                "calls": calls / replays,
                "total_s": spans.total(*names) / replays,
                "self_s": spans.self_s(*names) / replays,
            }
    return out
