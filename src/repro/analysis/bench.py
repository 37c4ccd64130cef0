"""Decision-round benchmarking (the ``repro bench`` subcommand).

Times scheduler decision rounds at the paper's evaluation scales —
Figure 10 (scenario 1: 100 jobs on a 5-machine cluster) and Figure 11
(scenario 2: a large heavily-loaded cluster, scaled down by default so
a laptop finishes in seconds) — and emits a ``BENCH_*.json`` artifact
that forms the repository's performance trajectory: every point in the
file can be regression-checked by CI against a committed baseline.

The quantity tracked is ``mean_decision_time_s``, the wall clock spent
inside ``scheduler.schedule`` per decision round (the paper's §5.5.3
overhead metric: TOPO-AWARE ≈3 s vs FCFS ≈0.45 s per round at 10k-job
scale).  Placement-memo, incremental-DRB and candidate-prefilter
counters ride along so a speedup can be attributed (cache hits vs raw
fast-path gains), and every bench run re-verifies bit-identical
placements with the memo disabled and with the decision recorder
attached before reporting numbers.

The incremental-DRB split cache and the top-k candidate prefilter are
the engine's only placement path, so there is no on/off timing here:
the loaded-regime benchmark (``loadbench/``) bounds their end-to-end
cost, and the test suite checks them record-for-record against the
direct functions (``tests/sim/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.schedulers import make_scheduler
from repro.sim.cluster import ClusterState
from repro.sim.engine import Simulator
from repro.sim.records import SimulationResult
from repro.topology.builders import cluster
from repro.workload.job import Job

#: record fields compared by the equivalence check (mirrors the golden
#: equivalence tests: every measured output of a run, compared with
#: ``==`` — bit-identical floats, no tolerance).
RECORD_FIELDS = (
    "arrival",
    "placed_at",
    "finished_at",
    "gpus",
    "utility",
    "p2p",
    "solo_exec_time",
    "ideal_exec_time",
    "postponements",
    "unplaceable",
    "restarts",
)

#: benchmark scales: name -> (n_jobs, n_machines).  ``fig11`` runs the
#: paper's full 1000-machine scenario-2 cluster (the scaling fast
#: paths keep a 300-job run in CI-friendly seconds; the paper's full
#: 10k-job trace is still a multi-minute affair — pass explicit
#: ``--jobs`` for it).
SCALES = {
    "fig10": (100, 5),
    "fig11": (300, 1000),
}

DEFAULT_SCHEDULERS = ("FCFS", "BF", "TOPO-AWARE", "TOPO-AWARE-P")


@dataclass
class BenchResult:
    """Everything one bench invocation measured."""

    scale: str
    n_jobs: int
    n_machines: int
    repeats: int
    schedulers: dict[str, dict] = field(default_factory=dict)
    equivalence: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "bench": self.scale,
            "n_jobs": self.n_jobs,
            "n_machines": self.n_machines,
            "repeats": self.repeats,
            "platform": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "system": platform.system(),
            },
            "schedulers": self.schedulers,
        }
        if self.equivalence is not None:
            out["equivalence"] = self.equivalence
        return out


def _jobs_for(scale: str, n_jobs: int, n_machines: int) -> list[Job]:
    from repro.analysis.scenarios import scenario1_jobs, scenario2_jobs

    if scale == "fig10":
        return scenario1_jobs(n_jobs, seed=42)
    return scenario2_jobs(n_jobs, n_machines, seed=7)


def _run_once(
    jobs: Sequence[Job],
    n_machines: int,
    scheduler_name: str,
    *,
    memo_size: int | None = None,
    recorder=None,
) -> tuple[SimulationResult, float]:
    """One simulation on a fresh topology; returns (result, wall s)."""
    topo = cluster(n_machines)
    state = ClusterState(topo)
    if memo_size is not None:
        state.engine.memo_size = memo_size
    sim = Simulator(
        topo,
        make_scheduler(scheduler_name),
        list(jobs),
        cluster=state,
        observers=[recorder] if recorder is not None else (),
    )
    t0 = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - t0
    return result, wall


def _records_identical(a: SimulationResult, b: SimulationResult) -> bool:
    if len(a.records) != len(b.records):
        return False
    for ra, rb in zip(a.records, b.records):
        if ra.job.job_id != rb.job.job_id:
            return False
        for name in RECORD_FIELDS:
            if getattr(ra, name) != getattr(rb, name):
                return False
    return True


def check_equivalence(
    jobs: Sequence[Job], n_machines: int, scheduler_name: str = "TOPO-AWARE"
) -> dict:
    """Engine fast path and tap vs the plain engine: placements must match.

    Complements the golden tests (which pin the fast path against
    committed seed-engine outputs at fixed scales) by re-proving, at
    whatever scale the bench runs, that neither the memo nor the
    provenance recorder changes a decision:

    * ``identical`` — placement memo on vs memo disabled;
    * ``recorder_identical`` — the decision-provenance recorder
      attached (pure-tap proof), with its recorded/dropped counters.
    """
    from repro.obs.provenance import DecisionRecorder

    memo, _ = _run_once(jobs, n_machines, scheduler_name)
    cold, _ = _run_once(jobs, n_machines, scheduler_name, memo_size=0)
    recorder = DecisionRecorder(journal=True)
    recorded, _ = _run_once(
        jobs, n_machines, scheduler_name, recorder=recorder
    )
    return {
        "scheduler": scheduler_name,
        "identical": _records_identical(memo, cold),
        "recorder_identical": _records_identical(memo, recorded),
        "memo_stats": memo.placement_stats,
        "decision_stats": recorder.counts(),
    }


def run_bench(
    scale: str = "fig10",
    *,
    n_jobs: int | None = None,
    n_machines: int | None = None,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    repeats: int = 3,
    verify: bool = True,
) -> BenchResult:
    """Time decision rounds for each scheduler at one scale.

    Each scheduler runs ``repeats`` times on fresh topologies; the
    reported decision time is the *minimum* across repeats (the usual
    benchmarking convention: least-noise estimate of the true cost).
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    default_jobs, default_machines = SCALES[scale]
    n_jobs = n_jobs if n_jobs is not None else default_jobs
    n_machines = n_machines if n_machines is not None else default_machines
    jobs = _jobs_for(scale, n_jobs, n_machines)

    bench = BenchResult(
        scale=scale, n_jobs=n_jobs, n_machines=n_machines, repeats=repeats
    )
    for name in schedulers:
        best: dict | None = None
        for _ in range(repeats):
            result, wall = _run_once(jobs, n_machines, name)
            row = {
                "wall_s": wall,
                "decision_time_s": result.decision_time_s,
                "decision_rounds": result.decision_rounds,
                "mean_decision_time_s": result.mean_decision_time_s,
                "makespan_s": result.makespan,
                "placement_stats": result.placement_stats,
                "drb_stats": result.drb_stats,
                "prefilter_stats": result.prefilter_stats,
            }
            if best is None or row["decision_time_s"] < best["decision_time_s"]:
                best = row
        bench.schedulers[name] = best
    if verify:
        bench.equivalence = check_equivalence(jobs, n_machines)
    return bench


def write_bench(bench: BenchResult, path: Path) -> Path:
    """Serialise a bench result as a ``BENCH_*.json`` artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(bench.as_dict(), indent=2, sort_keys=True) + "\n")
    return path


def compare_to_baseline(
    bench: BenchResult,
    baseline_path: Path,
    threshold: float = 3.0,
) -> list[str]:
    """Regression check against a committed ``BENCH_*.json``.

    Returns human-readable failure lines; empty = within budget.  A
    scheduler regresses when its mean decision time exceeds the
    baseline's by more than ``threshold``x — generous by design, since
    CI machines differ from the one that wrote the baseline.

    Raises :class:`OSError` when the baseline file is missing or
    unreadable and :class:`ValueError` when its contents are not a
    bench artifact — callers (``repro bench --check-against``) turn
    both into a one-line error and exit code 2.
    """
    baseline_path = Path(baseline_path)
    try:
        baseline = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed baseline {baseline_path}: {exc}") from exc
    if not isinstance(baseline, dict) or not isinstance(
        baseline.get("schedulers", {}), dict
    ):
        raise ValueError(
            f"malformed baseline {baseline_path}: expected a BENCH_*.json "
            'object with a "schedulers" table'
        )
    failures: list[str] = []
    for name, row in bench.schedulers.items():
        base_row = baseline.get("schedulers", {}).get(name)
        if base_row is None:
            continue
        if not isinstance(base_row, dict) or not isinstance(
            base_row.get("mean_decision_time_s"), (int, float)
        ):
            raise ValueError(
                f"malformed baseline {baseline_path}: scheduler {name!r} "
                'row lacks a numeric "mean_decision_time_s"'
            )
        base = base_row["mean_decision_time_s"]
        cur = row["mean_decision_time_s"]
        if base > 0 and cur > base * threshold:
            failures.append(
                f"{name}: mean decision round {cur:.6f}s exceeds "
                f"{threshold:.1f}x the committed baseline {base:.6f}s"
            )
    if bench.equivalence is not None and not bench.equivalence["identical"]:
        failures.append(
            "fast-path equivalence check failed: memoised and cold engines "
            "produced different placements"
        )
    if bench.equivalence is not None and not bench.equivalence.get(
        "recorder_identical", True
    ):
        failures.append(
            "provenance equivalence check failed: attaching the decision "
            "recorder changed placements"
        )
    return failures


def format_bench(bench: BenchResult) -> str:
    """Terminal table for one bench run."""
    lines = [
        f"bench {bench.scale}: {bench.n_jobs} jobs / {bench.n_machines} "
        f"machines (best of {bench.repeats})",
        f"{'scheduler':<14}{'mean-round':>12}{'rounds':>8}{'total':>10}"
        f"{'memo-hit%':>10}",
    ]
    for name, row in bench.schedulers.items():
        stats = row.get("placement_stats") or {}
        hit_rate = stats.get("hit_rate")
        hit = f"{hit_rate * 100.0:9.1f}%" if hit_rate is not None else f"{'-':>10}"
        lines.append(
            f"{name:<14}{row['mean_decision_time_s'] * 1e3:>10.3f}ms"
            f"{row['decision_rounds']:>8d}{row['decision_time_s']:>9.3f}s"
            f"{hit}"
        )
    if bench.equivalence is not None:
        verdict = "OK" if bench.equivalence["identical"] else "MISMATCH"
        lines.append(
            f"equivalence ({bench.equivalence['scheduler']}, memo vs cold): "
            f"{verdict}"
        )
        if "recorder_identical" in bench.equivalence:
            rec_verdict = (
                "OK" if bench.equivalence["recorder_identical"] else "MISMATCH"
            )
            stats = bench.equivalence.get("decision_stats") or {}
            lines.append(
                f"equivalence ({bench.equivalence['scheduler']}, recorder "
                f"attached): {rec_verdict} "
                f"({stats.get('recorded', 0)} decisions recorded, "
                f"{stats.get('dropped', 0)} dropped)"
            )
    return "\n".join(lines)
