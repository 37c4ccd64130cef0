"""Reference placement engine built on the direct functions.

:class:`~repro.core.placement.PlacementEngine` always runs two fast
paths: the incremental DRB split cache (:class:`BipartitionCache`) and
the top-k candidate prefilter (:class:`CandidatePrefilter`).  Both are
bit-identical by construction to the direct functions they stand in
for — ``drb_map(..., cache=None)``, ``evaluate_solution(..., cache=None)``
and ``filter_hosts(..., prefilter=None)`` — and this module is where
tests get that direct path back, whole or one fast path at a time, to
compare against the default engine record for record.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.constraints import CandidatePool, filter_hosts
from repro.core.drb import drb_map
from repro.core.placement import PlacementEngine, PlacementSolution
from repro.core.utility import evaluate_solution
from repro.sim.cluster import ClusterState
from repro.workload.job import Job
from repro.workload.jobgraph import JobGraph


class DirectPlacementEngine(PlacementEngine):
    """The placement path with either fast path swapped for its direct
    function (both by default).

    ``incremental_drb=True`` keeps the split cache and ``prefilter=True``
    keeps the top-k prefilter, so the mixed configurations stay
    testable.  The oracle fills no decision provenance.
    """

    def __init__(
        self,
        *args,
        incremental_drb: bool = False,
        prefilter: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.use_drb_cache = incremental_drb
        self.use_prefilter = prefilter

    def _propose(
        self,
        job: Job,
        co_runners: Mapping[str, tuple[Job, frozenset[str]]],
        provenance: dict | None = None,
    ) -> PlacementSolution | None:
        if self.use_drb_cache:
            self.drb_cache.sync(self.alloc)
        if self.use_prefilter:
            self.prefilter.top_k = self.max_pools
        pools = filter_hosts(
            self.topo, self.alloc, job, co_runners, self.profiles,
            prefilter=self.prefilter if self.use_prefilter else None,
        )
        if not pools:
            return None
        jobgraph = self.job_graph(job)
        best: PlacementSolution | None = None
        for pool in pools[: self.max_pools]:
            solution = self._solve_pool(job, jobgraph, pool, co_runners)
            if solution is None:
                continue
            if best is None or solution.utility > best.utility + 1e-12:
                best = solution
            if best.utility >= 1.0 - 1e-12:
                break
        return best

    def _solve_pool(
        self,
        job: Job,
        jobgraph: JobGraph,
        pool: CandidatePool,
        co_runners: Mapping[str, tuple[Job, frozenset[str]]],
    ) -> PlacementSolution | None:
        cache = self.drb_cache if self.use_drb_cache else None
        if job.anti_collocation:
            mapping = self._anti_collocation_mapping(job, pool)
            if mapping is None:
                return None
        else:
            try:
                mapping = drb_map(
                    self.topo, self.alloc, job, jobgraph, pool.gpus,
                    co_runners, self.params, self.interference, cache=cache,
                )
            except ValueError:
                return None
        gpus = tuple(sorted(mapping.values()))
        p2p = all(
            self.topo.p2p_connected(a, b)
            for i, a in enumerate(gpus)
            for b in gpus[i + 1 :]
        )
        metrics = evaluate_solution(
            self.topo, self.alloc, job, gpus, co_runners, self.params,
            self.interference, cache=cache,
        )
        return PlacementSolution(
            job_id=job.job_id,
            gpus=gpus,
            task_mapping=dict(mapping),
            metrics=metrics,
            pool=pool,
            p2p=p2p,
        )


def direct_cluster_state(topo, **flags) -> ClusterState:
    """A default :class:`ClusterState` whose engine is the oracle."""
    state = ClusterState(topo)
    state.engine = DirectPlacementEngine(
        topo, state.alloc, state.params, None, state.interference, **flags
    )
    return state
