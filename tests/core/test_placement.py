"""Tests for the end-to-end placement engine psi(A, P)."""

import pytest

from repro.core.placement import PlacementEngine
from repro.topology.allocation import AllocationState
from repro.topology.builders import cluster, dgx1, power8_minsky, power8_pcie_k80

from tests.conftest import make_job


class TestPropose:
    def test_empty_machine_perfect_pack(self, engine):
        sol = engine.propose(make_job(num_gpus=2, batch_size=1))
        assert sol.utility == pytest.approx(1.0)
        assert sol.p2p
        assert len(sol.gpus) == 2

    def test_full_machine_returns_none(self, minsky, alloc):
        engine = PlacementEngine(minsky, alloc)
        alloc.allocate("x", minsky.gpus())
        assert engine.propose(make_job(num_gpus=1)) is None

    def test_task_mapping_covers_tasks(self, engine):
        sol = engine.propose(make_job(num_gpus=3))
        assert sorted(sol.task_mapping) == [0, 1, 2]
        assert set(sol.task_mapping.values()) == set(sol.gpus)

    def test_fragmented_state_yields_split_with_low_utility(self, minsky, alloc):
        engine = PlacementEngine(minsky, alloc)
        alloc.allocate("a", ["m0/gpu1"])
        alloc.allocate("b", ["m0/gpu3"])
        sol = engine.propose(make_job(num_gpus=2, batch_size=1))
        assert sol is not None
        assert not sol.p2p
        assert sol.utility < 0.7

    def test_avoids_interference_when_possible(self, minsky, alloc):
        engine = PlacementEngine(minsky, alloc)
        noisy = make_job("noisy", batch_size=1, num_gpus=1)
        alloc.allocate("noisy", ["m0/gpu0"])
        co = {"noisy": (noisy, frozenset(["m0/gpu0"]))}
        sol = engine.propose(make_job("j", num_gpus=2, batch_size=1), co)
        assert sorted(sol.gpus) == ["m0/gpu2", "m0/gpu3"]

    def test_cluster_prefers_tight_machine_when_clean(self):
        topo = cluster(2)
        alloc = AllocationState(topo)
        engine = PlacementEngine(topo, alloc)
        # m0 half-used by a big-batch (quiet) job on socket0
        quiet = make_job("quiet", batch_size=128, num_gpus=2)
        alloc.allocate("quiet", ["m0/gpu0", "m0/gpu1"])
        co = {"quiet": (quiet, frozenset(["m0/gpu0", "m0/gpu1"]))}
        sol = engine.propose(make_job("j", num_gpus=2, batch_size=128), co)
        assert {topo.machine_of(g) for g in sol.gpus} == {"m0"}

    def test_best_of_multiple_pools(self):
        topo = cluster(2)
        alloc = AllocationState(topo)
        engine = PlacementEngine(topo, alloc)
        # m0 fragmented (1 GPU each socket), m1 fully free
        alloc.allocate("a", ["m0/gpu0"])
        alloc.allocate("c", ["m0/gpu2"])
        sol = engine.propose(make_job(num_gpus=2, batch_size=1))
        assert {topo.machine_of(g) for g in sol.gpus} == {"m1"}
        assert sol.p2p


class TestExplain:
    """The candidate report :meth:`PlacementEngine.propose` files into
    decision provenance (what ``repro explain`` renders)."""

    def test_best_candidate_matches_propose(self):
        topo = cluster(3)
        alloc = AllocationState(topo)
        engine = PlacementEngine(topo, alloc, memo_size=0)
        alloc.allocate("a", ["m0/gpu1"])
        alloc.allocate("b", ["m1/gpu1", "m1/gpu3"])
        provenance: dict = {}
        proposed = engine.propose(
            make_job(num_gpus=2, batch_size=1), provenance=provenance
        )
        candidates = provenance["candidates"]
        assert len(candidates) >= 2  # multiple pools were considered
        assert max(c["utility"] for c in candidates) == proposed.utility
        assert topo.machine_of(proposed.gpus[0]) in {
            m for c in candidates for m in c["machines"]
        }

    def test_empty_when_nothing_fits(self, minsky, alloc):
        engine = PlacementEngine(minsky, alloc)
        alloc.allocate("x", minsky.gpus())
        provenance: dict = {}
        assert engine.propose(make_job(num_gpus=1), provenance=provenance) is None
        assert provenance["reason"] == "no-feasible-pool"
        assert "candidates" not in provenance


class TestAntiCollocation:
    def test_tasks_on_distinct_sockets(self, minsky, alloc):
        engine = PlacementEngine(minsky, alloc)
        sol = engine.propose(make_job(num_gpus=2, anti_collocation=True))
        sockets = {minsky.socket_of(g) for g in sol.gpus}
        assert len(sockets) == 2


class TestScoreAllocation:
    def test_scores_arbitrary_gpus(self, engine, minsky):
        sol = engine.score_allocation(
            make_job(num_gpus=2), ("m0/gpu0", "m0/gpu2")
        )
        assert not sol.p2p
        assert sol.metrics.comm_norm == 1.0

    def test_matches_propose_for_same_gpus(self, engine):
        job = make_job(num_gpus=2, batch_size=1)
        proposed = engine.propose(job)
        scored = engine.score_allocation(job, proposed.gpus)
        assert scored.utility == pytest.approx(proposed.utility)


class TestP2PAttainability:
    def test_minsky_pair_attainable(self, engine):
        assert engine.p2p_attainable(make_job(num_gpus=2, batch_size=1))

    def test_minsky_quad_not_attainable(self, engine):
        # NVLink islands on Minsky have size 2
        assert not engine.p2p_attainable(make_job(num_gpus=4, batch_size=1))

    def test_dgx_quad_attainable(self):
        topo = dgx1()
        engine = PlacementEngine(topo, AllocationState(topo))
        assert engine.p2p_attainable(make_job(num_gpus=4, batch_size=1))

    def test_non_p2p_job_always_attainable(self, engine):
        assert engine.p2p_attainable(make_job(num_gpus=4, batch_size=128))


class TestEnforceAndSatisfies:
    def test_enforce_commits(self, engine, alloc):
        job = make_job(num_gpus=2)
        sol = engine.propose(job)
        engine.enforce(sol)
        assert alloc.gpus_of(job.job_id) == set(sol.gpus)

    def test_satisfies_utility_threshold(self, engine):
        job = make_job(num_gpus=2, batch_size=1, min_utility=0.9)
        sol = engine.propose(job)
        assert sol.satisfies(job)

    def test_satisfies_rejects_missing_p2p(self, minsky, alloc):
        engine = PlacementEngine(minsky, alloc)
        alloc.allocate("a", ["m0/gpu1"])
        alloc.allocate("b", ["m0/gpu3"])
        job = make_job(num_gpus=2, batch_size=1, min_utility=0.0)
        sol = engine.propose(job)
        assert not sol.p2p
        assert not sol.satisfies(job)  # tiny batch requires P2P

    def test_satisfies_ok_without_p2p_for_big_batch(self, minsky, alloc):
        engine = PlacementEngine(minsky, alloc)
        alloc.allocate("a", ["m0/gpu1"])
        alloc.allocate("b", ["m0/gpu3"])
        job = make_job(num_gpus=2, batch_size=128, min_utility=0.0)
        sol = engine.propose(job)
        assert sol.satisfies(job)
