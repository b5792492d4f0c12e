"""Hierarchical multi-pod mesh: two-tier links, overlap schedule, pod loss.

Covers the split-phase overlap contract (bit-identity with the blocking
schedule for every updater/dtype, with and without fault injection —
only the modeled clock may move), the two-tier link model's calibration
contract (intra-pod tier == the flat Table 4 fit), pod-granular elastic
degrade, checkpoint round-trips of the new fields, and the telemetry
surface (``halo_overlap_*`` gauges, "halo overlap" trace track).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SimulationConfig, distributed, ensemble, simulate
from repro.core.distributed import DistributedIsing
from repro.mesh.faults import FaultEvent, FaultPlan, PodLostError
from repro.mesh.links import LinkModel, TwoTierLinkModel, interior_fraction
from repro.mesh.runtime import LockstepError, OverlapCommit, PermuteRequest, SPMDRuntime
from repro.mesh.topology import HierarchicalTorus, Torus2D
from repro.observables.onsager import spontaneous_magnetization
from repro.telemetry.report import RunTelemetry
from repro.telemetry.trace import chrome_trace


def _transient_plan() -> FaultPlan:
    return FaultPlan(
        events=(
            FaultEvent("drop", collective=3, count=1),
            FaultEvent("delay", collective=9, seconds=20e-6),
            FaultEvent("stall", collective=13, core=1, seconds=40e-6),
        )
    )


class TestTwoTierLinkModel:
    def test_intra_pod_tier_reproduces_flat_fit(self):
        """The calibration contract: single-pod pricing is Table 4 pricing."""
        flat = LinkModel()
        two = TwoTierLinkModel()
        pairs = Torus2D(4, 4).shift_pairs("south")
        for topo in (Torus2D(4, 4), HierarchicalTorus(4, 4, 1, 1)):
            assert two.permute_time_on(topo, pairs, 1024.0) == pytest.approx(
                flat.permute_time(16, 1024.0)
            )

    def test_pod_crossing_collectives_pay_the_inter_tier(self):
        two = TwoTierLinkModel()
        hier = HierarchicalTorus(4, 4, 2, 2)
        crossing = hier.shift_pairs("south")  # wraps across pod boundaries
        inside = [(0, 1)]  # both cores in pod 0
        intra_only = two.permute_time_on(hier, inside, 256.0)
        assert intra_only == pytest.approx(
            two.permute_time(hier.cores_per_pod, 256.0)
        )
        full = two.permute_time_on(hier, crossing, 256.0)
        assert full == pytest.approx(
            intra_only + two.inter_pod_time(hier.num_pods, 256.0)
        )
        assert full > 2 * intra_only  # the slow tier dominates

    def test_inter_pod_time_validation(self):
        two = TwoTierLinkModel()
        with pytest.raises(ValueError, match="positive"):
            two.inter_pod_time(0, 16.0)
        with pytest.raises(ValueError, match=">= 0"):
            two.inter_pod_time(4, -1.0)

    def test_interior_fraction(self):
        assert interior_fraction((2, 2)) == 0.0  # all boundary
        assert interior_fraction((64, 64)) == pytest.approx(1 - 126 / 2048)
        assert interior_fraction((4096, 2048)) > 0.998
        with pytest.raises(ValueError, match="positive"):
            interior_fraction((0, 8))


class TestOverlapBitIdentity:
    """Overlap may only move the modeled clock, never the chain."""

    @pytest.mark.parametrize("updater", ["compact", "conv"])
    @pytest.mark.parametrize("dtype", ["float32", "bfloat16"])
    @pytest.mark.parametrize("faulted", [False, True], ids=["solo", "faulted"])
    def test_states_and_counters_match_blocking(self, updater, dtype, faulted):
        lattices, counters = [], []
        for overlap in (False, True):
            sim = distributed(
                SimulationConfig(
                    shape=16,
                    temperature=2.2,
                    updater=updater,
                    dtype=dtype,
                    grid=(2, 2),
                    pod_grid=(2, 2),
                    overlap=overlap,
                    seed=7,
                    fault_plan=_transient_plan() if faulted else None,
                )
            )
            sim.sweep(3)
            lattices.append(sim.gather_lattice())
            counters.append([s.state() for s in sim._streams])
        assert np.array_equal(lattices[0], lattices[1])
        assert counters[0] == counters[1]

    def test_overlap_on_flat_torus_is_also_bit_identical(self):
        lattices = []
        for overlap in (False, True):
            sim = DistributedIsing(
                (16, 16), 2.2, core_grid=(2, 2), seed=5, overlap=overlap
            )
            sim.sweep(4)
            lattices.append(sim.gather_lattice())
        assert np.array_equal(lattices[0], lattices[1])


class TestOverlapClock:
    def test_auto_resolution(self):
        flat = DistributedIsing((16, 16), 2.2, core_grid=(2, 2))
        assert flat.overlap is False
        single_pod = DistributedIsing(
            (16, 16), 2.2, core_grid=(2, 2), pod_grid=(1, 1)
        )
        assert single_pod.overlap is False
        multi_pod = DistributedIsing(
            (16, 16), 2.2, core_grid=(2, 2), pod_grid=(2, 2)
        )
        assert multi_pod.overlap is True
        assert isinstance(multi_pod.torus, HierarchicalTorus)
        assert isinstance(multi_pod.runtime.link_model, TwoTierLinkModel)

    def test_overlap_beats_blocking_on_the_modeled_clock(self):
        steps = {}
        for overlap in (False, True):
            sim = DistributedIsing(
                (128, 128),
                2.2,
                core_grid=(4, 4),
                pod_grid=(2, 2),
                seed=1,
                overlap=overlap,
            )
            sim.sweep(2)
            steps[overlap] = sim.step_time()
        assert steps[True] < steps[False]

    def test_window_counters_and_log(self):
        sim = DistributedIsing(
            (16, 16), 2.2, core_grid=(2, 2), pod_grid=(2, 2), seed=3
        )
        sim.sweep(2)
        rt = sim.runtime
        assert rt.overlap_windows == 4  # two colour phases x two sweeps
        assert len(rt.overlap_log) == 4
        span = rt.overlap_log[0]
        assert span["permutes"] == 4
        assert span["comm_seconds"] == pytest.approx(
            span["hidden_seconds"] + span["exposed_seconds"]
        )
        assert rt.overlap_hidden_seconds + rt.overlap_exposed_seconds == (
            pytest.approx(sum(s["comm_seconds"] for s in rt.overlap_log))
        )

    def test_total_comm_bytes_match_blocking(self):
        """Hidden time must not hide bytes: profiler byte totals agree."""
        totals = []
        for overlap in (False, True):
            sim = DistributedIsing(
                (16, 16), 2.2, core_grid=(2, 2), pod_grid=(2, 2),
                seed=3, overlap=overlap,
            )
            sim.sweep(2)
            totals.append(
                sum(
                    core.profiler.bytes["communication"]
                    for core in sim.pod.cores
                )
            )
        assert totals[0] == pytest.approx(totals[1])

    def test_uncommitted_window_raises(self):
        torus = Torus2D(1, 2)
        runtime = SPMDRuntime(torus)

        def program(core_id):
            yield PermuteRequest(
                tensor=np.ones(4, dtype=np.float32),
                pairs=torus.shift_pairs("east"),
                overlap=True,
            )
            return core_id

        with pytest.raises(LockstepError, match="open overlap window"):
            runtime.run(program)

    def test_commit_permute_divergence_raises(self):
        torus = Torus2D(1, 2)
        runtime = SPMDRuntime(torus)

        def program(core_id):
            if core_id == 0:
                yield OverlapCommit(interior_seconds=0.0)
            else:
                yield PermuteRequest(
                    tensor=np.ones(4, dtype=np.float32),
                    pairs=torus.shift_pairs("east"),
                )
            return core_id

        with pytest.raises(LockstepError, match="must not diverge"):
            runtime.run(program)


class TestPodLoss:
    def test_kill_pod_event_validation(self):
        with pytest.raises(ValueError, match="pod"):
            FaultEvent("kill_pod", sweep=2)  # no pod named
        with pytest.raises(ValueError):
            FaultEvent("kill_pod", pod=1)  # no trigger
        event = FaultEvent("kill_pod", pod=1, sweep=2)
        assert FaultEvent.from_json_dict(event.to_json_dict()) == event

    def test_sub_pod_kill_degrades_onto_surviving_pod_grid(self):
        plan = FaultPlan(events=(FaultEvent("kill_pod", pod=3, sweep=4),))
        telemetry = RunTelemetry()
        sim = DistributedIsing(
            (32, 32),
            2.0,
            core_grid=(4, 4),
            pod_grid=(2, 2),
            seed=11,
            fault_plan=plan,
            checkpoint_interval=2,
            telemetry=telemetry,
        )
        sim.run_resilient(10)
        assert sim.sweeps_done == 10
        assert isinstance(sim.torus, HierarchicalTorus)
        assert sim.pod_grid == (2, 1)
        assert sim.torus.pod_shape == (2, 2)  # intra-pod shape intact
        assert sim.num_cores == 8
        (event,) = sim.topology_events
        assert event["dead_pod"] == 3
        assert event["dead_core"] is None
        assert event["old_pod_grid"] == [2, 2]
        assert event["new_pod_grid"] == [2, 1]
        assert event["resumed_from_sweep"] == 4
        assert telemetry.registry.counter("topology_degrades").value == 1

    def test_single_core_kill_sheds_its_whole_pod(self):
        plan = FaultPlan(events=(FaultEvent("kill", core=5, sweep=3),))
        sim = DistributedIsing(
            (32, 32),
            2.0,
            core_grid=(4, 4),
            pod_grid=(2, 2),
            seed=11,
            fault_plan=plan,
            checkpoint_interval=1,
        )
        sim.run_resilient(6)
        (event,) = sim.topology_events
        assert event["dead_core"] == 5
        assert event["dead_pod"] == HierarchicalTorus(4, 4, 2, 2).pod_of(5)
        assert sim.pod_grid == (2, 1)

    def test_single_pod_mesh_cannot_degrade(self):
        plan = FaultPlan(events=(FaultEvent("kill_pod", pod=0, sweep=1),))
        sim = DistributedIsing(
            (16, 16),
            2.0,
            core_grid=(2, 2),
            pod_grid=(1, 1),
            seed=11,
            fault_plan=plan,
            checkpoint_interval=1,
        )
        with pytest.raises(PodLostError):
            sim.run_resilient(4)

    def test_degraded_physics_tracks_onsager(self):
        """Post-pod-loss chains stay honest Metropolis chains."""
        plan = FaultPlan(events=(FaultEvent("kill_pod", pod=1, sweep=60),))
        sim = DistributedIsing(
            (16, 16),
            1.5,
            core_grid=(4, 4),
            pod_grid=(2, 2),
            seed=23,
            initial="cold",
            fault_plan=plan,
            checkpoint_interval=10,
        )
        sim.run_resilient(120)
        assert sim.topology_events  # the pod kill really happened
        samples = []
        for _ in range(160):
            sim.run_resilient(1)
            samples.append(abs(sim.magnetization()))
        expected = float(spontaneous_magnetization(1.5))
        assert np.mean(samples) == pytest.approx(expected, abs=0.02)


class TestCheckpointRoundTrip:
    def test_pod_grid_and_overlap_round_trip(self):
        sim = DistributedIsing(
            (16, 16),
            2.2,
            core_grid=(2, 2),
            pod_grid=(2, 2),
            overlap=True,
            seed=9,
        )
        sim.sweep(3)
        state = sim.state_dict()
        assert state["pod_grid"] == [2, 2]
        assert state["overlap"] is True
        resumed = DistributedIsing.from_state_dict(state)
        assert resumed.pod_grid == (2, 2)
        assert resumed.overlap is True
        assert isinstance(resumed.torus, HierarchicalTorus)
        sim.sweep(3)
        resumed.sweep(3)
        assert np.array_equal(sim.gather_lattice(), resumed.gather_lattice())

    def test_legacy_checkpoint_without_pod_fields_loads_flat(self):
        sim = DistributedIsing((16, 16), 2.2, core_grid=(2, 2), seed=9)
        sim.sweep(1)
        state = sim.state_dict()
        del state["pod_grid"], state["overlap"]
        resumed = DistributedIsing.from_state_dict(state)
        assert resumed.pod_grid is None
        assert resumed.overlap is False


class TestTelemetrySurface:
    def test_report_gauges_and_trace_track(self):
        telemetry = RunTelemetry()
        sim = DistributedIsing(
            (16, 16),
            2.2,
            core_grid=(2, 2),
            pod_grid=(2, 2),
            seed=3,
            telemetry=telemetry,
            record_trace=True,
        )
        sim.sweep(2)
        report = sim.report()
        metrics = report.metrics
        assert metrics["halo_overlap_windows"]["value"] == 4
        assert metrics["halo_overlap_hidden_seconds"]["value"] > 0.0
        assert metrics["halo_overlap_exposed_seconds"]["value"] >= 0.0
        assert report.run["pod_grid"] == [2, 2]
        assert report.run["overlap"] is True
        registry = telemetry.registry
        assert registry.counter("halo_overlap_windows_total").value == 4
        trace = chrome_trace(sim)
        assert trace["otherData"]["num_overlap_spans"] == 4
        names = {
            ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev.get("ph") == "M"
        }
        assert "halo overlap" in names

    def test_blocking_run_has_no_overlap_track(self):
        sim = DistributedIsing(
            (16, 16), 2.2, core_grid=(2, 2), seed=3, record_trace=True
        )
        sim.sweep(1)
        trace = chrome_trace(sim)
        assert trace["otherData"]["num_overlap_spans"] == 0


class TestApiConfig:
    def test_distributed_passes_pod_grid_and_overlap(self):
        sim = distributed(
            SimulationConfig(
                shape=16, temperature=2.2, grid=(2, 2), pod_grid=(2, 2)
            )
        )
        assert sim.pod_grid == (2, 2)
        assert sim.overlap is True

    def test_pod_grid_must_divide_grid(self):
        with pytest.raises(ValueError, match="not divisible"):
            SimulationConfig(grid=(3, 3), pod_grid=(2, 2))
        with pytest.raises(ValueError, match="positive"):
            SimulationConfig(pod_grid=(0, 2))

    def test_overlap_junk_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SimulationConfig(overlap="yes")

    def test_single_core_factories_reject_pod_fields(self):
        with pytest.raises(ValueError, match="pod_grid"):
            simulate(SimulationConfig(pod_grid=(2, 2)))
        with pytest.raises(ValueError, match="overlap"):
            simulate(SimulationConfig(overlap=True))
        with pytest.raises(ValueError, match="pod_grid"):
            ensemble(SimulationConfig(pod_grid=(2, 2)), n_chains=2)
