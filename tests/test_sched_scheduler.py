"""The scheduler end to end: bit-identity, batching, dedup, fairness,
failure handling, telemetry.

The load-bearing contract is the first class: a job served through the
multi-tenant scheduler — coalesced into a batch, possibly joining and
leaving mid-flight — produces the *bit-identical* lattice a solo
``repro.simulate()`` run of its config produces, for every updater and
dtype.  Everything else (caching, fairness, preemption) is only allowed
to exist because that invariant holds; preemption specifics live in
``tests/test_sched_preempt.py``.
"""

import numpy as np
import pytest

from repro.api import SimulationConfig, simulate
from repro.core.ensemble import EnsembleSimulation
from repro.sched import Client, Scheduler, SchedulerSaturatedError
from repro.telemetry import RunTelemetry

UPDATERS = ("compact", "conv", "checkerboard", "masked_conv")
DTYPES = ("float32", "bfloat16")


def _solo_lattice(config: SimulationConfig, sweeps: int) -> np.ndarray:
    sim = simulate(config)
    sim.run(sweeps)
    return sim.lattice


class TestBitIdentity:
    @pytest.mark.parametrize("updater", UPDATERS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_scheduled_matches_solo(self, updater, dtype):
        """Acceptance gate: scheduler-served == solo simulate(), all
        updaters x dtypes, on the simulated-TPU backend."""
        scheduler = Scheduler(n_devices=2, max_batch=4, quantum=3)
        configs = [
            SimulationConfig(
                shape=12, temperature=1.9 + 0.2 * i, updater=updater,
                dtype=dtype, seed=10 + i, backend="tpu",
            )
            for i in range(3)
        ]
        jobs = [scheduler.submit(config, 7) for config in configs]
        scheduler.drain()
        for config, job in zip(configs, jobs):
            np.testing.assert_array_equal(
                job.result.lattice, _solo_lattice(config, 7)
            )

    @pytest.mark.parametrize("updater", ["compact", "checkerboard"])
    def test_packed_jobs_match_solo(self, updater):
        """Packed jobs finish: their batch gets the packed engine's
        unblocked layout and its always-fused engine."""
        scheduler = Scheduler(n_devices=1, max_batch=4)
        configs = [
            SimulationConfig(
                shape=128, temperature=2.1 + 0.2 * i, updater=updater,
                dtype="packed", seed=3 + i,
            )
            for i in range(2)
        ]
        jobs = [scheduler.submit(config, 4) for config in configs]
        scheduler.drain()
        for config, job in zip(configs, jobs):
            assert job.state == "done", job.error
            np.testing.assert_array_equal(
                job.result.lattice, _solo_lattice(config, 4)
            )

    def test_packed_jobs_on_tpu_backend_refused(self):
        """The TPU cost model does not run the packed engine: a packed
        job naming it never reaches the queue."""
        client = Client(Scheduler(n_devices=1, max_batch=4))
        with pytest.raises(ValueError, match="backend='tpu'"):
            client.submit(
                shape=128, temperature=2.1, dtype="packed", backend="tpu",
                sweeps=4,
            )
        assert client.scheduler.stats()["jobs"]["submitted"] == 0

    def test_numpy_backend_matches_solo(self):
        scheduler = Scheduler(n_devices=1, max_batch=4)
        config = SimulationConfig(shape=16, temperature=2.1, seed=4)
        job = scheduler.submit(config, 9)
        scheduler.drain()
        np.testing.assert_array_equal(
            job.result.lattice, _solo_lattice(config, 9)
        )

    def test_observables_match_final_lattice(self):
        from repro.observables import energy_per_spin, magnetization

        scheduler = Scheduler()
        config = SimulationConfig(shape=12, seed=1)
        job = scheduler.submit(config, 5)
        scheduler.drain()
        assert job.result.magnetization == magnetization(job.result.lattice)
        assert job.result.energy == energy_per_spin(job.result.lattice)
        assert job.result.sweeps == 5

    def test_disordered_job_matches_solo_ensemble(self):
        """Scheduler-served disordered jobs run the same masked_conv
        per-bond kernels as a directly built ensemble, and the reported
        energy uses the quenched bond energies."""
        from repro.api import ModelSpec
        from repro.core.couplings import BondCouplings, bond_energy_per_spin
        from repro.core.ensemble import EnsembleSimulation

        config = SimulationConfig(
            shape=12, temperature=2.0, seed=6, updater="masked_conv",
            model=ModelSpec(couplings="bimodal", disorder_seed=9),
        )
        scheduler = Scheduler(n_devices=1, max_batch=4)
        job = scheduler.submit(config, 7)
        scheduler.drain()

        bonds = BondCouplings.generate("bimodal", (12, 12), 9)
        solo = EnsembleSimulation(
            12, [2.0], updater="masked_conv", couplings=bonds, seed=6,
        )
        solo.run(7)
        np.testing.assert_array_equal(job.result.lattice, solo.lattices[0])
        assert job.result.energy == bond_energy_per_spin(
            job.result.lattice, bonds
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_batch_start_matches_solo(self, dtype, monkeypatch):
        """A batch start draws every fresh hot job's start in one
        batched draw; each chain it builds (lattice, stream position)
        equals its job's solo simulate(), and so does each result."""
        import repro.core.lattice as lattice_module

        draws, built = [], []
        batched = lattice_module.random_lattices
        from_chains = EnsembleSimulation.from_chains.__func__

        def counting(shape, stream):
            draws.append(stream.n_chains)
            return batched(shape, stream)

        def spy(cls, shape, chains, **kwargs):
            built.append(chains)
            return from_chains(cls, shape, chains, **kwargs)

        monkeypatch.setattr(lattice_module, "random_lattices", counting)
        monkeypatch.setattr(EnsembleSimulation, "from_chains", classmethod(spy))
        explicit = np.where(np.arange(256).reshape(16, 16) % 3, 1.0, -1.0)
        configs = [
            SimulationConfig(
                shape=16, temperature=1.9 + 0.1 * i, dtype=dtype, seed=30 + i,
                initial=("hot", "cold", explicit)[i % 3] if i < 3 else "hot",
            )
            for i in range(6)
        ]
        scheduler = Scheduler(n_devices=1, max_batch=8)
        jobs = [scheduler.submit(config, 5) for config in configs]
        scheduler.step()
        assert scheduler.batches_started == 1
        assert draws == [4]
        [chains] = built
        by_seed = {stream.seed: (lattice, stream) for _, stream, lattice in chains}
        for config in configs:
            lattice, stream = by_seed[config.seed]
            solo = simulate(config)
            np.testing.assert_array_equal(lattice, solo.lattice)
            assert [stream.counter] == solo.stream.counters
        scheduler.drain()
        for config, job in zip(configs, jobs):
            np.testing.assert_array_equal(
                job.result.lattice, _solo_lattice(config, 5)
            )

    def test_late_joiner_disturbs_nobody(self):
        """Continuous batching: a chain joining mid-flight leaves the
        running siblings' trajectories bit-identical."""
        scheduler = Scheduler(n_devices=1, max_batch=4, quantum=2)
        early = [
            SimulationConfig(shape=12, temperature=1.8 + 0.1 * i, seed=i)
            for i in range(2)
        ]
        early_jobs = [scheduler.submit(config, 12) for config in early]
        scheduler.step()  # the two early chains are already running
        late = SimulationConfig(shape=12, temperature=2.3, seed=7)
        late_job = scheduler.submit(late, 6)
        scheduler.drain()
        assert late_job.preemptions == 0
        for config, job in zip(early + [late], early_jobs + [late_job]):
            np.testing.assert_array_equal(
                job.result.lattice, _solo_lattice(config, job.spec.sweeps)
            )


class TestCachingAndDedup:
    def test_resubmission_hits_cache(self):
        scheduler = Scheduler()
        config = SimulationConfig(shape=8, seed=2)
        first = scheduler.submit(config, 5)
        scheduler.drain()
        second = scheduler.submit(config, 5)
        assert second.done
        assert second.from_cache
        assert not first.from_cache
        np.testing.assert_array_equal(
            first.result.lattice, second.result.lattice
        )

    def test_inflight_duplicates_ride_the_primary(self):
        scheduler = Scheduler()
        config = SimulationConfig(shape=8, seed=2)
        primary = scheduler.submit(config, 5)
        duplicates = [scheduler.submit(config, 5) for _ in range(3)]
        assert all(not job.done for job in duplicates)
        scheduler.drain()
        assert all(job.from_cache for job in duplicates)
        assert scheduler.batches_started == 1
        for job in duplicates:
            np.testing.assert_array_equal(
                job.result.lattice, primary.result.lattice
            )

    def test_cached_result_is_isolated(self):
        scheduler = Scheduler()
        config = SimulationConfig(shape=8, seed=2)
        first = scheduler.submit(config, 5)
        scheduler.drain()
        first.result.lattice[0, 0] = -99.0
        second = scheduler.submit(config, 5)
        assert second.result.lattice[0, 0] != -99.0

    def test_backpressure(self):
        scheduler = Scheduler(max_queue=2)
        for i in range(2):
            scheduler.submit(SimulationConfig(shape=8, seed=i), 5)
        with pytest.raises(SchedulerSaturatedError, match="queue full"):
            scheduler.submit(SimulationConfig(shape=8, seed=99), 5)
        # Cache hits and in-flight duplicates bypass the full queue —
        # they add no device work.
        duplicate = scheduler.submit(SimulationConfig(shape=8, seed=0), 5)
        assert not duplicate.done  # follower of the queued primary
        scheduler.drain()
        assert duplicate.from_cache


class TestSchedulingPolicy:
    def test_priority_order_under_scarcity(self):
        scheduler = Scheduler(n_devices=1, max_batch=1, quantum=100)
        low = scheduler.submit(
            SimulationConfig(shape=8, seed=0), 5, priority=0
        )
        high = scheduler.submit(
            SimulationConfig(shape=8, seed=1), 5, priority=9
        )
        scheduler.step()
        assert high.state == "done"
        assert low.state in ("queued", "done")
        scheduler.drain()
        assert high.finished_tick <= low.finished_tick

    def test_weighted_fair_tenants(self):
        """With equal priorities, the under-served tenant (per weight)
        is admitted first once it has any deficit."""
        scheduler = Scheduler(
            n_devices=1, max_batch=1, quantum=100,
            tenant_weights={"gold": 3.0, "bronze": 1.0},
        )
        first = scheduler.submit(
            SimulationConfig(shape=8, seed=0), 5, tenant="gold"
        )
        scheduler.step()  # gold accrues service
        bronze = scheduler.submit(
            SimulationConfig(shape=8, seed=1), 5, tenant="bronze"
        )
        gold = scheduler.submit(
            SimulationConfig(shape=8, seed=2), 5, tenant="gold"
        )
        # gold served 5 * 64 units at weight 3; bronze served 0 at
        # weight 1 -> bronze ranks first despite arriving earlier... but
        # gold's ratio (~107) still exceeds bronze's 0, so bronze wins.
        scheduler.step()
        assert first.done
        assert bronze.done
        assert not gold.done
        scheduler.drain()
        assert gold.done

    def test_rejects_bad_tenant_weight(self):
        with pytest.raises(ValueError, match="weight"):
            Scheduler(tenant_weights={"x": 0.0})

    def test_finished_jobs_keep_no_continuation_token(self):
        """Only a preemption snapshot sets ``job.resume``: a job that ran
        straight through holds no lattice copy once it is done."""
        scheduler = Scheduler(n_devices=1, max_batch=2, quantum=2)
        jobs = [
            scheduler.submit(SimulationConfig(shape=side, seed=i), 6)
            for i, side in enumerate((8, 8, 12))
        ]
        scheduler.step()
        jobs.append(
            scheduler.submit(SimulationConfig(shape=8, seed=9), 4, priority=5)
        )
        jobs.append(scheduler.submit(SimulationConfig(shape=8, seed=0), 6))
        scheduler.drain()
        assert all(job.state == "done" for job in jobs)
        straight = [job for job in jobs if job.preemptions == 0]
        assert straight and len(straight) < len(jobs)
        assert all(job.resume is None for job in straight)


class TestFailureHandling:
    def test_sweep_failure_fails_batch_and_promotes_followers(self, monkeypatch):
        scheduler = Scheduler()
        config = SimulationConfig(shape=8, seed=3)
        primary = scheduler.submit(config, 5)
        follower = scheduler.submit(config, 5)

        calls = {"n": 0}
        original = EnsembleSimulation.run

        def flaky(self, n_sweeps):
            if calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("injected sweep failure")
            return original(self, n_sweeps)

        monkeypatch.setattr(EnsembleSimulation, "run", flaky)
        scheduler.drain()
        assert primary.state == "failed"
        assert "injected" in str(primary.error)
        # The duplicate was innocent: promoted to primary and computed.
        assert follower.state == "done"
        np.testing.assert_array_equal(
            follower.result.lattice, _solo_lattice(config, 5)
        )
        assert scheduler.jobs_failed == 1

    def test_unbuildable_job_fails_cleanly(self):
        scheduler = Scheduler()
        config = SimulationConfig(shape=8, seed=0, initial="lukewarm")
        job = scheduler.submit(config, 5)
        scheduler.drain()
        assert job.state == "failed"
        assert "hot" in str(job.error)
        # The pool is intact for the next job.
        ok = scheduler.submit(SimulationConfig(shape=8, seed=1), 5)
        scheduler.drain()
        assert ok.state == "done"


class TestTelemetryAndTrace:
    def test_report_kind_sched(self):
        telemetry = RunTelemetry()
        scheduler = Scheduler(telemetry=telemetry)
        config = SimulationConfig(shape=8, seed=0)
        scheduler.submit(config, 5)
        scheduler.submit(config, 5)
        scheduler.drain()
        report = scheduler.report().to_json_dict()
        assert report["kind"] == "sched"
        metrics = report["metrics"]
        assert metrics["sched_jobs_completed"]["value"] == 2
        assert metrics["sched_cache_hits"]["value"] == 1
        assert metrics["sched_batch_occupancy"]["count"] >= 1
        assert report["run"]["n_devices"] == 2

    def test_report_requires_telemetry(self):
        with pytest.raises(RuntimeError, match="telemetry"):
            Scheduler().report()

    def test_chrome_trace_has_scheduler_track(self):
        from repro.telemetry import chrome_trace

        scheduler = Scheduler(n_devices=2, record_trace=True)
        scheduler.submit(
            SimulationConfig(shape=8, seed=0, backend="tpu"), 5
        )
        scheduler.drain()
        trace = chrome_trace(scheduler)
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M"
        }
        assert "scheduler batches" in names
        assert any(
            event.get("cat") == "sched" for event in trace["traceEvents"]
        )
        assert trace["otherData"]["num_sched_spans"] >= 1

    def test_traced_counters_of_two_drained_scans(self):
        """Every batch that left still counts in ``stats()["traced"]``."""
        scheduler = Scheduler()
        for side in (16, 32):
            for i, temperature in enumerate(np.linspace(1.8, 2.8, 16)):
                config = SimulationConfig(
                    shape=side, temperature=float(temperature), seed=i
                )
                scheduler.submit(config, 64)
            scheduler.drain()
        stats = scheduler.stats()
        assert stats["batches"] == {"started": 2, "active": 0, "max_occupancy": 16}
        # Per 64-sweep batch: one warm-up and one recording sweep, then
        # 62 replays whose uniforms are drawn ahead in 8 or 16 calls.
        assert stats["traced"] == {
            "sweeps_replayed": 124,
            "sweeps_eager": 4,
            "fallbacks": 0,
            "replay_draws": 24,
        }

    def test_traced_counters_include_live_batches(self):
        scheduler = Scheduler(quantum=8)
        for i in range(4):
            scheduler.submit(SimulationConfig(shape=16, seed=i), 64)
        scheduler.step()
        stats = scheduler.stats()
        assert stats["batches"]["active"] == 1
        assert stats["traced"]["sweeps_eager"] == 2
        assert stats["traced"]["sweeps_replayed"] == 6

    def test_stats_always_available(self):
        scheduler = Scheduler()
        scheduler.submit(SimulationConfig(shape=8, seed=0), 5)
        scheduler.drain()
        stats = scheduler.stats()
        assert stats["jobs"]["completed"] == 1
        assert stats["pool"]["makespan_seconds"] >= 0.0
