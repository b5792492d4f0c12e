"""Preemption and checkpoint/v2 resume: interrupted == uninterrupted.

Satellite to the scheduler suite: a run snapshotted mid-scan through the
``checkpoint/v2`` envelope and resumed — directly via ``repro.load()``,
or through the scheduler's preemption path — must reproduce the
uninterrupted run's *magnetisation trace* bit for bit, with the fused
engine left on its ``"auto"`` default.
"""

import numpy as np

import repro
from repro.api import SimulationConfig, simulate
from repro.observables import magnetization
from repro.sched import Scheduler

TEMPS = [1.8, 2.1, 2.4]
SIDE = 12
SWEEPS = 10
CUT = 4  # the mid-scan interruption point


def _ensemble(**overrides):
    kwargs = dict(fused="auto", seed=3, stream_ids=[0, 1, 2])
    kwargs.update(overrides)
    return repro.EnsembleSimulation(SIDE, TEMPS, **kwargs)


def _mag_trace(ensemble, n_sweeps: int) -> list[tuple]:
    trace = []
    for _ in range(n_sweeps):
        ensemble.run(1)
        trace.append(
            tuple(magnetization(plain) for plain in ensemble.lattices)
        )
    return trace


class TestDirectCheckpointRoundTrip:
    def test_mid_scan_roundtrip_magnetisation_trace(self):
        """checkpoint/v2 at sweep 4 of 10, fused='auto': the restored
        run's per-sweep magnetisations match the uninterrupted run's."""
        uninterrupted = _ensemble()
        reference = _mag_trace(uninterrupted, SWEEPS)

        interrupted = _ensemble()
        head = _mag_trace(interrupted, CUT)
        snapshot = interrupted.state_dict()
        assert snapshot["schema"] == "checkpoint/v2"
        assert snapshot["kind"] == "ensemble"

        restored = repro.load(snapshot)
        tail = _mag_trace(restored, SWEEPS - CUT)
        assert head + tail == reference
        np.testing.assert_array_equal(
            restored.lattices, uninterrupted.lattices
        )

    def test_roundtrip_preserves_fused_resolution(self):
        sim = _ensemble()
        restored = repro.load(sim.state_dict())
        assert restored.fused == sim.fused


class TestSchedulerPreemptionPath:
    def _preempting_scheduler(self):
        """A 1-device scheduler with a low-priority batch mid-scan and a
        high-priority arrival that must preempt it."""
        scheduler = Scheduler(n_devices=1, max_batch=4, quantum=2)
        low_configs = [
            SimulationConfig(shape=SIDE, temperature=t, seed=i)
            for i, t in enumerate(TEMPS)
        ]
        low_jobs = [scheduler.submit(c, SWEEPS) for c in low_configs]
        for _ in range(CUT // scheduler.quantum):
            scheduler.step()
        high_config = SimulationConfig(
            shape=16, temperature=2.0, updater="conv", seed=50
        )
        high_job = scheduler.submit(high_config, 4, priority=5)
        return scheduler, low_configs, low_jobs, high_config, high_job

    def test_preempted_jobs_resume_bit_identically(self):
        scheduler, low_configs, low_jobs, high_config, high_job = (
            self._preempting_scheduler()
        )
        scheduler.drain()
        assert scheduler.preemptions >= 1
        assert all(job.preemptions >= 1 for job in low_jobs)
        for config, job in zip(low_configs + [high_config], low_jobs + [high_job]):
            sim = simulate(config)
            sim.run(job.spec.sweeps)
            np.testing.assert_array_equal(job.result.lattice, sim.lattice)

    def test_preemption_snapshot_is_loadable_checkpoint_v2(self):
        """The scheduler's snapshot is a real checkpoint/v2 envelope:
        repro.load() restores it to the exact preempted state, and its
        magnetisations match the solo runs at the preemption sweep."""
        scheduler, low_configs, low_jobs, _, _ = self._preempting_scheduler()
        scheduler.step()  # fires the preemption
        snapshot = scheduler.last_preemption_checkpoint
        assert snapshot is not None
        assert snapshot["schema"] == "checkpoint/v2"

        restored = repro.load(snapshot)
        for index, (config, job) in enumerate(zip(low_configs, low_jobs)):
            sweeps_at_cut = job.resume["sweeps_done"]
            sim = simulate(config)
            sim.run(sweeps_at_cut)
            np.testing.assert_array_equal(restored.lattices[index], sim.lattice)
            assert magnetization(restored.lattices[index]) == magnetization(
                sim.lattice
            )
        scheduler.drain()

    def test_preempted_batch_keeps_its_traced_counters(self):
        scheduler, *_ = self._preempting_scheduler()
        before = scheduler.stats()["traced"]
        assert before["sweeps_replayed"] > 0
        scheduler.step()  # fires the preemption
        assert scheduler.preemptions == 1
        after = scheduler.stats()["traced"]
        assert all(after[name] >= before[name] for name in before)
        scheduler.drain()

    def test_magnetisation_trace_through_preemption(self):
        """The preempted job's full magnetisation trace (observed at its
        resume token and its final state) lines up with the solo run."""
        scheduler, low_configs, low_jobs, _, _ = self._preempting_scheduler()
        scheduler.step()  # preempt: tokens now hold the mid-scan state
        tokens = [dict(job.resume) for job in low_jobs]
        scheduler.drain()
        for config, job, token in zip(low_configs, low_jobs, tokens):
            sim = simulate(config)
            trace = []
            for _ in range(SWEEPS):
                sim.run(1)
                trace.append(magnetization(sim.lattice))
            assert magnetization(token["lattice"]) == trace[
                token["sweeps_done"] - 1
            ]
            assert job.result.magnetization == trace[-1]

