"""Job lifecycle state machine and JobSpec validation."""

import numpy as np
import pytest

from repro.api import SimulationConfig
from repro.sched.cache import canonical_cache_key
from repro.sched.job import Job, JobResult, JobSpec, JobState


def _job(config=None, sweeps=10, **kwargs) -> Job:
    config = config if config is not None else SimulationConfig(shape=8)
    spec = JobSpec(config=config, sweeps=sweeps, **kwargs)
    return Job(0, spec, canonical_cache_key(config, sweeps))


class TestJobSpecValidation:
    def test_accepts_plain_single_chain_config(self):
        spec = JobSpec(config=SimulationConfig(shape=8), sweeps=5)
        assert spec.sweeps == 5
        assert spec.priority == 0
        assert spec.tenant == "default"

    def test_rejects_non_config(self):
        with pytest.raises(TypeError, match="SimulationConfig"):
            JobSpec(config={"shape": 8}, sweeps=5)

    def test_rejects_nonpositive_sweeps(self):
        with pytest.raises(ValueError, match="sweeps"):
            JobSpec(config=SimulationConfig(shape=8), sweeps=0)

    @pytest.mark.parametrize(
        "field_name,value",
        [
            ("grid", (2, 2)),
        ],
    )
    def test_rejects_distributed_fields(self, field_name, value):
        config = SimulationConfig(shape=8, **{field_name: value})
        with pytest.raises(ValueError, match=field_name):
            JobSpec(config=config, sweeps=5)

    def test_rejects_record_trace(self):
        config = SimulationConfig(shape=8, record_trace=True)
        with pytest.raises(ValueError, match="record_trace"):
            JobSpec(config=config, sweeps=5)

    def test_rejects_attached_telemetry(self):
        config = SimulationConfig(shape=8, telemetry=True)
        with pytest.raises(ValueError, match="telemetry"):
            JobSpec(config=config, sweeps=5)

    def test_telemetry_false_is_fine(self):
        JobSpec(config=SimulationConfig(shape=8, telemetry=False), sweeps=5)

    def test_rejects_prebuilt_backend_instance(self):
        from repro.backend.numpy_backend import NumpyBackend

        config = SimulationConfig(shape=8, backend=NumpyBackend())
        with pytest.raises(ValueError, match="content-addressed"):
            JobSpec(config=config, sweeps=5)

    @pytest.mark.parametrize("backend", [None, "numpy", "tpu"])
    def test_nameable_backends_accepted(self, backend):
        JobSpec(config=SimulationConfig(shape=8, backend=backend), sweeps=5)

    def test_rejects_ladder(self):
        """A replica-exchange ladder is one coupled simulation, not a
        batch of independent jobs — the error points at tempering()."""
        from repro.api import LadderSpec

        config = SimulationConfig(shape=8, ladder=LadderSpec(betas=(0.4, 0.5)))
        with pytest.raises(ValueError, match="tempering"):
            JobSpec(config=config, sweeps=5)

    def test_accepts_disordered_model(self):
        from repro.api import ModelSpec

        config = SimulationConfig(
            shape=8,
            updater="masked_conv",
            model=ModelSpec(couplings="bimodal", disorder_seed=3),
        )
        spec = JobSpec(config=config, sweeps=5)
        assert spec.config.resolved_model.couplings == "bimodal"


class TestLifecycle:
    def test_normal_path(self):
        job = _job()
        assert job.state == JobState.QUEUED
        job.transition(JobState.ADMITTED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.DONE)
        assert job.done

    def test_cache_shortcut(self):
        job = _job()
        job.transition(JobState.DONE)
        assert job.done

    def test_preemption_cycle(self):
        job = _job()
        job.transition(JobState.ADMITTED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.PREEMPTED)
        job.transition(JobState.QUEUED)
        job.transition(JobState.ADMITTED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.DONE)

    def test_admitted_can_requeue_without_running(self):
        job = _job()
        job.transition(JobState.ADMITTED)
        job.transition(JobState.QUEUED)

    @pytest.mark.parametrize(
        "path,bad",
        [
            ((), JobState.RUNNING),
            ((), JobState.PREEMPTED),
            ((JobState.ADMITTED,), JobState.DONE),
            ((JobState.ADMITTED, JobState.RUNNING), JobState.ADMITTED),
            ((JobState.DONE,), JobState.QUEUED),
        ],
    )
    def test_illegal_edges_raise(self, path, bad):
        job = _job()
        for state in path:
            job.transition(state)
        with pytest.raises(ValueError, match="illegal job transition"):
            job.transition(bad)

    def test_terminal_states_are_terminal(self):
        done = _job()
        done.transition(JobState.DONE)
        for state in (JobState.QUEUED, JobState.RUNNING, JobState.DONE):
            with pytest.raises(ValueError):
                done.transition(state)

    def test_sweeps_remaining(self):
        job = _job(sweeps=10)
        assert job.sweeps_remaining == 10
        job.sweeps_done = 7
        assert job.sweeps_remaining == 3


class TestJobResult:
    def test_copy_is_aliasing_free(self):
        lattice = np.ones((4, 4), dtype=np.float32)
        result = JobResult(
            magnetization=1.0, energy=-2.0, sweeps=5, lattice=lattice
        )
        duplicate = result.copy()
        duplicate.lattice[0, 0] = -1.0
        assert result.lattice[0, 0] == 1.0
        assert duplicate.magnetization == result.magnetization
