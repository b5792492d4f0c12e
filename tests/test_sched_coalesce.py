"""Compat keys and the batch-plan coalescer."""

import pytest

from repro.api import SimulationConfig
from repro.sched.cache import canonical_cache_key
from repro.sched.coalesce import BatchPlan, Coalescer, compat_key
from repro.sched.job import Job, JobSpec


def _job(job_id: int, **config_fields) -> Job:
    config = SimulationConfig(**config_fields)
    spec = JobSpec(config=config, sweeps=10)
    return Job(job_id, spec, canonical_cache_key(config, 10))


class TestCompatKey:
    def test_temperature_and_seed_are_per_chain(self):
        a = SimulationConfig(shape=16, temperature=1.8, seed=0)
        b = SimulationConfig(shape=16, temperature=2.4, seed=9)
        assert compat_key(a) == compat_key(b)

    @pytest.mark.parametrize(
        "changes",
        [
            {"shape": 24},
            {"updater": "conv"},
            {"dtype": "bfloat16"},
            {"backend": "tpu"},
            {"field": 0.2},
            {"block_shape": (4, 4)},
        ],
    )
    def test_engine_fields_split_batches(self, changes):
        base = SimulationConfig(shape=16)
        assert compat_key(base) != compat_key(base.evolve(**changes))

    def test_disorder_splits_batches(self):
        """Jobs with different quenched disorder cannot share one
        vectorized ensemble — the compat key carries the model token."""
        from repro.api import ModelSpec

        ferro = SimulationConfig(shape=16, updater="masked_conv")
        glass = SimulationConfig(
            shape=16, updater="masked_conv",
            model=ModelSpec(couplings="bimodal", disorder_seed=1),
        )
        other_seed = SimulationConfig(
            shape=16, updater="masked_conv",
            model=ModelSpec(couplings="bimodal", disorder_seed=2),
        )
        keys = {compat_key(c) for c in (ferro, glass, other_seed)}
        assert len(keys) == 3

    def test_flat_field_and_model_field_coalesce(self):
        from repro.api import ModelSpec

        flat = SimulationConfig(shape=16, field=0.1)
        spec = SimulationConfig(shape=16, model=ModelSpec(field=0.1))
        assert compat_key(flat) == compat_key(spec)

    def test_fused_auto_resolves_per_backend(self):
        # "auto" means fused on numpy and elementwise on tpu, so an
        # explicit spelling of the resolved value still coalesces.
        auto_numpy = SimulationConfig(shape=16, backend="numpy", fused="auto")
        explicit = SimulationConfig(shape=16, backend="numpy", fused=True)
        assert compat_key(auto_numpy) == compat_key(explicit)
        auto_tpu = SimulationConfig(shape=16, backend="tpu", fused="auto")
        explicit_off = SimulationConfig(shape=16, backend="tpu", fused=False)
        assert compat_key(auto_tpu) == compat_key(explicit_off)

    def test_default_block_shape_spelled_out_still_coalesces(self):
        implicit = SimulationConfig(shape=16)
        explicit = SimulationConfig(shape=16, block_shape=(8, 8))
        assert compat_key(implicit) == compat_key(explicit)


class TestCoalescer:
    def test_groups_by_key_preserving_order(self):
        jobs = [
            _job(0, shape=16),
            _job(1, shape=24),
            _job(2, shape=16),
            _job(3, shape=24),
        ]
        plans = Coalescer(max_batch=8).plan(jobs)
        assert len(plans) == 2
        assert [job.id for job in plans[0].jobs] == [0, 2]
        assert [job.id for job in plans[1].jobs] == [1, 3]

    def test_full_plans_split(self):
        jobs = [_job(i, shape=16, seed=i) for i in range(7)]
        plans = Coalescer(max_batch=3).plan(jobs)
        assert [plan.n_chains for plan in plans] == [3, 3, 1]
        assert all(isinstance(plan, BatchPlan) for plan in plans)

    def test_empty_input(self):
        assert Coalescer().plan([]) == []

    def test_rejects_nonpositive_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            Coalescer(max_batch=0)


class TestDefaultBlockShapeAllUpdaters:
    @pytest.mark.parametrize(
        "updater, explicit",
        [
            ("compact", (8, 8)),
            ("conv", (8, 8)),
            ("checkerboard", (16, 16)),
            ("masked_conv", None),
        ],
    )
    def test_explicit_default_coalesces_per_updater(self, updater, explicit):
        # The per-updater driver default, spelled out explicitly, must
        # land in the same batch (and the same cache key) as leaving
        # block_shape unset — for every updater, not just compact.
        implicit = SimulationConfig(shape=16, updater=updater)
        spelled = SimulationConfig(shape=16, updater=updater, block_shape=explicit)
        assert compat_key(implicit) == compat_key(spelled)
        assert canonical_cache_key(implicit, 5) == canonical_cache_key(spelled, 5)


