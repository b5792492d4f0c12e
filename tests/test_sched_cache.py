"""Canonical cache keys and the LRU result cache."""

import numpy as np
import pytest

from repro.api import SimulationConfig
from repro.sched.cache import ResultCache, canonical_cache_key
from repro.sched.job import JobResult


def _result(value: float = 1.0) -> JobResult:
    return JobResult(
        magnetization=value,
        energy=-value,
        sweeps=3,
        lattice=np.full((4, 4), 1.0, dtype=np.float32),
    )


class TestCanonicalKey:
    def test_equal_configs_equal_keys(self):
        a = SimulationConfig(shape=16, temperature=2.0, seed=3)
        b = SimulationConfig(shape=16, temperature=2.0, seed=3)
        assert canonical_cache_key(a, 10) == canonical_cache_key(b, 10)

    def test_beta_and_temperature_spellings_collide(self):
        by_temp = SimulationConfig(shape=16, temperature=2.0)
        by_beta = SimulationConfig(shape=16, beta=0.5)
        assert canonical_cache_key(by_temp, 5) == canonical_cache_key(by_beta, 5)

    def test_int_and_tuple_shape_spellings_collide(self):
        assert canonical_cache_key(
            SimulationConfig(shape=16), 5
        ) == canonical_cache_key(SimulationConfig(shape=(16, 16)), 5)

    def test_explicit_default_block_shape_collides(self):
        implicit = SimulationConfig(shape=16)
        explicit = SimulationConfig(shape=16, block_shape=(8, 8))
        assert canonical_cache_key(implicit, 5) == canonical_cache_key(explicit, 5)

    def test_backend_kind_excluded(self):
        numpy_cfg = SimulationConfig(shape=16, backend="numpy")
        tpu_cfg = SimulationConfig(shape=16, backend="tpu")
        assert canonical_cache_key(numpy_cfg, 5) == canonical_cache_key(tpu_cfg, 5)

    def test_fused_selection_excluded(self):
        fused = SimulationConfig(shape=16, fused=True)
        elementwise = SimulationConfig(shape=16, fused=False)
        assert canonical_cache_key(fused, 5) == canonical_cache_key(elementwise, 5)

    @pytest.mark.parametrize(
        "changes",
        [
            {"temperature": 2.1},
            {"field": 0.1},
            {"updater": "conv"},
            {"dtype": "bfloat16"},
            {"seed": 1},
            {"shape": 24},
            {"initial": "cold"},
        ],
    )
    def test_trajectory_fields_included(self, changes):
        base = SimulationConfig(shape=16, temperature=2.0)
        assert canonical_cache_key(base, 5) != canonical_cache_key(
            base.evolve(**changes), 5
        )

    def test_sweep_count_included(self):
        config = SimulationConfig(shape=16)
        assert canonical_cache_key(config, 5) != canonical_cache_key(config, 6)

    def test_flat_field_and_model_spec_collide(self):
        """Satellite of the ModelSpec redesign: flat kwargs and
        spec-built configs of the same physics dedup to one entry."""
        from repro.api import ModelSpec

        flat = SimulationConfig(shape=16, field=0.25)
        spec = SimulationConfig(shape=16, model=ModelSpec(field=0.25))
        assert canonical_cache_key(flat, 5) == canonical_cache_key(spec, 5)

    def test_default_model_and_none_collide(self):
        from repro.api import ModelSpec

        implicit = SimulationConfig(shape=16)
        explicit = SimulationConfig(shape=16, model=ModelSpec())
        assert canonical_cache_key(implicit, 5) == canonical_cache_key(explicit, 5)

    def test_disorder_fields_included(self):
        from repro.api import ModelSpec

        base = SimulationConfig(
            shape=16, updater="masked_conv",
            model=ModelSpec(couplings="bimodal", disorder_seed=1),
        )
        other_kind = SimulationConfig(
            shape=16, updater="masked_conv",
            model=ModelSpec(couplings="gaussian", disorder_seed=1),
        )
        other_seed = SimulationConfig(
            shape=16, updater="masked_conv",
            model=ModelSpec(couplings="bimodal", disorder_seed=2),
        )
        keys = {
            canonical_cache_key(c, 5) for c in (base, other_kind, other_seed)
        }
        assert len(keys) == 3

    def test_explicit_initial_hashed_by_content(self):
        lattice = np.ones((8, 8), dtype=np.float32)
        a = SimulationConfig(shape=8, initial=lattice)
        b = SimulationConfig(shape=8, initial=lattice.copy())
        assert canonical_cache_key(a, 5) == canonical_cache_key(b, 5)
        flipped = lattice.copy()
        flipped[0, 0] = -1.0
        c = SimulationConfig(shape=8, initial=flipped)
        assert canonical_cache_key(a, 5) != canonical_cache_key(c, 5)


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", _result())
        assert cache.get("k").magnetization == 1.0
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_hit_returns_isolated_copy(self):
        cache = ResultCache()
        cache.put("k", _result())
        first = cache.get("k")
        first.lattice[0, 0] = -99.0
        assert cache.get("k").lattice[0, 0] == 1.0

    def test_put_copies_input(self):
        cache = ResultCache()
        result = _result()
        cache.put("k", result)
        result.lattice[0, 0] = -99.0
        assert cache.get("k").lattice[0, 0] == 1.0

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", _result(1.0))
        cache.put("b", _result(2.0))
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", _result(3.0))
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats()["evictions"] == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)

    def test_contains_does_not_refresh_recency(self):
        # ``in`` is a pure membership probe; only ``get`` counts as a
        # use.  If ``__contains__`` refreshed recency, the probe below
        # would keep "a" alive and evict "b" instead.
        cache = ResultCache(max_entries=2)
        cache.put("a", _result(1.0))
        cache.put("b", _result(2.0))
        assert "a" in cache
        cache.put("c", _result(3.0))
        assert "a" not in cache
        assert "b" in cache
        assert "c" in cache
