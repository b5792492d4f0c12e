"""IsingSimulation driver tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.core.simulation import IsingSimulation, run_temperature_scan
from repro.telemetry import RunTelemetry

from .conftest import make_lattice


class TestConstruction:
    def test_int_shape_becomes_square(self):
        sim = IsingSimulation(8, 2.0)
        assert sim.shape == (8, 8)
        assert sim.n_sites == 64

    def test_odd_side_rejected(self):
        with pytest.raises(ValueError, match="even"):
            IsingSimulation((7, 8), 2.0)

    def test_bad_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            IsingSimulation(8, -1.0)

    def test_bad_updater(self):
        with pytest.raises(ValueError, match="unknown updater"):
            IsingSimulation(8, 2.0, updater="wolff")

    def test_cold_start(self):
        sim = IsingSimulation(8, 2.0, initial="cold")
        assert np.all(sim.lattice == 1.0)
        assert sim.magnetization() == 1.0
        assert sim.energy_per_spin() == -2.0

    def test_hot_start_is_disordered(self):
        sim = IsingSimulation(64, 2.0, initial="hot")
        assert abs(sim.magnetization()) < 0.2

    def test_explicit_initial_array(self):
        plain = make_lattice((8, 8))
        sim = IsingSimulation((8, 8), 2.0, initial=plain)
        assert np.array_equal(sim.lattice, plain)

    def test_initial_shape_mismatch(self):
        with pytest.raises(ValueError, match="initial lattice shape"):
            IsingSimulation((8, 8), 2.0, initial=make_lattice((4, 4)))

    def test_bad_initial_string(self):
        with pytest.raises(ValueError, match="initial"):
            IsingSimulation(8, 2.0, initial="warm")

    @pytest.mark.parametrize("updater", ["compact", "conv", "checkerboard", "masked_conv"])
    def test_all_updaters_construct_and_sweep(self, updater):
        sim = IsingSimulation(8, 2.5, updater=updater, seed=3)
        sim.run(3)
        assert sim.sweeps_done == 3
        assert set(np.unique(sim.lattice)) <= {-1.0, 1.0}


class TestEvolution:
    def test_run_validation(self):
        sim = IsingSimulation(8, 2.0)
        with pytest.raises(ValueError, match="n_sweeps"):
            sim.run(-1)

    def test_same_seed_same_chain(self):
        a = IsingSimulation(16, 2.3, seed=9)
        b = IsingSimulation(16, 2.3, seed=9)
        a.run(5)
        b.run(5)
        assert np.array_equal(a.lattice, b.lattice)

    def test_different_stream_ids_differ(self):
        a = IsingSimulation(16, 2.3, seed=9, stream_id=0)
        b = IsingSimulation(16, 2.3, seed=9, stream_id=1)
        a.run(5)
        b.run(5)
        assert not np.array_equal(a.lattice, b.lattice)

    def test_bfloat16_backend_runs(self):
        sim = IsingSimulation(16, 2.3, backend=NumpyBackend("bfloat16"), seed=1)
        sim.run(5)
        assert set(np.unique(sim.lattice)) <= {-1.0, 1.0}


class TestSampling:
    def test_sample_result_fields(self):
        sim = IsingSimulation(8, 2.5, seed=0)
        res = sim.sample(n_samples=64, burn_in=16)
        assert res.n_samples == 64
        assert res.m_series.shape == (64,)
        assert res.e_series.shape == (64,)
        assert 0.0 <= res.abs_m <= 1.0
        assert -2.0 <= res.energy <= 2.0
        assert res.u4 <= 2.0 / 3.0 + 0.2
        assert res.abs_m_err > 0.0

    def test_sample_validation(self):
        sim = IsingSimulation(8, 2.5)
        with pytest.raises(ValueError, match="n_samples"):
            sim.sample(0)
        with pytest.raises(ValueError, match="thin"):
            sim.sample(10, thin=0)

    def test_thinning_advances_chain(self):
        sim = IsingSimulation(8, 2.5, seed=0)
        sim.sample(n_samples=4, thin=3)
        assert sim.sweeps_done == 12

    def test_low_temperature_is_ordered(self):
        sim = IsingSimulation(16, 1.0, seed=2, initial="cold")
        res = sim.sample(n_samples=64, burn_in=32)
        assert res.abs_m > 0.98
        assert res.energy < -1.9

    def test_high_temperature_is_disordered(self):
        sim = IsingSimulation(32, 8.0, seed=2)
        res = sim.sample(n_samples=64, burn_in=32)
        assert res.abs_m < 0.2
        assert abs(res.energy) < 0.5


class TestTemperatureScan:
    def test_scan_shapes_and_monotonicity(self):
        results = run_temperature_scan(
            8, np.array([1.2, 2.27, 5.0]), n_samples=128, burn_in=32, seed=1
        )
        assert len(results) == 3
        assert results[0].abs_m > results[2].abs_m
        assert results[0].temperature == pytest.approx(1.2)


class TestCheckpointFidelity:
    """state_dict -> from_state_dict must round-trip backend kind, dtype
    and block decomposition — not silently fall back to defaults."""

    def test_roundtrips_backend_dtype(self):
        sim = IsingSimulation(8, 2.3, backend=NumpyBackend("bfloat16"), seed=1)
        state = sim.state_dict()
        assert state["backend"] == "numpy"
        assert state["dtype"] == "bfloat16"
        resumed = IsingSimulation.from_state_dict(state)
        assert isinstance(resumed.backend, NumpyBackend)
        assert resumed.backend.dtype.name == "bfloat16"

    def test_roundtrips_tpu_backend_kind(self):
        from repro.backend.tpu_backend import TPUBackend
        from repro.tpu.tensorcore import TensorCore

        sim = IsingSimulation(
            8, 2.3, backend=TPUBackend(TensorCore(core_id=0), "bfloat16"), seed=1
        )
        sim.run(2)
        state = sim.state_dict()
        assert state["backend"] == "tpu"
        resumed = IsingSimulation.from_state_dict(state)
        assert isinstance(resumed.backend, TPUBackend)
        assert resumed.backend.dtype.name == "bfloat16"
        sim.run(3)
        resumed.run(3)
        assert np.array_equal(sim.lattice, resumed.lattice)

    def test_roundtrips_block_shape(self):
        sim = IsingSimulation(16, 2.3, block_shape=(2, 2), seed=4)
        sim.run(2)
        state = sim.state_dict()
        assert state["block_shape"] == (2, 2)
        resumed = IsingSimulation.from_state_dict(state)
        assert resumed.block_shape == (2, 2)
        sim.run(3)
        resumed.run(3)
        assert np.array_equal(sim.lattice, resumed.lattice)

    def test_explicit_backend_override(self):
        sim = IsingSimulation(8, 2.3, seed=1)
        override = NumpyBackend("float32")
        resumed = IsingSimulation.from_state_dict(sim.state_dict(), backend=override)
        assert resumed.backend is override

    def test_unknown_dtype_raises(self):
        state = IsingSimulation(8, 2.3).state_dict()
        state["dtype"] = "float8"
        with pytest.raises(ValueError, match="unknown dtype"):
            IsingSimulation.from_state_dict(state)

    def test_unknown_backend_kind_raises(self):
        state = IsingSimulation(8, 2.3).state_dict()
        state["backend"] = "gpu"
        with pytest.raises(ValueError, match="unknown backend kind"):
            IsingSimulation.from_state_dict(state)

    def test_legacy_checkpoint_without_new_keys_loads(self):
        # Checkpoints written before backend/block_shape round-tripping
        # carry neither key; they load on the numpy default as before.
        sim = IsingSimulation(8, 2.3, seed=2)
        sim.run(2)
        state = sim.state_dict()
        del state["backend"]
        del state["block_shape"]
        resumed = IsingSimulation.from_state_dict(state)
        sim.run(2)
        resumed.run(2)
        assert np.array_equal(sim.lattice, resumed.lattice)

    def test_masked_conv_rejects_block_shape(self):
        with pytest.raises(ValueError, match="block_shape"):
            IsingSimulation(8, 2.3, updater="masked_conv", block_shape=(2, 2))


class TestSoloFormats:
    """The solo's checkpoint and run-report formats, key for key."""

    @pytest.mark.parametrize("dtype, side", [("float32", 16), ("packed", 128)])
    def test_state_dict_keys(self, dtype, side):
        sim = IsingSimulation(
            side, 2.3, backend=NumpyBackend(dtype), seed=3, stream_id=2
        )
        sim.run(2)
        state = sim.state_dict()
        keys = {
            "schema", "kind", "shape", "temperature", "field", "updater",
            "backend", "dtype", "block_shape", "fused", "lattice", "stream",
            "sweeps_done",
        }
        if dtype == "packed":
            keys.add("packed")
            assert set(state["packed"]) == {
                "word_bits", "bit_order", "rng_bits", "quarter_shape", "words",
            }
            assert state["packed"]["words"]["w00"].shape == (side // 2, side // 128)
        assert set(state) == keys
        assert state["kind"] == "single"
        assert state["lattice"].shape == (side, side)
        assert set(state["stream"]) == {"seed", "stream_id", "counter"}
        assert state["stream"]["seed"] == 3
        assert state["stream"]["stream_id"] == 2

    def test_report_keys(self):
        sim = IsingSimulation(16, 2.3, seed=3, stream_id=2, telemetry=RunTelemetry())
        sim.run(3)
        report = sim.report()
        assert report.kind == "single"
        assert set(report.run) == {
            "shape", "temperature", "field", "updater", "backend", "dtype",
            "block_shape", "fused", "seed", "stream_id", "sweeps_done",
        }
        assert report.run["seed"] == 3
        assert report.run["stream_id"] == 2
        assert report.rng == {"streams": [sim.state_dict()["stream"]]}
