"""Batched ensemble tests: per-chain bit-identity with solo simulations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.core.ensemble import EnsembleSimulation
from repro.core.simulation import IsingSimulation, run_temperature_scan

from .conftest import count_draws, eager_sweeps

UPDATERS = ["compact", "conv", "checkerboard", "masked_conv"]
DTYPES = ["float32", "bfloat16"]

TEMPS = np.array([1.5, 2.269, 3.5])


def make_solo_chains(updater, dtype, seed=11, n_sweeps=6, initial="hot", field=0.0):
    sims = []
    for idx in range(TEMPS.size):
        sim = IsingSimulation(
            8,
            float(TEMPS[idx]),
            updater=updater,
            backend=NumpyBackend(dtype),
            seed=seed,
            stream_id=idx,
            initial=initial,
            field=field,
        )
        sim.run(n_sweeps)
        sims.append(sim)
    return sims


class TestBitIdentity:
    @pytest.mark.parametrize("updater", UPDATERS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_chains_match_solo_simulations(self, updater, dtype):
        # The core ensemble contract: chain b of the batched run is
        # bit-identical to a solo IsingSimulation fed the same
        # (seed, stream_id) pair, for every updater and both dtypes.
        ensemble = EnsembleSimulation(
            8, TEMPS, updater=updater, backend=NumpyBackend(dtype), seed=11
        )
        ensemble.run(6)
        solos = make_solo_chains(updater, dtype)
        lattices = ensemble.lattices
        for b, solo in enumerate(solos):
            assert np.array_equal(lattices[b], solo.lattice), f"chain {b} diverged"

    def test_mixed_hot_cold_initials(self):
        ensemble = EnsembleSimulation(
            8, TEMPS, seed=4, initial=["cold", "hot", "hot"]
        )
        ensemble.run(4)
        for b, start in enumerate(["cold", "hot", "hot"]):
            solo = IsingSimulation(
                8, float(TEMPS[b]), seed=4, stream_id=b, initial=start
            )
            solo.run(4)
            assert np.array_equal(ensemble.lattices[b], solo.lattice)

    def test_sample_matches_solo_sample(self):
        ensemble = EnsembleSimulation(8, TEMPS, seed=2)
        results = ensemble.sample(n_samples=24, burn_in=4, thin=2)
        for b in range(TEMPS.size):
            solo = IsingSimulation(8, float(TEMPS[b]), seed=2, stream_id=b)
            ref = solo.sample(n_samples=24, burn_in=4, thin=2)
            res = results[b]
            assert np.array_equal(res.m_series, ref.m_series)
            assert np.array_equal(res.e_series, ref.e_series)
            assert res.u4 == ref.u4
            assert res.abs_m == ref.abs_m
            assert res.energy == ref.energy

    def test_field_matches_solo_chains(self):
        ensemble = EnsembleSimulation(8, TEMPS, seed=7, field=0.4)
        ensemble.run(5)
        solos = make_solo_chains("compact", "float32", seed=7, n_sweeps=5, field=0.4)
        for b, solo in enumerate(solos):
            assert np.array_equal(ensemble.lattices[b], solo.lattice)


class TestTemperatureScanWrapper:
    def test_scan_bit_identical_to_serial_loop(self):
        # run_temperature_scan is now a thin wrapper over the ensemble;
        # it must reproduce the historical serial loop exactly.
        scanned = run_temperature_scan(8, TEMPS, n_samples=20, burn_in=4, seed=1)
        for idx, t in enumerate(TEMPS):
            sim = IsingSimulation(
                8,
                float(t),
                seed=1,
                stream_id=idx,
                initial="hot" if t >= 2.0 else "cold",
            )
            ref = sim.sample(20, burn_in=4)
            assert np.array_equal(scanned[idx].m_series, ref.m_series)
            assert scanned[idx].u4 == ref.u4

    def test_scan_threads_field(self):
        # Regression: a scan with an external field used to silently run
        # at h = 0.  With a strong field the high-T chain must polarise.
        with_field = run_temperature_scan(
            8, TEMPS, n_samples=24, burn_in=16, seed=3, field=4.0
        )
        without = run_temperature_scan(8, TEMPS, n_samples=24, burn_in=16, seed=3)
        assert with_field[-1].abs_m > 0.8  # h = 4 polarises even at T = 3.5
        assert with_field[-1].abs_m != without[-1].abs_m

    def test_scan_threads_field_bit_identically(self):
        scanned = run_temperature_scan(
            8, TEMPS, n_samples=12, burn_in=2, seed=5, field=0.25
        )
        for idx, t in enumerate(TEMPS):
            sim = IsingSimulation(
                8,
                float(t),
                seed=5,
                stream_id=idx,
                initial="hot" if t >= 2.0 else "cold",
                field=0.25,
            )
            ref = sim.sample(12, burn_in=2)
            assert np.array_equal(scanned[idx].m_series, ref.m_series)

    def test_scan_threads_block_shape(self):
        scanned = run_temperature_scan(
            8, TEMPS, n_samples=12, burn_in=2, seed=5, block_shape=(2, 2)
        )
        for idx, t in enumerate(TEMPS):
            sim = IsingSimulation(
                8,
                float(t),
                seed=5,
                stream_id=idx,
                initial="hot" if t >= 2.0 else "cold",
                block_shape=(2, 2),
            )
            ref = sim.sample(12, burn_in=2)
            assert np.array_equal(scanned[idx].m_series, ref.m_series)


class TestEnsembleLifecycle:
    def test_checkpoint_roundtrip_bit_identical(self):
        ensemble = EnsembleSimulation(
            8, TEMPS, seed=6, backend=NumpyBackend("bfloat16"), block_shape=(2, 2)
        )
        ensemble.run(4)
        state = ensemble.state_dict()
        resumed = EnsembleSimulation.from_state_dict(state)
        assert resumed.backend.dtype.name == "bfloat16"
        assert resumed.block_shape == (2, 2)
        assert resumed.sweeps_done == ensemble.sweeps_done
        ensemble.run(5)
        resumed.run(5)
        assert np.array_equal(ensemble.lattices, resumed.lattices)

    def test_to_single_continues_bit_identically(self):
        ensemble = EnsembleSimulation(8, TEMPS, seed=8)
        ensemble.run(3)
        solo = ensemble.to_single(2)
        assert solo.temperature == pytest.approx(float(TEMPS[2]))
        ensemble.run(4)
        solo.run(4)
        assert np.array_equal(ensemble.lattices[2], solo.lattice)

    def test_to_single_keeps_the_elementwise_engine(self):
        ensemble = EnsembleSimulation(8, TEMPS, seed=8, fused=False)
        ensemble.run(2)
        solo = ensemble.to_single(1)
        assert solo.fused is False
        assert solo._executor is None
        ensemble.run(3)
        solo.run(3)
        assert np.array_equal(ensemble.lattices[1], solo.lattice)

    def test_replica_ensemble_distinct_chains(self):
        # Same temperature, distinct stream ids: chains must decorrelate.
        ensemble = EnsembleSimulation(16, np.full(4, 2.3), seed=1)
        ensemble.run(5)
        lattices = ensemble.lattices
        for a in range(4):
            for b in range(a + 1, 4):
                assert not np.array_equal(lattices[a], lattices[b])

    def test_observable_helpers(self):
        ensemble = EnsembleSimulation(8, TEMPS, seed=0, initial="cold")
        assert np.allclose(ensemble.magnetizations(), 1.0)
        assert np.allclose(ensemble.energies_per_spin(), -2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            EnsembleSimulation((7, 8), TEMPS)
        with pytest.raises(ValueError, match="positive"):
            EnsembleSimulation(8, [2.0, -1.0])
        with pytest.raises(ValueError, match="unknown updater"):
            EnsembleSimulation(8, TEMPS, updater="wolff")
        with pytest.raises(ValueError, match="stream ids"):
            EnsembleSimulation(8, TEMPS, stream_ids=[0, 1])
        with pytest.raises(ValueError, match="initial"):
            EnsembleSimulation(8, TEMPS, initial=["hot", "warm", "cold"])
        with pytest.raises(ValueError, match="initial lattice stack"):
            EnsembleSimulation(8, TEMPS, initial=np.ones((2, 8, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="block_shape"):
            EnsembleSimulation(8, TEMPS, updater="masked_conv", block_shape=(2, 2))
        with pytest.raises(ValueError, match="n_sweeps"):
            EnsembleSimulation(8, TEMPS).run(-1)
        with pytest.raises(ValueError, match="n_samples"):
            EnsembleSimulation(8, TEMPS).sample(0)


class TestMergedDraw:
    """Batched fused compact sweeps draw all four sub-lattices at once."""

    @pytest.mark.parametrize("side, merged", [(16, True), (6, False)])
    def test_matches_elementwise_path(self, side, merged):
        runs = {}
        for fused in (True, False):
            backend = NumpyBackend()
            draws = count_draws(backend)
            ensemble = EnsembleSimulation(
                side, TEMPS, seed=3, backend=backend, fused=fused
            )
            ensemble.run(4)
            runs[fused] = ensemble
            if fused:
                grid = ensemble._state.grid_shape
                per_sweep = [(3, 4) + grid[1:]] if merged else [grid] * 4
                assert draws == per_sweep * 4
        assert np.array_equal(runs[True].lattices, runs[False].lattices)
        assert runs[True].stream.counters == runs[False].stream.counters

    @pytest.mark.parametrize("side", [16, 6])
    def test_matches_explicit_per_phase_probs(self, side):
        from repro.core.compact import CompactUpdater
        from repro.core.lattice import random_lattice
        from repro.rng import BatchedPhiloxStream, PhiloxStream

        plain = np.stack(
            [random_lattice((side, side), PhiloxStream(5, b)) for b in range(3)]
        )
        beta = (1.0 / TEMPS).reshape(-1, 1, 1, 1, 1)

        def build():
            updater = CompactUpdater(beta, NumpyBackend(), block_shape=None, fused=True)
            return updater, updater.to_state(plain)

        updater, lat = build()
        stream = BatchedPhiloxStream(9, [0, 1, 2])
        for _ in range(3):
            lat = updater.sweep(lat, stream)

        replica, ref = build()
        replay = BatchedPhiloxStream(9, [0, 1, 2])
        shape = ref.grid_shape
        for _ in range(3):
            black = (replay.uniform(shape), replay.uniform(shape))
            white = (replay.uniform(shape), replay.uniform(shape))
            ref = replica.sweep(ref, probs_black=black, probs_white=white)
        assert np.array_equal(lat.to_plain(), ref.to_plain())
        assert stream.counters == replay.counters

    def test_traced_checkpoint_and_workspace(self):
        eager = EnsembleSimulation(16, TEMPS, seed=2, fused=True)
        eager_sweeps(eager, 8)
        traced = EnsembleSimulation(16, TEMPS, seed=2, fused=True)
        traced.run(3)
        snapshot = traced.state_dict()
        traced.run(1)
        misses = traced._updater.workspace.misses
        traced.run(4)
        assert traced._executor.sweeps_replayed == 6
        assert traced._updater.workspace.misses == misses
        assert np.array_equal(eager.lattices, traced.lattices)
        assert eager.stream.counters == traced.stream.counters

        resumed = EnsembleSimulation.from_state_dict(snapshot)
        resumed.run(5)
        assert np.array_equal(resumed.lattices, eager.lattices)
        assert resumed.stream.counters == eager.stream.counters
