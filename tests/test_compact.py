"""Algorithm 2 (compact) updater tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compact import CompactUpdater
from repro.core.lattice import CompactLattice
from repro.rng import BatchedPhiloxStream, PhiloxStream

from .conftest import count_draws, eager_sweeps, make_lattice


class TestMechanics:
    def test_sweep_preserves_spin_values(self, backend, stream):
        updater = CompactUpdater(0.44, backend, block_shape=(2, 3))
        lat = updater.to_state(make_lattice((8, 12)))
        out = updater.sweep(lat, stream)
        assert set(np.unique(out.to_plain())) <= {-1.0, 1.0}

    def test_black_phase_shares_white_tensors(self, backend, stream):
        updater = CompactUpdater(0.44, backend, block_shape=(2, 2))
        lat = updater.to_state(make_lattice((8, 8)))
        out = updater.update_color(lat, "black", stream)
        assert out.s01 is lat.s01
        assert out.s10 is lat.s10
        assert out.s00 is not lat.s00

    def test_white_phase_shares_black_tensors(self, backend, stream):
        updater = CompactUpdater(0.44, backend, block_shape=(2, 2))
        lat = updater.to_state(make_lattice((8, 8)))
        out = updater.update_color(lat, "white", stream)
        assert out.s00 is lat.s00
        assert out.s11 is lat.s11

    def test_reproducible(self, backend):
        updater = CompactUpdater(0.44, backend, block_shape=(2, 2))
        lat = updater.to_state(make_lattice((8, 8)))
        a = updater.sweep(lat, PhiloxStream(9, 0)).to_plain()
        b = updater.sweep(lat, PhiloxStream(9, 0)).to_plain()
        assert np.array_equal(a, b)

    def test_requires_stream_or_probs(self, backend):
        updater = CompactUpdater(0.44, backend, block_shape=(2, 2))
        lat = updater.to_state(make_lattice((8, 8)))
        with pytest.raises(ValueError, match="stream or probs"):
            updater.update_color(lat, "black")

    def test_probs_shape_validated(self, backend):
        updater = CompactUpdater(0.44, backend, block_shape=(2, 2))
        lat = updater.to_state(make_lattice((8, 8)))
        bad = np.zeros((1, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="probs shapes"):
            updater.update_color(lat, "black", probs=(bad, bad))

    def test_default_block_is_whole_quarter(self, backend, stream):
        updater = CompactUpdater(0.44, backend, block_shape=None)
        lat = updater.to_state(make_lattice((8, 12)))
        assert lat.grid_shape == (1, 1, 4, 6)
        out = updater.sweep(lat, stream)
        assert set(np.unique(out.to_plain())) <= {-1.0, 1.0}

    def test_nn_method_validation(self, backend):
        with pytest.raises(ValueError, match="nn_method"):
            CompactUpdater(0.44, backend, nn_method="fft")

    def test_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            CompactUpdater(-1.0)


class TestRNGDrawOrder:
    def test_stream_draw_matches_algorithm2_order(self, backend):
        """probs0 for the first active tensor, then probs1 — lines 1-2."""
        updater = CompactUpdater(0.44, backend, block_shape=(2, 2))
        lat = updater.to_state(make_lattice((8, 8)))
        stream = PhiloxStream(21, 0)
        out_stream = updater.update_color(lat, "black", stream)
        replay = PhiloxStream(21, 0)
        p0 = replay.uniform(lat.grid_shape)
        p1 = replay.uniform(lat.grid_shape)
        out_probs = updater.update_color(lat, "black", probs=(p0, p1))
        assert np.array_equal(out_stream.to_plain(), out_probs.to_plain())


class TestPhysicsLimits:
    def test_zero_temperature_limit_only_lowers_energy(self, backend):
        """At huge beta the sweep is a strict energy descent."""
        from repro.observables.energy import total_energy

        updater = CompactUpdater(20.0, backend, block_shape=None)
        plain = make_lattice((16, 16), seed=3)
        lat = updater.to_state(plain)
        stream = PhiloxStream(2, 0)
        e_prev = total_energy(plain)
        for _ in range(10):
            lat = updater.sweep(lat, stream)
            e_now = total_energy(lat.to_plain())
            assert e_now <= e_prev + 1e-6
            e_prev = e_now


# (plain shape, block shape, per-phase words % 4 == 0)
GEOMETRIES = [((16, 16), (4, 4), True), ((8, 12), (2, 3), True), ((6, 6), None, False)]


class TestMergedDraw:
    """A fused stream-driven sweep draws all four sub-lattices at once."""

    @pytest.mark.parametrize("plain_shape, block, merged", GEOMETRIES)
    @pytest.mark.parametrize("dtype", ["float32", "bfloat16"])
    def test_matches_elementwise_path(self, plain_shape, block, merged, dtype):
        """A one-chain batched state, as every driver sweeps it."""
        from repro.backend import NumpyBackend

        plain = make_lattice(plain_shape, seed=4)[None]
        lattices, counters = [], []
        for fused in (True, False):
            backend = NumpyBackend(dtype)
            draws = count_draws(backend) if fused else []
            updater = CompactUpdater(
                0.44, backend, block_shape=block, fused=fused
            )
            lat = updater.to_state(plain)
            stream = BatchedPhiloxStream(13, [2])
            for _ in range(5):
                lat = updater.sweep(lat, stream)
            lattices.append(lat.to_plain())
            counters.append(stream.counters)
            if fused:
                lead, grid = lat.grid_shape[:1], lat.grid_shape[1:]
                if merged:
                    assert draws == [lead + (4,) + grid] * 5
                else:  # fallback: per-phase draws
                    assert draws == [lat.grid_shape] * 20
        assert np.array_equal(lattices[0], lattices[1])
        assert counters[0] == counters[1]

    @pytest.mark.parametrize("plain_shape, block, merged", GEOMETRIES)
    def test_matches_explicit_per_phase_probs(self, backend, plain_shape, block, merged):
        plain = make_lattice(plain_shape, seed=5)[None]
        updater = CompactUpdater(0.44, backend, block_shape=block, fused=True)
        lat = updater.to_state(plain)
        stream = BatchedPhiloxStream(21, [0])
        for _ in range(3):
            lat = updater.sweep(lat, stream)

        replica = CompactUpdater(0.44, backend, block_shape=block, fused=True)
        ref = replica.to_state(plain)
        replay = BatchedPhiloxStream(21, [0])
        for _ in range(3):
            black = (replay.uniform(ref.grid_shape), replay.uniform(ref.grid_shape))
            white = (replay.uniform(ref.grid_shape), replay.uniform(ref.grid_shape))
            ref = replica.sweep(ref, probs_black=black, probs_white=white)
        assert np.array_equal(lat.to_plain(), ref.to_plain())
        assert stream.counters == replay.counters

    @pytest.mark.parametrize("plain_shape, block, merged", GEOMETRIES)
    def test_stacked_lattice_with_solo_stream_draws_per_phase(
        self, plain_shape, block, merged
    ):
        """One solo stream over a (B, rows, cols) stack keeps the per-phase
        word order: the merged layout would deal the chains other words."""
        from repro.backend import NumpyBackend

        plain = np.stack([make_lattice(plain_shape, seed=s) for s in range(3)])
        lattices, counters = [], []
        for fused in (True, False):
            backend = NumpyBackend("float32")
            draws = count_draws(backend) if fused else []
            updater = CompactUpdater(
                0.44, backend, block_shape=block, fused=fused
            )
            lat = updater.to_state(plain)
            stream = PhiloxStream(13, 2)
            for _ in range(3):
                lat = updater.sweep(lat, stream)
            lattices.append(lat.to_plain())
            counters.append(stream.counter)
            if fused:
                assert draws == [lat.grid_shape] * 12
        assert np.array_equal(lattices[0], lattices[1])
        assert counters[0] == counters[1]

    def test_workspace_misses_constant_after_warmup(self, backend):
        updater = CompactUpdater(0.44, backend, block_shape=(4, 4), fused=True)
        lat = updater.to_state(make_lattice((16, 16)))
        stream = PhiloxStream(3, 0)
        lat = updater.sweep(lat, stream)
        # Each workspace miss allocates one buffer.
        misses = updater.workspace.n_buffers
        for _ in range(4):
            lat = updater.sweep(lat, stream)
        assert updater.workspace.n_buffers == misses

    @pytest.mark.parametrize("side", [16, 6])
    def test_traced_replay_and_checkpoint_match_eager(self, side):
        from repro.core.simulation import IsingSimulation

        def build():
            return IsingSimulation(side, 2.269, seed=8, fused=True)

        eager = build()
        eager_sweeps(eager, 8)
        traced = build()
        traced.run(8)
        assert traced._executor.sweeps_replayed == 6
        assert np.array_equal(eager.lattice, traced.lattice)
        assert eager.stream.counters == traced.stream.counters

        # Checkpoint mid-run and resume; the resumed chain must agree.
        chain = build()
        chain.run(3)
        snapshot = chain.state_dict()
        chain.run(5)
        resumed = IsingSimulation.from_state_dict(snapshot)
        resumed.run(5)
        assert np.array_equal(resumed.lattice, chain.lattice)
        assert np.array_equal(resumed.lattice, eager.lattice)
        assert resumed.stream.counters == eager.stream.counters
