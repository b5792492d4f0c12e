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


class TestPhaseOrderedStack:
    """The four sub-lattices are views of one (4, *grid) stack, s00, s11,
    s01, s10, so each colour phase is one (2, *grid) slice of it."""

    @staticmethod
    def _assert_stacked(lat):
        stack = lat.stack
        assert stack.shape == (4,) + lat.grid_shape
        assert stack.flags.c_contiguous
        for k, name in enumerate(("s00", "s11", "s01", "s10")):
            view = getattr(lat, name)
            assert view.base is stack
            assert view.__array_interface__["data"] == stack[k].__array_interface__["data"]
        black, white = lat.phase("black"), lat.phase("white")
        np.testing.assert_array_equal(black[0], np.stack([lat.s00, lat.s11]))
        np.testing.assert_array_equal(black[1], np.stack([lat.s01, lat.s10]))
        np.testing.assert_array_equal(white[0], black[1])
        np.testing.assert_array_equal(white[1], black[0])

    @pytest.mark.parametrize("chains", [None, 3])
    def test_from_plain_and_copy(self, chains):
        plain = make_lattice((8, 12))
        if chains:
            plain = np.stack([make_lattice((8, 12), seed=s) for s in range(chains)])
        lat = CompactLattice.from_plain(plain, (2, 3))
        self._assert_stacked(lat)
        assert np.array_equal(lat.to_plain(), plain)
        dup = lat.copy()
        self._assert_stacked(dup)
        assert not np.shares_memory(dup.stack, lat.stack)
        dup.s11[...] = -dup.s11
        assert np.array_equal(lat.to_plain(), plain)

    def test_deepcopy_and_pickle_keep_the_views(self):
        import copy
        import pickle

        lat = CompactLattice.from_plain(make_lattice((8, 8)), (2, 2))
        for dup in (copy.deepcopy(lat), pickle.loads(pickle.dumps(lat))):
            self._assert_stacked(dup)
            assert not np.shares_memory(dup.stack, lat.stack)
            assert np.array_equal(dup.to_plain(), lat.to_plain())
        shallow = copy.copy(lat)
        self._assert_stacked(shallow)
        assert shallow.stack is lat.stack
        loose = CompactLattice(lat.s00.copy(), lat.s01, lat.s10, lat.s11)
        dup = copy.deepcopy(loose)
        assert dup.stack is None and np.array_equal(dup.to_plain(), lat.to_plain())

    @pytest.mark.parametrize("chains", [None, 3])
    @pytest.mark.parametrize("dtype", ["float32", "bfloat16"])
    @pytest.mark.parametrize("fused", [False, True])
    def test_to_state_keeps_the_stack(self, dtype, chains, fused):
        from repro.backend import NumpyBackend

        plain = make_lattice((8, 8))
        if chains:
            plain = np.stack([make_lattice((8, 8), seed=s) for s in range(chains)])
        updater = CompactUpdater(0.44, NumpyBackend(dtype), block_shape=(2, 2), fused=fused)
        lat = updater.to_state(plain)
        self._assert_stacked(lat)
        assert lat.stack.dtype == np.float32
        assert np.array_equal(lat.to_plain(), plain)
        self._assert_stacked(lat.copy())

    def test_fused_sweeps_keep_the_views(self, backend, stream):
        updater = CompactUpdater(0.44, backend, block_shape=(2, 2), fused=True)
        lat = updater.to_state(make_lattice((8, 8)))
        tensors = (lat.stack, lat.s00, lat.s01, lat.s10, lat.s11)
        for _ in range(3):
            out = updater.sweep(lat, stream)
            assert out is lat
        assert all(a is b for a, b in zip(tensors, (lat.stack, lat.s00, lat.s01, lat.s10, lat.s11)))
        self._assert_stacked(lat)

    def test_elementwise_phases_leave_the_stack(self, backend, stream):
        # The elementwise engine returns new active tensors beside the
        # shared passive ones: a lattice of separate tensors.
        updater = CompactUpdater(0.44, backend, block_shape=(2, 2))
        lat = updater.to_state(make_lattice((8, 8)))
        out = updater.update_color(lat, "black", stream)
        assert out.stack is None
        assert out.s01 is lat.s01 and out.s10 is lat.s10

    def test_fused_updater_refuses_an_unstacked_lattice(self, backend):
        from repro.core.fused import SweepWorkspace
        from repro.core.kernels import compact_neighbor_sums_into

        stacked = CompactLattice.from_plain(make_lattice((8, 8)), (2, 2))
        lat = CompactLattice(*(t.copy() for t in (stacked.s00, stacked.s01, stacked.s10, stacked.s11)))
        assert lat.stack is None
        assert lat.copy().stack is None
        updater = CompactUpdater(0.44, backend, block_shape=(2, 2), fused=True)
        stream = PhiloxStream(5, 0)
        with pytest.raises(ValueError, match="to_state"):
            updater.update_color(lat, "black", stream)
        with pytest.raises(ValueError, match="to_state"):
            updater.sweep(lat, stream)
        assert stream.counter == PhiloxStream(5, 0).counter  # nothing drawn
        with pytest.raises(ValueError, match="to_state"):
            compact_neighbor_sums_into(lat, "white", backend, SweepWorkspace())
        # The elementwise engine takes it as before.
        CompactUpdater(0.44, backend, block_shape=(2, 2)).sweep(lat, stream)

    def test_phase_and_stack_validation(self):
        lat = CompactLattice.from_plain(make_lattice((8, 8)), (2, 2))
        with pytest.raises(ValueError, match="color"):
            lat.phase("green")
        with pytest.raises(ValueError, match=r"\(4, \*grid\)"):
            CompactLattice.from_stack(lat.stack[:3])
        with pytest.raises(ValueError, match="C-contiguous"):
            CompactLattice.from_stack(lat.stack[..., ::-1])

    def test_explicit_pair_probs_match_tuple(self, backend):
        plain = make_lattice((8, 8), seed=2)
        out = []
        for as_array in (False, True):
            updater = CompactUpdater(0.44, backend, block_shape=(2, 2), fused=True)
            lat = updater.to_state(plain)
            replay = PhiloxStream(4, 0)
            for color in ("black", "white"):
                pair = (replay.uniform(lat.grid_shape), replay.uniform(lat.grid_shape))
                probs = np.stack(pair) if as_array else pair
                lat = updater.update_color(lat, color, probs=probs)
            out.append(lat.to_plain())
        assert np.array_equal(out[0], out[1])

    @pytest.mark.parametrize("chains", [1, 3])
    def test_further_runs_keep_one_trace(self, chains):
        from repro.core.ensemble import EnsembleSimulation
        from repro.core.simulation import IsingSimulation

        if chains == 1:
            sim = IsingSimulation(16, 2.269, seed=8, fused=True)
        else:
            sim = EnsembleSimulation(16, [2.0, 2.269, 2.6], seed=8, fused=True)
        sim.run(3)
        for _ in range(5):
            sim.run(2)
        ex = sim._executor
        assert ex.traces_recorded == 1
        assert ex.invalidations == 0
        assert ex.sweeps_replayed == 1 + 5 * 2


#: Block shapes on a 16^2 lattice (8 x 8 quarters): one-site blocks,
#: one-row and one-column blocks, one square block, a 2 x 2 grid.
BLOCKS = [(1, 1), (1, 8), (8, 1), (8, 8), (4, 4)]


class TestOneStepPhases:
    """A fused phase updates both active tensors with one Metropolis step;
    it equals the elementwise engine in every cell."""

    @pytest.mark.parametrize("block", BLOCKS, ids=lambda b: f"{b[0]}x{b[1]}")
    @pytest.mark.parametrize("chains", [1, 3])
    @pytest.mark.parametrize("field", [0.0, 0.3])
    @pytest.mark.parametrize("temperature", [0.05, 2.269])
    @pytest.mark.parametrize("dtype", ["float32", "bfloat16"])
    @pytest.mark.parametrize("updater", ["compact", "conv"])
    def test_fused_matches_elementwise(
        self, updater, dtype, temperature, field, chains, block
    ):
        from repro.backend import NumpyBackend
        from repro.core.ensemble import EnsembleSimulation

        temps = [temperature * (1 + 0.2 * b) for b in range(chains)]
        sims = [
            EnsembleSimulation(
                16,
                temps,
                updater=updater,
                backend=NumpyBackend(dtype),
                seed=17,
                block_shape=block,
                field=field,
                fused=fused,
            )
            for fused in (False, True)
        ]
        for sim in sims:
            sim.run(8)
        np.testing.assert_array_equal(sims[0].lattices, sims[1].lattices)
        assert sims[0].stream.counters == sims[1].stream.counters
        ex = sims[1]._executor
        assert ex.sweeps_replayed == 6 and ex.fallbacks == 0
        # Four more edge ops per axis split into several blocks.
        rows, cols = 8 // block[0], 8 // block[1]
        assert ex.program_ops == 25 + 4 * (rows > 1) + 4 * (cols > 1)

    @pytest.mark.parametrize("field", [0.0, 0.3])
    @pytest.mark.parametrize("dtype", ["float32", "bfloat16"])
    def test_odd_word_count_under_a_solo_stream(self, dtype, field):
        """15 words per sub-lattice: each phase draws into the two halves
        of one buffer, in Algorithm 2's order."""
        from repro.backend import NumpyBackend

        plain = make_lattice((6, 10), seed=3)
        lattices, counters = [], []
        for fused in (True, False):
            backend = NumpyBackend(dtype)
            draws = count_draws(backend) if fused else []
            updater = CompactUpdater(
                0.44, backend, block_shape=None, field=field, fused=fused
            )
            lat = updater.to_state(plain)
            stream = PhiloxStream(13, 2)
            for _ in range(4):
                lat = updater.sweep(lat, stream)
            lattices.append(lat.to_plain())
            counters.append(stream.counter)
            if fused:
                assert lat.grid_shape == (1, 1, 3, 5)
                assert draws == [lat.grid_shape] * 16
        assert np.array_equal(lattices[0], lattices[1])
        assert counters[0] == counters[1]
