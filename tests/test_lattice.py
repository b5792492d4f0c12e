"""Lattice construction and layout-conversion tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lattice import (
    CompactLattice,
    checkerboard_mask,
    cold_lattice,
    grid_to_plain,
    initial_lattice,
    initial_lattices,
    plain_to_grid,
    plain_to_quarters,
    quarters_to_plain,
    random_lattice,
    random_lattices,
    validate_spins,
)
from repro.rng import BatchedPhiloxStream, PhiloxStream

from .conftest import OracleStream, make_lattice


class TestConstruction:
    def test_random_lattice_values(self, stream):
        plain = random_lattice((32, 48), stream)
        assert plain.shape == (32, 48)
        assert plain.dtype == np.float32
        assert set(np.unique(plain)) <= {-1.0, 1.0}

    def test_random_lattice_bias(self, stream):
        plain = random_lattice((64, 64), stream, p_up=0.9)
        assert plain.mean() > 0.7

    def test_random_lattice_bad_shape(self, stream):
        with pytest.raises(ValueError, match="positive"):
            random_lattice((0, 4), stream)

    @pytest.mark.parametrize("p_up", [0.5, 0.9])
    def test_random_lattice_matches_oracle(self, p_up):
        oracle = OracleStream(5, 3)
        u = oracle.uniform((10, 14))
        stream = PhiloxStream(5, 3)
        plain = random_lattice((10, 14), stream, p_up=p_up)
        assert np.array_equal(plain, np.where(u < p_up, 1.0, -1.0))
        assert stream.counter == oracle.counter

    @pytest.mark.parametrize("shape", [(8, 8), (6, 10), (5, 7)])
    def test_random_lattices_chain_identity(self, shape):
        # Odd sizes leave a partial last counter per chain.
        solos = [
            PhiloxStream.from_state({"seed": s, "stream_id": i, "counter": c})
            for s, i, c in ((1, 0, 0), (2, 7, 5), (1, 1, 3))
        ]
        batch = BatchedPhiloxStream.from_streams(solos)
        plains = random_lattices(shape, batch)
        assert plains.shape == (3, *shape) and plains.dtype == np.float32
        for b, solo in enumerate(solos):
            assert np.array_equal(plains[b], random_lattice(shape, solo))
        assert batch.counters == [s.counter for s in solos]
        with pytest.raises(ValueError, match="positive"):
            random_lattices((4, 0), batch)

    def test_initial_lattices_draw_hot_chains_at_once(self, monkeypatch):
        import repro.core.lattice as lattice_module

        explicit = make_lattice((6, 6), seed=3)
        initial = ["hot", "cold", explicit, "hot", "hot"]
        streams = [PhiloxStream(4, b) for b in range(5)]
        draws = []
        batched = lattice_module.random_lattices

        def counting(shape, stream):
            draws.append(stream.n_chains)
            return batched(shape, stream)

        monkeypatch.setattr(lattice_module, "random_lattices", counting)
        plains, after = initial_lattices((6, 6), initial, streams)
        assert draws == [3]
        for b, (start, stream) in enumerate(zip(initial, streams)):
            solo = PhiloxStream(4, b)
            assert np.array_equal(plains[b], initial_lattice((6, 6), start, solo))
            assert after[b].counter == solo.counter
            assert after[b].stream_id == b
        # Streams with nothing to draw are passed through; given ones
        # are never advanced.
        assert after[1] is streams[1] and after[2] is streams[2]
        assert [s.counter for s in streams] == [0] * 5
        with pytest.raises(ValueError, match="initial must be"):
            initial_lattices((6, 6), ["hot", "warm"], streams[:2])
        with pytest.raises(ValueError, match="2 initial states for 3"):
            initial_lattices((6, 6), ["hot", "cold"], streams[:3])

    def test_initial_lattices_count_a_split_hot_start(self, two_cpus):
        # Two 256^2 hot starts are one draw of 2 * BLOCK_COUNTERS
        # counters, which splits; a batched stream of the returned
        # streams counts it once.
        streams = [PhiloxStream(4, b) for b in range(3)]
        _, after = initial_lattices((256, 256), ["cold", "hot", "hot"], streams)
        assert [s.split_draws for s in after] == [0, 1, 0]
        assert BatchedPhiloxStream.from_streams(after).split_draws == 1

    def test_cold_lattice(self):
        assert np.all(cold_lattice((4, 4)) == 1.0)
        assert np.all(cold_lattice((4, 4), value=-1) == -1.0)
        with pytest.raises(ValueError, match="spin value"):
            cold_lattice((4, 4), value=0)

    def test_validate_spins(self):
        validate_spins(cold_lattice((4, 4)))
        with pytest.raises(ValueError, match="must be \\+/-1"):
            validate_spins(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="2D"):
            validate_spins(np.ones((4, 4, 4), dtype=np.float32))


class TestGridLayout:
    def test_known_placement(self):
        plain = np.arange(24, dtype=np.float32).reshape(4, 6)
        grid = plain_to_grid(plain, (2, 3))
        assert grid.shape == (2, 2, 2, 3)
        # Block (1, 0) holds rows 2-3, cols 0-2.
        assert np.array_equal(grid[1, 0], plain[2:4, 0:3])

    def test_roundtrip(self):
        plain = make_lattice((12, 20))
        for block in [(3, 5), (12, 20), (4, 4), (1, 1), (6, 10)]:
            assert np.array_equal(grid_to_plain(plain_to_grid(plain, block)), plain)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="not divisible"):
            plain_to_grid(np.zeros((4, 6), dtype=np.float32), (3, 3))

    def test_bad_block_raises(self):
        with pytest.raises(ValueError, match="positive"):
            plain_to_grid(np.zeros((4, 6), dtype=np.float32), (0, 2))

    def test_grid_to_plain_rank_check(self):
        with pytest.raises(ValueError, match="rank-4"):
            grid_to_plain(np.zeros((2, 3, 4), dtype=np.float32))


class TestQuarters:
    def test_known_placement(self):
        plain = np.arange(16, dtype=np.float32).reshape(4, 4)
        q00, q01, q10, q11 = plain_to_quarters(plain)
        assert np.array_equal(q00, [[0, 2], [8, 10]])
        assert np.array_equal(q01, [[1, 3], [9, 11]])
        assert np.array_equal(q10, [[4, 6], [12, 14]])
        assert np.array_equal(q11, [[5, 7], [13, 15]])

    def test_roundtrip(self):
        plain = make_lattice((10, 14))
        assert np.array_equal(quarters_to_plain(*plain_to_quarters(plain)), plain)

    def test_odd_shape_raises(self):
        with pytest.raises(ValueError, match="even"):
            plain_to_quarters(np.zeros((3, 4), dtype=np.float32))

    def test_mismatched_quarters_raise(self):
        q = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            quarters_to_plain(q, q, q, np.zeros((2, 3), dtype=np.float32))

    def test_quarters_hold_one_color_each(self):
        mask = checkerboard_mask((8, 8), "black")
        q00, q01, q10, q11 = plain_to_quarters(mask)
        assert np.all(q00 == 1.0) and np.all(q11 == 1.0)
        assert np.all(q01 == 0.0) and np.all(q10 == 0.0)


class TestCheckerboardMask:
    def test_complementary(self):
        black = checkerboard_mask((6, 8), "black")
        white = checkerboard_mask((6, 8), "white")
        assert np.array_equal(black + white, np.ones((6, 8), dtype=np.float32))

    def test_no_adjacent_same_color(self):
        black = checkerboard_mask((8, 8), "black")
        assert np.all(black + np.roll(black, 1, axis=0) == 1.0)
        assert np.all(black + np.roll(black, 1, axis=1) == 1.0)

    def test_origin_is_black(self):
        assert checkerboard_mask((4, 4), "black")[0, 0] == 1.0

    def test_bad_color(self):
        with pytest.raises(ValueError, match="color"):
            checkerboard_mask((4, 4), "red")


class TestCompactLattice:
    def test_roundtrip_and_shapes(self):
        plain = make_lattice((16, 24))
        lat = CompactLattice.from_plain(plain, (4, 6))
        assert lat.grid_shape == (2, 2, 4, 6)
        assert lat.plain_shape == (16, 24)
        assert lat.n_sites == 16 * 24
        assert np.array_equal(lat.to_plain(), plain)

    def test_default_block_is_whole_quarter(self):
        plain = make_lattice((8, 12))
        lat = CompactLattice.from_plain(plain)
        assert lat.grid_shape == (1, 1, 4, 6)

    def test_black_white_accessors(self):
        plain = make_lattice((8, 8))
        lat = CompactLattice.from_plain(plain)
        assert lat.black() == (lat.s00, lat.s11)
        assert lat.white() == (lat.s01, lat.s10)

    def test_copy_is_independent(self):
        lat = CompactLattice.from_plain(make_lattice((8, 8)))
        dup = lat.copy()
        dup.s00[...] = -dup.s00
        assert not np.array_equal(dup.s00, lat.s00)

    def test_shape_validation(self):
        good = np.zeros((1, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="rank 4"):
            CompactLattice(np.zeros((2, 2)), good, good, good)
        with pytest.raises(ValueError, match="shape"):
            CompactLattice(good, good, good, np.zeros((1, 1, 2, 3), dtype=np.float32))


class TestPropertyRoundtrips:
    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 4),
        r=st.integers(1, 6),
        c=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    def test_grid_roundtrip(self, m, n, r, c, seed):
        plain = random_lattice((m * r, n * c), PhiloxStream(seed, 0))
        assert np.array_equal(grid_to_plain(plain_to_grid(plain, (r, c))), plain)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 3),
        r=st.integers(1, 4),
        c=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    def test_compact_roundtrip(self, m, n, r, c, seed):
        plain = random_lattice((2 * m * r, 2 * n * c), PhiloxStream(seed, 1))
        lat = CompactLattice.from_plain(plain, (r, c))
        assert np.array_equal(lat.to_plain(), plain)
