"""Neighbour-sum kernel tests: all formulations equal the roll ground truth."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import NumpyBackend
from repro.core.compact import CompactUpdater
from repro.core.fused import SweepWorkspace
from repro.core.kernels import (
    PhaseHalos,
    compact_neighbor_sums,
    compact_neighbor_sums_into,
    kernel_K,
    kernel_K_hat,
    neighbor_sum_grid,
    neighbor_sum_grid_into,
    neighbor_sum_roll,
)
from repro.core.lattice import (
    CompactLattice,
    grid_to_plain,
    plain_to_grid,
    plain_to_quarters,
    random_lattice,
)
from repro.rng import PhiloxStream

from .conftest import make_lattice


class TestKernelMatrices:
    def test_kernel_K_structure(self):
        k = kernel_K(5)
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == 0)
        assert np.all(np.diag(k, 1) == 1)
        assert k.sum() == 2 * 4

    def test_kernel_K_hat_structure(self):
        k = kernel_K_hat(5)
        assert np.all(np.diag(k) == 1)
        assert np.all(np.diag(k, 1) == 1)
        assert np.all(np.tril(k, -1) == 0)
        assert k.sum() == 5 + 4

    def test_matmul_semantics(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 4)
        # x @ K sums left and right neighbours (no wrap).
        out = x @ kernel_K(4)
        assert np.array_equal(out, [[1, 2, 4, 2]])
        # x @ K_hat adds self and left neighbour.
        out = x @ kernel_K_hat(4)
        assert np.array_equal(out, [[0, 1, 3, 5]])

    def test_size_validation(self):
        with pytest.raises(ValueError):
            kernel_K(0)
        with pytest.raises(ValueError):
            kernel_K_hat(0)


class TestNeighborSumRoll:
    def test_uniform_lattice(self):
        assert np.all(neighbor_sum_roll(np.ones((6, 6), dtype=np.float32)) == 4.0)

    def test_single_up_spin(self):
        plain = -np.ones((5, 5), dtype=np.float32)
        plain[2, 2] = 1.0
        nn = neighbor_sum_roll(plain)
        assert nn[2, 2] == -4.0
        assert nn[1, 2] == nn[3, 2] == nn[2, 1] == nn[2, 3] == -2.0
        assert nn[0, 0] == -4.0

    def test_torus_wrap(self):
        plain = -np.ones((4, 4), dtype=np.float32)
        plain[0, 0] = 1.0
        nn = neighbor_sum_roll(plain)
        assert nn[3, 0] == -2.0  # wraps vertically
        assert nn[0, 3] == -2.0  # wraps horizontally


class TestNeighborSumGrid:
    @pytest.mark.parametrize(
        "shape, block",
        [
            ((8, 8), (4, 4)),
            ((12, 16), (4, 4)),
            ((8, 12), (8, 12)),
            ((16, 8), (2, 2)),
            ((6, 6), (3, 3)),
            ((4, 4), (2, 2)),
        ],
    )
    def test_matches_roll(self, shape, block, backend):
        plain = make_lattice(shape)
        nn = neighbor_sum_grid(plain_to_grid(plain, block), backend)
        assert np.array_equal(grid_to_plain(nn), neighbor_sum_roll(plain))

    def test_rank_check(self, backend):
        with pytest.raises(ValueError, match="rank-4"):
            neighbor_sum_grid(np.zeros((4, 4)), backend)

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 3),
        r=st.integers(2, 5),
        c=st.integers(2, 5),
        seed=st.integers(0, 500),
    )
    def test_property_matches_roll(self, m, n, r, c, seed):
        plain = random_lattice((m * r, n * c), PhiloxStream(seed, 3))
        nn = neighbor_sum_grid(plain_to_grid(plain, (r, c)), NumpyBackend())
        assert np.array_equal(grid_to_plain(nn), neighbor_sum_roll(plain))


class TestCompactNeighborSums:
    @pytest.mark.parametrize("method", ["matmul", "conv"])
    @pytest.mark.parametrize(
        "shape, block",
        [
            ((8, 8), (2, 2)),
            ((16, 24), (4, 3)),
            ((8, 8), (4, 4)),
            ((4, 4), (2, 2)),
            ((12, 8), (6, 4)),
            ((4, 8), (1, 1)),
        ],
    )
    def test_matches_roll(self, shape, block, method, backend):
        plain = make_lattice(shape)
        truth = plain_to_quarters(neighbor_sum_roll(plain))
        lat = CompactLattice.from_plain(plain, block)
        nn0, nn1 = compact_neighbor_sums(lat, "black", backend, method=method)
        assert np.array_equal(grid_to_plain(nn0), truth[0])
        assert np.array_equal(grid_to_plain(nn1), truth[3])
        nn0, nn1 = compact_neighbor_sums(lat, "white", backend, method=method)
        assert np.array_equal(grid_to_plain(nn0), truth[1])
        assert np.array_equal(grid_to_plain(nn1), truth[2])

    def test_conv_and_matmul_bitwise_equal(self, backend):
        plain = make_lattice((16, 16), seed=5)
        lat = CompactLattice.from_plain(plain, (2, 4))
        for color in ("black", "white"):
            a = compact_neighbor_sums(lat, color, backend, method="matmul")
            b = compact_neighbor_sums(lat, color, backend, method="conv")
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])

    def test_bad_color(self, backend):
        lat = CompactLattice.from_plain(make_lattice((4, 4)))
        with pytest.raises(ValueError, match="color"):
            compact_neighbor_sums(lat, "green", backend)

    def test_bad_method(self, backend):
        lat = CompactLattice.from_plain(make_lattice((4, 4)))
        with pytest.raises(ValueError, match="method"):
            compact_neighbor_sums(lat, "black", backend, method="fft")

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 3),
        r=st.integers(1, 4),
        c=st.integers(1, 4),
        seed=st.integers(0, 500),
    )
    def test_property_matches_roll(self, m, n, r, c, seed):
        plain = random_lattice((2 * m * r, 2 * n * c), PhiloxStream(seed, 4))
        truth = plain_to_quarters(neighbor_sum_roll(plain))
        lat = CompactLattice.from_plain(plain, (r, c))
        be = NumpyBackend()
        nn0, nn1 = compact_neighbor_sums(lat, "black", be)
        assert np.array_equal(grid_to_plain(nn0), truth[0])
        assert np.array_equal(grid_to_plain(nn1), truth[3])


class TestViewAddSums:
    """The fused engine's view-add sums equal the band-matmul sums.

    Blocks of one row or column have no in-block neighbour, and grids of
    several blocks split each edge add in two; a leading chain axis
    broadcasts through; bfloat16 sums are exact, as in float32.
    """

    @pytest.mark.parametrize("dtype", ["float32", "bfloat16"])
    @pytest.mark.parametrize(
        "block",
        [(1, 1), (1, 4), (4, 1), (2, 2), (3, 3), (6, 6), (6, 2), (2, 6), (12, 12), (1, 12), (12, 1)],
        ids=lambda block: f"{block[0]}x{block[1]}",
    )
    def test_grid_sum_matches_band_matmuls(self, block, dtype):
        backend = NumpyBackend(dtype)
        plains = np.stack([make_lattice((12, 12), seed=s) for s in range(3)])
        grid = plain_to_grid(plains, block)
        nn = neighbor_sum_grid_into(grid, backend, SweepWorkspace())
        np.testing.assert_array_equal(nn, neighbor_sum_grid(grid, backend))
        for plain, chain in zip(plains, grid_to_plain(nn)):
            np.testing.assert_array_equal(chain, neighbor_sum_roll(plain))

    @pytest.mark.parametrize("dtype", ["float32", "bfloat16"])
    @pytest.mark.parametrize(
        "block",
        [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (6, 6), (1, 6), (6, 1)],
        ids=lambda block: f"{block[0]}x{block[1]}",
    )
    def test_compact_sums_match_band_matmuls(self, block, dtype):
        backend = NumpyBackend(dtype)
        plains = np.stack([make_lattice((12, 12), seed=s) for s in range(3)])
        lat = CompactLattice.from_plain(plains, block)
        ws = SweepWorkspace()
        for color in ("black", "white"):
            fused = compact_neighbor_sums_into(lat, color, backend, ws)
            expected = compact_neighbor_sums(lat, color, backend)
            np.testing.assert_array_equal(fused[0], expected[0])
            np.testing.assert_array_equal(fused[1], expected[1])

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 3),
        r=st.integers(1, 4),
        c=st.integers(1, 4),
        seed=st.integers(0, 500),
    )
    def test_property_matches_roll(self, m, n, r, c, seed):
        be = NumpyBackend()
        plain = random_lattice((2 * m * r, 2 * n * c), PhiloxStream(seed, 5))
        nn = neighbor_sum_grid_into(plain_to_grid(plain, (2 * r, c)), be, SweepWorkspace())
        assert np.array_equal(grid_to_plain(nn), neighbor_sum_roll(plain))
        truth = plain_to_quarters(neighbor_sum_roll(plain))
        lat = CompactLattice.from_plain(plain, (r, c))
        nn0, nn1 = compact_neighbor_sums_into(lat, "white", be, SweepWorkspace())
        assert np.array_equal(grid_to_plain(nn0), truth[1])
        assert np.array_equal(grid_to_plain(nn1), truth[2])


class TestFlatAdds:
    """The fused sums write every site: the flat adds read across rows,
    and the edge writes must cover each site they get wrong.  The
    workspace buffers are filled with NaN first, so a missed site
    shows."""

    @pytest.mark.parametrize(
        "block",
        [(1, 1), (1, 6), (6, 1), (2, 3), (6, 6), (3, 2), (1, 3), (3, 1)],
        ids=lambda block: f"{block[0]}x{block[1]}",
    )
    @pytest.mark.parametrize("chains", [None, 3])
    def test_compact_sums_overwrite_stale_buffers(self, block, chains):
        backend = NumpyBackend()
        plain = make_lattice((12, 12))
        if chains:
            plain = np.stack([make_lattice((12, 12), seed=s) for s in range(chains)])
        lat = CompactLattice.from_plain(plain, block)
        ws = SweepWorkspace()
        for color in ("black", "white"):
            ws.buffer("compact_nn", (2,) + lat.grid_shape)[...] = np.nan
            nn = compact_neighbor_sums_into(lat, color, backend, ws)
            assert nn.shape == (2,) + lat.grid_shape
            expected = compact_neighbor_sums(lat, color, backend)
            np.testing.assert_array_equal(nn[0], expected[0])
            np.testing.assert_array_equal(nn[1], expected[1])

    @pytest.mark.parametrize(
        "plain_shape, block",
        [((32, 32), (32, 32)), ((32, 32), (8, 8)), ((32, 32), (16, 4)),
         ((12, 12), (12, 3)), ((12, 12), (4, 2)), ((12, 12), (3, 1))],
    )
    def test_grid_sum_overwrites_stale_buffer(self, plain_shape, block):
        backend = NumpyBackend()
        plain = make_lattice(plain_shape, seed=3)
        grid = plain_to_grid(plain, block)
        ws = SweepWorkspace()
        ws.buffer("nn_grid", grid.shape)[...] = np.nan
        nn = neighbor_sum_grid_into(grid, backend, ws)
        np.testing.assert_array_equal(grid_to_plain(nn), neighbor_sum_roll(plain))

    def test_strided_tensors_are_refused(self):
        # A flat view of a strided tensor would be a copy, which a
        # recorded sweep would keep reading.
        backend = NumpyBackend()
        grid = plain_to_grid(make_lattice((12, 12)), (6, 6))
        with pytest.raises(ValueError, match="C-contiguous"):
            neighbor_sum_grid_into(grid[..., ::-1], backend, SweepWorkspace())


class TestHalos:
    def test_halo_equal_to_wrap_changes_nothing(self, backend):
        """Explicit halos equal to the torus wrap reproduce halo-free sums."""
        plain = make_lattice((8, 12), seed=9)
        lat = CompactLattice.from_plain(plain, (2, 3))
        m, n, r, c = lat.grid_shape
        halos = PhaseHalos(
            north=lat.s10[-1, :, -1, :].copy(),
            south=lat.s01[0, :, 0, :].copy(),
            west=lat.s01[:, -1, :, -1].copy(),
            east=lat.s10[:, 0, :, 0].copy(),
        )
        base = compact_neighbor_sums(lat, "black", backend)
        with_halos = compact_neighbor_sums(lat, "black", backend, halos=halos)
        assert np.array_equal(base[0], with_halos[0])
        assert np.array_equal(base[1], with_halos[1])

    def test_halo_values_are_used(self, backend):
        """A wrong halo changes exactly the boundary rows/cols it feeds."""
        plain = make_lattice((8, 8), seed=2)
        lat = CompactLattice.from_plain(plain, (2, 2))
        wrong = np.full_like(lat.s10[-1, :, -1, :], 3.0)
        nn0, _ = compact_neighbor_sums(
            lat, "black", backend, halos=PhaseHalos(north=wrong)
        )
        base0, _ = compact_neighbor_sums(lat, "black", backend)
        diff = nn0 != base0
        # Only the top block row's first lattice row can differ.
        assert not diff[1:].any()
        assert not diff[0, :, 1:, :].any()
        assert diff[0, :, 0, :].any()

    def test_fused_updater_refuses_halos(self, backend):
        # Halos splice into the elementwise sums only; the pod runs the
        # elementwise engine.
        lat = CompactLattice.from_plain(make_lattice((8, 8)), (2, 2))
        halos = PhaseHalos(north=lat.s10[-1, :, -1, :].copy())
        fused = CompactUpdater(0.44, backend, block_shape=(2, 2), fused=True)
        with pytest.raises(ValueError, match="halos"):
            fused.update_color(lat, "black", PhiloxStream(1, 0), halos=halos)
        elementwise = CompactUpdater(0.44, backend, block_shape=(2, 2))
        elementwise.update_color(lat, "black", PhiloxStream(1, 0), halos=halos)

    def test_halo_shape_validated(self, backend):
        lat = CompactLattice.from_plain(make_lattice((8, 8)), (2, 2))
        bad = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="halo shape"):
            compact_neighbor_sums(lat, "black", backend, halos=PhaseHalos(north=bad))
