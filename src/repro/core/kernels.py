"""Nearest-neighbour sum kernels.

The compute-intensive part of the checkerboard algorithm is the sum of the
four nearest neighbours of every spin.  The paper evaluates three ways to
compute it, all reproduced here:

* ``neighbor_sum_roll`` — the textbook torus-roll formulation (ground
  truth for tests, and the host-side baseline);
* ``neighbor_sum_grid`` — Algorithm 1: per-block matmuls with the
  tridiagonal 0/1 kernel ``K`` plus boundary compensation between blocks
  (this is what maps onto the MXU);
* ``compact_neighbor_sums`` — Algorithm 2: the four interleaved compact
  sub-lattices with the upper-bidiagonal kernel ``K_hat``; per colour
  phase only the two opposite-colour tensors are read, and only the two
  active tensors get neighbour sums — no masking, no wasted work.

``compact_neighbor_sums`` accepts optional *halos*: in the distributed
pod simulation, the slabs that would wrap around the local torus edge are
replaced by boundary values received from neighbouring cores via
``collective_permute`` (see :mod:`repro.core.distributed`).  Its
allocation-free twin, which the fused engine runs, sums on the local
torus only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backend.base import Backend
from .lattice import CompactLattice

__all__ = [
    "kernel_K",
    "kernel_K_hat",
    "neighbor_sum_roll",
    "neighbor_sum_grid",
    "neighbor_sum_grid_into",
    "PhaseHalos",
    "compact_neighbor_sums",
    "compact_neighbor_sums_into",
]

_ALL = slice(None)


def kernel_K(n: int) -> np.ndarray:
    """The paper's kernel ``K``: ones on the super- and sub-diagonal.

    ``matmul(sigma, K)`` sums each site's left and right neighbours;
    ``matmul(K, sigma)`` its up and down neighbours (within one block).
    """
    if n < 1:
        raise ValueError(f"kernel size must be >= 1, got {n}")
    k = np.zeros((n, n), dtype=np.float32)
    idx = np.arange(n - 1)
    k[idx, idx + 1] = 1.0
    k[idx + 1, idx] = 1.0
    return k


def kernel_K_hat(n: int) -> np.ndarray:
    """The compact kernel ``K_hat``: ones on the diagonal and super-diagonal.

    With the interleaved compact sub-lattices, a site's two horizontal (or
    vertical) neighbours of the opposite colour sit at offsets {0, -1} (or
    {0, +1}) in the neighbouring compact tensor, which is exactly what one
    multiplication by ``K_hat`` (or its transpose) gathers.
    """
    if n < 1:
        raise ValueError(f"kernel size must be >= 1, got {n}")
    k = np.eye(n, dtype=np.float32)
    idx = np.arange(n - 1)
    k[idx, idx + 1] = 1.0
    return k


def neighbor_sum_roll(plain: np.ndarray) -> np.ndarray:
    """Ground-truth 4-neighbour sum on the torus via four rolls."""
    return (
        np.roll(plain, 1, axis=0)
        + np.roll(plain, -1, axis=0)
        + np.roll(plain, 1, axis=1)
        + np.roll(plain, -1, axis=1)
    ).astype(np.float32)


def neighbor_sum_grid(grid: np.ndarray, backend: Backend) -> np.ndarray:
    """Algorithm 1 lines 2-6: blocked matmul neighbour sum with compensation.

    ``grid`` is ``[m, n, r, c]`` or batched ``[batch, m, n, r, c]`` (any
    number of leading batch axes); the result has the same shape and
    equals :func:`neighbor_sum_roll` of each corresponding plain lattice.
    All grid axes are addressed from the right, so a leading ensemble
    axis broadcasts through untouched.
    """
    if grid.ndim < 4:
        raise ValueError(
            f"expected a rank-4 (or batched rank-5) grid, got shape {grid.shape}"
        )
    r, c = grid.shape[-2:]
    k_row = backend.array(kernel_K(r))
    k_col = backend.array(kernel_K(c))

    # Internal sites: horizontal neighbours via sigma @ K, vertical via
    # K @ sigma, batched over the (m, n) grid (and any ensemble axes).
    nn = backend.add(backend.matmul(grid, k_col), backend.matmul(k_row, grid))

    # Northern boundaries: row 0 of block (i, j) is missing the last row of
    # block (i-1, j); the grid wraps (torus).  Grid-row/grid-column axes
    # sit at -3 / -2 of the boundary slabs regardless of batching.
    north = backend.roll(
        backend.slice_copy(grid, (..., -1, _ALL)), 1, axis=-3
    )
    nn = backend.add_at_slice(nn, (..., 0, _ALL), north)
    # Southern boundaries.
    south = backend.roll(
        backend.slice_copy(grid, (..., 0, _ALL)), -1, axis=-3
    )
    nn = backend.add_at_slice(nn, (..., -1, _ALL), south)
    # Western boundaries.
    west = backend.roll(
        backend.slice_copy(grid, (..., _ALL, -1)), 1, axis=-2
    )
    nn = backend.add_at_slice(nn, (..., _ALL, 0), west)
    # Eastern boundaries.
    east = backend.roll(
        backend.slice_copy(grid, (..., _ALL, 0)), -1, axis=-2
    )
    nn = backend.add_at_slice(nn, (..., _ALL, -1), east)
    return nn


def neighbor_sum_grid_into(grid: np.ndarray, backend: Backend, workspace) -> np.ndarray:
    """Allocation-free twin of :func:`neighbor_sum_grid`.

    Same blocked-matmul-plus-compensation structure, same op-for-op
    quantization, but the two ``K`` band matmuls and their add run as
    one band primitive (:meth:`~repro.backend.base.Backend.band_cross_matmul_into`),
    so no kernel matrix is built, and the sum and the four boundary
    slabs live in ``workspace`` scratch buffers.  Returns the
    workspace's ``nn`` buffer — valid until the next call.
    """
    if grid.ndim < 4:
        raise ValueError(
            f"expected a rank-4 (or batched rank-5) grid, got shape {grid.shape}"
        )
    c = grid.shape[-1]

    nn = workspace.buffer("nn_grid", grid.shape)
    # The two K band matmuls plus their add, as one in-block shifted-sum
    # primitive: bit-identical values (exact small-integer sums), but
    # host execution is slice adds.
    backend.band_cross_matmul_into(grid, nn)

    # Boundary compensation, staged through two slab buffers per
    # orientation: slab_a holds the copied edge, slab_b the rolled edge,
    # then slab_a is reused as the add_at_slice staging buffer.
    row_shape = grid.shape[:-2] + (c,)
    col_shape = grid.shape[:-1]
    ra = workspace.buffer("nn_row_slab_a", row_shape)
    rb = workspace.buffer("nn_row_slab_b", row_shape)
    backend.slice_copy_into(grid, (..., -1, _ALL), ra)
    backend.roll_into(ra, 1, -3, rb)
    backend.add_at_slice_into(nn, (..., 0, _ALL), rb, ra)
    backend.slice_copy_into(grid, (..., 0, _ALL), ra)
    backend.roll_into(ra, -1, -3, rb)
    backend.add_at_slice_into(nn, (..., -1, _ALL), rb, ra)
    ca = workspace.buffer("nn_col_slab_a", col_shape)
    cb = workspace.buffer("nn_col_slab_b", col_shape)
    backend.slice_copy_into(grid, (..., _ALL, -1), ca)
    backend.roll_into(ca, 1, -2, cb)
    backend.add_at_slice_into(nn, (..., _ALL, 0), cb, ca)
    backend.slice_copy_into(grid, (..., _ALL, 0), ca)
    backend.roll_into(ca, -1, -2, cb)
    backend.add_at_slice_into(nn, (..., _ALL, -1), cb, ca)
    return nn


@dataclass
class PhaseHalos:
    """Boundary values replacing the local torus wrap in one colour phase.

    Each field, when set, overrides the slab entry that ``np.roll`` would
    wrap around the *local* lattice edge:

    * ``north`` — shape ``(n, c)``: the incoming row for grid row 0;
    * ``south`` — shape ``(n, c)``: the incoming row for grid row m-1;
    * ``west`` — shape ``(m, r)``: the incoming column for grid col 0;
    * ``east`` — shape ``(m, r)``: the incoming column for grid col n-1.

    ``None`` fields keep the wrapped value (single-core torus behaviour).
    """

    north: np.ndarray | None = None
    south: np.ndarray | None = None
    west: np.ndarray | None = None
    east: np.ndarray | None = None


def _shifted_slab(
    backend: Backend,
    slab: np.ndarray,
    shift: int,
    axis: int,
    replacement: np.ndarray | None,
) -> np.ndarray:
    """Roll a boundary slab along a grid axis, optionally splicing a halo.

    ``slab`` is ``(..., m, n, c)`` for grid-row (``axis=-3``) rolls or
    ``(..., m, n, r)`` for grid-column (``axis=-2``) rolls; leading axes
    are ensemble batch axes.  After the roll, the entry that wrapped
    around the local edge is replaced by ``replacement`` when given.
    """
    if axis not in (-3, -2):
        raise ValueError(f"axis must be -3 (grid row) or -2 (grid col), got {axis}")
    shifted = backend.roll(slab, shift, axis=axis)
    if replacement is not None:
        edge = 0 if shift > 0 else -1
        index = (Ellipsis, edge) + (_ALL,) * (-axis - 1)
        expected = shifted[index].shape
        if replacement.shape != expected:
            raise ValueError(
                f"halo shape {replacement.shape} != boundary shape {expected}"
            )
        shifted[index] = replacement
    return shifted


def compact_neighbor_sums(
    lat: CompactLattice,
    color: str,
    backend: Backend,
    halos: PhaseHalos | None = None,
    method: str = "matmul",
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2 neighbour sums for one colour phase.

    Returns ``(nn0, nn1)``: for ``color == "black"`` the neighbour sums of
    (s00, s11); for ``"white"`` those of (s01, s10).  Only opposite-colour
    tensors are read, so the phase is a valid Metropolis-within-Gibbs
    block update.

    ``method`` selects the in-block implementation: ``"matmul"`` uses the
    K_hat band matmuls of Algorithm 2; ``"conv"`` uses the appendix-7.2
    fused 2-tap convolutions.  Both produce bit-identical sums (the
    block-boundary compensation is shared), differing only in modeled
    device cost.
    """
    if color not in ("black", "white"):
        raise ValueError(f"color must be 'black' or 'white', got {color!r}")
    if method not in ("matmul", "conv"):
        raise ValueError(f"method must be 'matmul' or 'conv', got {method!r}")
    halos = halos or PhaseHalos()
    # Grid axes are addressed from the right so a batched (ensemble)
    # lattice with leading chain axes flows through unchanged.
    r, c = lat.grid_shape[-2:]

    if method == "matmul":
        k_row = backend.array(kernel_K_hat(r))
        k_col = backend.array(kernel_K_hat(c))
        k_row_t = backend.array(kernel_K_hat(r).T)
        k_col_t = backend.array(kernel_K_hat(c).T)
        # x[i, j] + x[i, j-1] etc., expressed as the four K_hat products.
        prev_col = lambda x: backend.matmul(x, k_col)  # noqa: E731
        prev_row = lambda x: backend.matmul(k_row_t, x)  # noqa: E731
        next_row = lambda x: backend.matmul(k_row, x)  # noqa: E731
        next_col = lambda x: backend.matmul(x, k_col_t)  # noqa: E731
    else:
        prev_col = lambda x: backend.shifted_pair_sum(x, -1, -1)  # noqa: E731
        prev_row = lambda x: backend.shifted_pair_sum(x, -2, -1)  # noqa: E731
        next_row = lambda x: backend.shifted_pair_sum(x, -2, 1)  # noqa: E731
        next_col = lambda x: backend.shifted_pair_sum(x, -1, 1)  # noqa: E731

    if color == "black":
        s01, s10 = lat.s01, lat.s10
        # nn(s00)[i, j] = s01[i, j] + s01[i, j-1] + s10[i, j] + s10[i-1, j]
        nn0 = backend.add(prev_col(s01), prev_row(s10))
        north = _shifted_slab(
            backend,
            backend.slice_copy(s10, (..., -1, _ALL)),
            1,
            -3,
            halos.north,
        )
        nn0 = backend.add_at_slice(nn0, (..., 0, _ALL), north)
        west = _shifted_slab(
            backend,
            backend.slice_copy(s01, (..., _ALL, -1)),
            1,
            -2,
            halos.west,
        )
        nn0 = backend.add_at_slice(nn0, (..., _ALL, 0), west)

        # nn(s11)[i, j] = s01[i, j] + s01[i+1, j] + s10[i, j] + s10[i, j+1]
        nn1 = backend.add(next_row(s01), next_col(s10))
        south = _shifted_slab(
            backend,
            backend.slice_copy(s01, (..., 0, _ALL)),
            -1,
            -3,
            halos.south,
        )
        nn1 = backend.add_at_slice(nn1, (..., -1, _ALL), south)
        east = _shifted_slab(
            backend,
            backend.slice_copy(s10, (..., _ALL, 0)),
            -1,
            -2,
            halos.east,
        )
        nn1 = backend.add_at_slice(nn1, (..., _ALL, -1), east)
        return nn0, nn1

    s00, s11 = lat.s00, lat.s11
    # nn(s01)[i, j] = s00[i, j] + s00[i, j+1] + s11[i, j] + s11[i-1, j]
    nn0 = backend.add(next_col(s00), prev_row(s11))
    north = _shifted_slab(
        backend,
        backend.slice_copy(s11, (..., -1, _ALL)),
        1,
        -3,
        halos.north,
    )
    nn0 = backend.add_at_slice(nn0, (..., 0, _ALL), north)
    east = _shifted_slab(
        backend,
        backend.slice_copy(s00, (..., _ALL, 0)),
        -1,
        -2,
        halos.east,
    )
    nn0 = backend.add_at_slice(nn0, (..., _ALL, -1), east)

    # nn(s10)[i, j] = s00[i, j] + s00[i+1, j] + s11[i, j] + s11[i, j-1]
    nn1 = backend.add(next_row(s00), prev_col(s11))
    south = _shifted_slab(
        backend,
        backend.slice_copy(s00, (..., 0, _ALL)),
        -1,
        -3,
        halos.south,
    )
    nn1 = backend.add_at_slice(nn1, (..., -1, _ALL), south)
    west = _shifted_slab(
        backend,
        backend.slice_copy(s11, (..., _ALL, -1)),
        1,
        -2,
        halos.west,
    )
    nn1 = backend.add_at_slice(nn1, (..., _ALL, 0), west)
    return nn0, nn1


def compact_neighbor_sums_into(
    lat: CompactLattice,
    color: str,
    backend: Backend,
    workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Allocation-free twin of :func:`compact_neighbor_sums`.

    Same op sequence and quantization (bit-identical sums), but each
    ``K_hat`` band matmul — or 2-tap convolution: the two compute the
    same exact small-integer sums — runs as one shifted pair sum
    (:meth:`~repro.backend.base.Backend.band_pair_matmul_into`), so no
    kernel matrix is built, and the in-block products, both
    neighbour-sum outputs and all four boundary slabs come from
    ``workspace`` buffers.  Returns the workspace's ``(nn0, nn1)``
    buffers — valid until the next call.  It sums on the local torus
    only: the pod's halos splice into the elementwise
    :func:`compact_neighbor_sums`.
    """
    if color not in ("black", "white"):
        raise ValueError(f"color must be 'black' or 'white', got {color!r}")
    shape = lat.grid_shape
    c = shape[-1]

    nn0 = workspace.buffer("compact_nn0", shape)
    nn1 = workspace.buffer("compact_nn1", shape)
    tmp = workspace.buffer("compact_nn_tmp", shape)

    prev_col = lambda x, out: backend.band_pair_matmul_into(x, -1, -1, out)  # noqa: E731
    prev_row = lambda x, out: backend.band_pair_matmul_into(x, -2, -1, out)  # noqa: E731
    next_row = lambda x, out: backend.band_pair_matmul_into(x, -2, 1, out)  # noqa: E731
    next_col = lambda x, out: backend.band_pair_matmul_into(x, -1, 1, out)  # noqa: E731

    row_shape = shape[:-2] + (c,)
    col_shape = shape[:-1]
    ra = workspace.buffer("compact_row_slab_a", row_shape)
    rb = workspace.buffer("compact_row_slab_b", row_shape)
    ca = workspace.buffer("compact_col_slab_a", col_shape)
    cb = workspace.buffer("compact_col_slab_b", col_shape)

    if color == "black":
        s01, s10 = lat.s01, lat.s10
        prev_col(s01, nn0)
        prev_row(s10, tmp)
        backend.add_into(nn0, tmp, nn0)
        backend.slice_copy_into(s10, (..., -1, _ALL), ra)
        backend.roll_into(ra, 1, -3, rb)
        backend.add_at_slice_into(nn0, (..., 0, _ALL), rb, ra)
        backend.slice_copy_into(s01, (..., _ALL, -1), ca)
        backend.roll_into(ca, 1, -2, cb)
        backend.add_at_slice_into(nn0, (..., _ALL, 0), cb, ca)

        next_row(s01, nn1)
        next_col(s10, tmp)
        backend.add_into(nn1, tmp, nn1)
        backend.slice_copy_into(s01, (..., 0, _ALL), ra)
        backend.roll_into(ra, -1, -3, rb)
        backend.add_at_slice_into(nn1, (..., -1, _ALL), rb, ra)
        backend.slice_copy_into(s10, (..., _ALL, 0), ca)
        backend.roll_into(ca, -1, -2, cb)
        backend.add_at_slice_into(nn1, (..., _ALL, -1), cb, ca)
        return nn0, nn1

    s00, s11 = lat.s00, lat.s11
    next_col(s00, nn0)
    prev_row(s11, tmp)
    backend.add_into(nn0, tmp, nn0)
    backend.slice_copy_into(s11, (..., -1, _ALL), ra)
    backend.roll_into(ra, 1, -3, rb)
    backend.add_at_slice_into(nn0, (..., 0, _ALL), rb, ra)
    backend.slice_copy_into(s00, (..., _ALL, 0), ca)
    backend.roll_into(ca, -1, -2, cb)
    backend.add_at_slice_into(nn0, (..., _ALL, -1), cb, ca)

    next_row(s00, nn1)
    prev_col(s11, tmp)
    backend.add_into(nn1, tmp, nn1)
    backend.slice_copy_into(s00, (..., 0, _ALL), ra)
    backend.roll_into(ra, -1, -3, rb)
    backend.add_at_slice_into(nn1, (..., -1, _ALL), rb, ra)
    backend.slice_copy_into(s11, (..., _ALL, -1), ca)
    backend.roll_into(ca, 1, -2, cb)
    backend.add_at_slice_into(nn1, (..., _ALL, 0), cb, ca)
    return nn0, nn1
