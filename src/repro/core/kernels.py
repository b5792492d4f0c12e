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


def _shift_pieces(
    shape: tuple[int, ...], inner: int, step: int, outer: "int | None" = None
) -> list[tuple[tuple, tuple]]:
    """``(target, source)`` view indices of one torus shift of a blocked tensor.

    Site ``t`` along the in-block axis ``inner`` (-1 columns, -2 rows)
    reads site ``t + step`` (``step`` = +-1) of the whole torus.  The
    first piece is the in-block part; the block edge reads the far edge
    of the neighbouring block along the grid axis ``outer`` (default
    ``inner - 2``): one piece when the grid is one block wide along it,
    else two, the neighbouring blocks and then the wrap around the torus.
    """
    outer = inner - 2 if outer is None else outer
    head, tail = slice(1, None), slice(None, -1)
    dst, src = (head, tail) if step < 0 else (tail, head)
    near, far = (0, -1) if step < 0 else (-1, 0)
    parts = [(_ALL, dst, _ALL, src)]
    if shape[outer] == 1:
        parts.append((_ALL, near, _ALL, far))
    else:
        parts += [(dst, near, src, far), (near, near, far, far)]
    return [
        (
            _index(outer, inner, to_block, to_site),
            _index(outer, inner, from_block, from_site),
        )
        for to_block, to_site, from_block, from_site in parts
    ]


def _index(outer: int, inner: int, at_outer, at_inner) -> tuple:
    """An index into the trailing ``(m, n, r, c)`` axes of a blocked tensor."""
    index = [_ALL] * 4
    index[outer] = at_outer
    index[inner] = at_inner
    return (Ellipsis, *index)


def _flat(x: np.ndarray) -> np.ndarray:
    """``x`` as one flat view of its buffer.

    Never a copy: a recorded sweep would keep reading the copy's stale
    values, so a tensor that is not C-contiguous is refused.
    """
    if not x.flags.c_contiguous:
        raise ValueError(
            f"the fused neighbour sums need C-contiguous tensors, got shape "
            f"{x.shape} with strides {x.strides}"
        )
    return x.reshape(-1)


def _add_shifted_into(
    backend: Backend, nn: np.ndarray, x: np.ndarray, inner: int, step: int
) -> None:
    """``nn += x`` shifted by ``step`` along ``inner`` on the blocked torus."""
    for dst, src in _shift_pieces(x.shape, inner, step):
        view = nn[dst]
        backend.add_exact_into(view, x[src], view)


def neighbor_sum_grid_into(grid: np.ndarray, backend: Backend, workspace) -> np.ndarray:
    """Allocation-free twin of :func:`neighbor_sum_grid`.

    The same torus sum as the band matmuls plus boundary compensation,
    as adds of views of ``grid`` (:meth:`~repro.backend.base.Backend.add_exact_into`):
    the left and right neighbours are written first, inside the blocks
    (one flat add over the buffer) and then at each block edge, and the
    up and down shifts are added to them.  Every value is an exact
    small integer, so the sums are bit-identical to the matmul
    formulation in every dtype.  The eager sweep builds the views, so a
    recorded sweep holds them.  Returns the workspace's ``nn`` buffer —
    valid until the next call.
    """
    if grid.ndim < 4:
        raise ValueError(
            f"expected a rank-4 (or batched rank-5) grid, got shape {grid.shape}"
        )
    nn = workspace.buffer("nn_grid", grid.shape)
    # Left + right.  One-column blocks have no in-block neighbour, so
    # the grid axis then plays the in-block axis (the lattice is at
    # least two columns wide, so it has at least two blocks).
    inner, outer = (-1, -3) if grid.shape[-1] > 1 else (-3, -1)
    if inner == -1 and grid.shape[-1] > 2:
        # In memory order a site's left and right neighbours are the
        # elements before and after it: one flat add, wrong only at each
        # block's first and last column, which the edge writes below
        # overwrite.
        flat_grid = _flat(grid)
        backend.add_exact_into(flat_grid[:-2], flat_grid[2:], _flat(nn)[1:-1])
    elif grid.shape[inner] > 2:
        backend.add_exact_into(
            grid[_index(outer, inner, _ALL, slice(None, -2))],
            grid[_index(outer, inner, _ALL, slice(2, None))],
            nn[_index(outer, inner, _ALL, slice(1, -1))],
        )
    # A block's first and last site: one neighbour across the block
    # edge (the edge pieces of that shift), the other (site 1 or site
    # -2) in the same block.
    for step, partner in ((-1, 1), (1, -2)):
        for dst, src in _shift_pieces(grid.shape, inner, step, outer)[1:]:
            block = dst[outer]
            backend.add_exact_into(
                grid[src], grid[_index(outer, inner, block, partner)], nn[dst]
            )
    _add_shifted_into(backend, nn, grid, -2, -1)
    _add_shifted_into(backend, nn, grid, -2, 1)
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


#: Per colour phase, each active tensor's (column step, row step).
#: Active tensor k of the phase-ordered stack reads passive tensor k
#: at its own site and one column over, and the other passive tensor
#: at its own site and one row over.
_COMPACT_STEPS = {
    # nn(s00)[i, j] = s01[i, j] + s01[i, j-1] + s10[i, j] + s10[i-1, j]
    # nn(s11)[i, j] = s10[i, j] + s10[i, j+1] + s01[i, j] + s01[i+1, j]
    "black": ((-1, -1), (1, 1)),
    # nn(s01)[i, j] = s00[i, j] + s00[i, j+1] + s11[i, j] + s11[i-1, j]
    # nn(s10)[i, j] = s11[i, j] + s11[i, j-1] + s00[i, j] + s00[i+1, j]
    "white": ((1, -1), (-1, 1)),
}


def _write_column_pair(
    backend: Backend, nn: np.ndarray, x: np.ndarray, step: int
) -> None:
    """``nn = x + x`` shifted by ``step`` along the columns of the blocked torus.

    One flat add over the contiguous buffers writes every site whose
    partner is the next (or previous) element in memory; the sites
    where it read across a row (each block's first column for ``step
    = -1``, its last for ``+1``) are then written by the block-edge
    pieces of the shift.
    """
    flat_nn, flat_x = _flat(nn), _flat(x)
    head, tail = slice(1, None), slice(None, -1)
    here, there = (head, tail) if step < 0 else (tail, head)
    backend.add_exact_into(flat_x[here], flat_x[there], flat_nn[here])
    for dst, src in _shift_pieces(x.shape, -1, step)[1:]:
        backend.add_exact_into(x[dst], x[src], nn[dst])


def compact_neighbor_sums_into(
    lat: CompactLattice,
    color: str,
    backend: Backend,
    workspace,
) -> np.ndarray:
    """Allocation-free twin of :func:`compact_neighbor_sums`.

    The same sums as adds of views of the passive tensors
    (:meth:`~repro.backend.base.Backend.add_exact_into`), for both
    active tensors of the phase at once: each active tensor's column
    part (its column-source partner plus that partner one column over)
    is one flat add plus its block-edge writes, both cross partners
    are one add of the reversed passive pair, and each row shift is one
    in-block view add plus its block-edge adds.  Every value is an exact
    small integer, so the sums are bit-identical to the ``K_hat`` band
    matmuls (or 2-tap convolutions) plus compensation in every dtype.
    The eager sweep builds the views, so a recorded sweep holds them.

    ``lat`` must hold the phase-ordered stack
    (:meth:`~repro.core.lattice.CompactLattice.phase`).  Returns the
    workspace's ``(2, *grid)`` sums, in the order of the phase's active
    tensors — valid until the next call.  It sums on the local torus
    only: the pod's halos splice into the elementwise
    :func:`compact_neighbor_sums`.
    """
    active, passive = lat.phase(color)
    nn = workspace.buffer("compact_nn", active.shape)
    for k, (col_step, row_step) in enumerate(_COMPACT_STEPS[color]):
        _write_column_pair(backend, nn[k], passive[k], col_step)
        _add_shifted_into(backend, nn[k], passive[1 - k], -2, row_step)
    backend.add_exact_into(nn, passive[::-1], nn)
    return nn
