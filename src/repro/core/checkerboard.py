"""Algorithm 1: the naive checkerboard updater (``UpdateNaive``).

One colour phase computes neighbour sums for *every* site via blocked
matmuls, draws uniforms for *every* site, and then masks the flips down to
the active colour — the three redundancies the paper's compact Algorithm 2
eliminates.  It is retained both as the reference TPU mapping and as the
ablation partner for the "about 3x faster" claim.

State is the rank-4 grid form ``[m, n, r, c]``, or the batched rank-5
form ``[batch, m, n, r, c]`` when driving an ensemble of chains (see
:mod:`repro.core.ensemble`); helpers accept plain lattices for
convenience.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import Backend
from ..rng.streams import PhiloxStream
from .fused import FloatUpdater, fused_metropolis_flip
from .kernels import neighbor_sum_grid, neighbor_sum_grid_into
from .lattice import checkerboard_mask, grid_to_plain, plain_to_grid
from .update import metropolis_flip

__all__ = ["CheckerboardUpdater"]


class CheckerboardUpdater(FloatUpdater):
    """Stateless driver for Algorithm 1 sweeps.

    ``beta``, ``backend``, ``field`` and ``fused`` are those of
    :class:`~repro.core.fused.FloatUpdater`; ``block_shape`` is the
    (r, c) of the grid blocks, 128 x 128 on the real device.  A fused
    sweep mutates the grid in place.
    """

    def __init__(
        self,
        beta: float | np.ndarray,
        backend: Backend | None = None,
        block_shape: tuple[int, int] = (128, 128),
        field: float = 0.0,
        fused: bool = False,
    ) -> None:
        # beta is a scalar for a single chain; a (batch, 1, 1, 1, 1)
        # broadcast array when driving a batched ensemble.
        super().__init__(beta, backend, field=field, fused=fused)
        self.block_shape = tuple(block_shape)

    def _masks(self, grid_shape: tuple[int, ...]) -> dict[str, tuple]:
        """Colour masks ``M`` / ``1 - M`` in grid form, cached per shape.

        Masks depend only on the trailing ``(m, n, r, c)`` geometry; a
        batched grid broadcasts the rank-4 masks over its chain axis.
        """
        m, n, r, c = key = tuple(grid_shape[-4:])
        return self._colour_masks(
            key,
            lambda color: plain_to_grid(
                checkerboard_mask((m * r, n * c), color), (r, c)
            ),
        )

    def update_color(
        self,
        grid: np.ndarray,
        color: str,
        stream: PhiloxStream | None = None,
        probs: np.ndarray | None = None,
    ) -> np.ndarray:
        """One colour phase: lines 1-10 of Algorithm 1.

        ``probs`` (full-lattice uniforms in grid form) may be supplied for
        deterministic cross-implementation tests; otherwise they are drawn
        from ``stream``.

        In fused mode the grid is updated *in place* and returned.
        """
        probs = self._uniforms(grid.shape, stream, probs, "probs")
        mask, signs = self._masks(grid.shape)[color]
        if self.fused:
            table, ws = self._fused_ctx()
            nn = neighbor_sum_grid_into(grid, self.backend, ws)
            return fused_metropolis_flip(
                self.backend, grid, nn, probs, table, ws, signs
            )
        nn = neighbor_sum_grid(grid, self.backend)
        return metropolis_flip(
            self.backend, grid, nn, probs, self.beta, mask=mask, field=self.field
        )

    # -- plain-lattice conveniences ---------------------------------------

    def to_state(self, plain: np.ndarray) -> np.ndarray:
        """Convert a plain lattice into this updater's grid state.

        A ``(batch, rows, cols)`` stack of chains becomes the rank-5
        batched grid ``[batch, m, n, r, c]``.
        """
        return self.backend.array(plain_to_grid(plain, self.block_shape))

    def to_plain(self, grid: np.ndarray) -> np.ndarray:
        return grid_to_plain(grid)
