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
from ..backend.numpy_backend import NumpyBackend
from ..rng.streams import PhiloxStream
from .accept import AcceptanceTable
from .fused import SweepWorkspace, fused_metropolis_flip
from .kernels import neighbor_sum_grid, neighbor_sum_grid_into
from .lattice import checkerboard_mask, grid_to_plain, plain_to_grid
from .update import metropolis_flip

__all__ = ["CheckerboardUpdater"]


class CheckerboardUpdater:
    """Stateless driver for Algorithm 1 sweeps.

    Parameters
    ----------
    beta:
        Inverse temperature (J = 1, k_B = 1).
    backend:
        Op executor; defaults to a pure float32 numpy backend.
    block_shape:
        (r, c) of the grid blocks; 128 x 128 on the real device.
    fused:
        When true, sweeps run the fused engine: acceptance probabilities
        come from a precomputed :class:`AcceptanceTable` gather and every
        intermediate lives in a reusable :class:`SweepWorkspace`, so
        steady-state sweeps allocate nothing and **mutate the grid in
        place** (bit-identical trajectories to the elementwise path).
    """

    def __init__(
        self,
        beta: float | np.ndarray,
        backend: Backend | None = None,
        block_shape: tuple[int, int] = (128, 128),
        field: float = 0.0,
        fused: bool = False,
    ) -> None:
        if np.any(np.asarray(beta) <= 0):
            raise ValueError(f"beta must be positive, got {beta}")
        # Scalar for a single chain; a (batch, 1, 1, 1, 1) broadcast array
        # when driving a batched ensemble at per-chain temperatures.
        self.beta = float(beta) if np.ndim(beta) == 0 else np.asarray(beta, dtype=np.float64)
        self.field = float(field)
        self.backend = backend if backend is not None else NumpyBackend()
        self.block_shape = tuple(block_shape)
        self.fused = bool(fused)
        self._mask_cache: dict[tuple[int, int, int, int], dict[str, np.ndarray]] = {}
        self._workspace: SweepWorkspace | None = None
        self._accept_table: AcceptanceTable | None = None

    @property
    def workspace(self) -> SweepWorkspace | None:
        """The fused engine's scratch workspace (None until first use)."""
        return self._workspace

    def _fused_ctx(self) -> tuple[AcceptanceTable, SweepWorkspace]:
        if self._workspace is None:
            self._workspace = SweepWorkspace()
        if self._accept_table is None:
            self._accept_table = AcceptanceTable(
                self.backend, self.beta, field=self.field
            )
        return self._accept_table, self._workspace

    def retemper(self, beta: float | np.ndarray) -> None:
        """Swap in new (per-chain) inverse temperatures, in place.

        Keeps the workspace (its buffers are beta-independent) and drops
        only the acceptance table, so replica-exchange swap rounds pay a
        table rebuild instead of a full updater rebuild.  Callers holding
        a traced executor must ``rebind`` it afterwards.
        """
        if np.any(np.asarray(beta) <= 0):
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = float(beta) if np.ndim(beta) == 0 else np.asarray(beta, dtype=np.float64)
        self._accept_table = None

    def _masks(self, grid_shape: tuple[int, ...]) -> dict[str, np.ndarray]:
        """Colour masks ``M`` / ``1 - M`` in grid form, cached per shape.

        Masks depend only on the trailing ``(m, n, r, c)`` geometry; a
        batched grid broadcasts the rank-4 mask over its chain axis.
        """
        key = tuple(grid_shape[-4:])
        masks = self._mask_cache.get(key)
        if masks is None:
            m, n, r, c = key
            plain_shape = (m * r, n * c)
            masks = {
                color: self.backend.array(
                    plain_to_grid(checkerboard_mask(plain_shape, color), (r, c))
                )
                for color in ("black", "white")
            }
            self._mask_cache[key] = masks
        return masks

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
        if self.fused:
            table, ws = self._fused_ctx()
            if probs is None:
                if stream is None:
                    raise ValueError("either stream or probs must be provided")
                probs = ws.buffer("probs", grid.shape)
                self.backend.uniform_into(stream, probs)
            elif probs.shape != grid.shape:
                raise ValueError(
                    f"probs shape {probs.shape} != grid shape {grid.shape}"
                )
            nn = neighbor_sum_grid_into(grid, self.backend, ws)
            mask = self._masks(grid.shape)[color]
            return fused_metropolis_flip(
                self.backend, grid, nn, probs, table, ws, mask=mask
            )
        if probs is None:
            if stream is None:
                raise ValueError("either stream or probs must be provided")
            probs = self.backend.random_uniform(grid.shape, stream)
        elif probs.shape != grid.shape:
            raise ValueError(f"probs shape {probs.shape} != grid shape {grid.shape}")
        nn = neighbor_sum_grid(grid, self.backend)
        mask = self._masks(grid.shape)[color]
        return metropolis_flip(
            self.backend, grid, nn, probs, self.beta, mask=mask, field=self.field
        )

    def sweep(
        self,
        grid: np.ndarray,
        stream: PhiloxStream | None = None,
        probs_black: np.ndarray | None = None,
        probs_white: np.ndarray | None = None,
    ) -> np.ndarray:
        """One full sweep: a black phase followed by a white phase."""
        grid = self.update_color(grid, "black", stream, probs_black)
        return self.update_color(grid, "white", stream, probs_white)

    # -- plain-lattice conveniences ---------------------------------------

    def to_state(self, plain: np.ndarray) -> np.ndarray:
        """Convert a plain lattice into this updater's grid state.

        A ``(batch, rows, cols)`` stack of chains becomes the rank-5
        batched grid ``[batch, m, n, r, c]``.
        """
        return self.backend.array(plain_to_grid(plain, self.block_shape))

    def to_plain(self, grid: np.ndarray) -> np.ndarray:
        return grid_to_plain(grid)

    def sweep_plain(
        self, plain: np.ndarray, stream: PhiloxStream
    ) -> np.ndarray:
        """One sweep on a plain lattice (converting in and out)."""
        return self.to_plain(self.sweep(self.to_state(plain), stream))
