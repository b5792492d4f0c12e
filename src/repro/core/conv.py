"""The appendix-7.2 convolution-based updaters.

The further-optimized implementation open-sourced with the paper replaces
the band matmuls of Algorithm 2 with ``tf.nn.conv2d``, which packs more
MXU work per memory load and (together with TF r1.15) yields an ~80%
throughput improvement (Table 6) while producing the same chain (Fig. 7).

Two variants are provided:

* :class:`ConvUpdater` — the production variant: identical to
  :class:`~repro.core.compact.CompactUpdater` (compact layout, halo
  hooks, no wasted RNG) but with the in-block neighbour sums computed by
  fused 2-tap convolutions.  Bit-identical chains to the matmul path;
  only the modeled device cost of the elementwise engine differs (the
  fused engine runs one program for both).
* :class:`MaskedConvUpdater` — the textbook formulation: one full-lattice
  cross-kernel convolution plus the colour mask ``M``.  Simple and
  correct but wasteful (full-lattice RNG and arithmetic per phase) — kept
  as the ablation partner quantifying what the compact layout buys.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import Backend
from ..rng.streams import PhiloxStream
from .accept import BondedAcceptance
from .compact import CompactUpdater
from .couplings import (
    BondCouplings,
    weighted_neighbor_sum,
    weighted_neighbor_sum_into,
)
from .fused import FloatUpdater, fused_metropolis_flip
from .lattice import checkerboard_mask
from .update import metropolis_flip

__all__ = ["ConvUpdater", "MaskedConvUpdater"]


class ConvUpdater(CompactUpdater):
    """Algorithm 2 with conv neighbour sums (the appendix implementation)."""

    def __init__(
        self,
        beta: float | np.ndarray,
        backend: Backend | None = None,
        block_shape: tuple[int, int] | None = (128, 128),
        field: float = 0.0,
        fused: bool = False,
    ) -> None:
        super().__init__(
            beta,
            backend,
            block_shape=block_shape,
            nn_method="conv",
            field=field,
            fused=fused,
        )


class MaskedConvUpdater(FloatUpdater):
    """Checkerboard Metropolis with a full-lattice conv and colour masks.

    State is the plain lattice.  Each colour phase computes the
    4-neighbour sum of *every* site with one wrap-around convolution,
    draws uniforms for every site, and masks the flips — the same
    redundancies Algorithm 1 has, with the conv replacing its matmuls.
    With disordered ``couplings`` the neighbour sum weighs each bond by
    its quenched J and acceptance goes through a
    :class:`~repro.core.accept.BondedAcceptance`.
    """

    def __init__(
        self,
        beta: float | np.ndarray,
        backend: Backend | None = None,
        field: float = 0.0,
        fused: bool = False,
        couplings: BondCouplings | None = None,
    ) -> None:
        # beta is a scalar for a single chain; a (batch, 1, 1) broadcast
        # array when driving a batched ensemble.
        super().__init__(beta, backend, field=field, fused=fused)
        # Ferro couplings collapse to None so the clean model keeps the
        # conv fast path and its exact historical bit-stream.
        if couplings is not None and couplings.kind == "ferro":
            couplings = None
        self.couplings = couplings

    def _make_table(self):
        if self.couplings is None:
            return super()._make_table()
        return BondedAcceptance(
            self.backend, self.beta, self.couplings, field=self.field
        )

    def _masks(self, shape: tuple[int, ...]) -> dict[str, tuple]:
        # Masks depend only on the trailing (rows, cols); a batched plain
        # lattice broadcasts the 2D masks over its chain axis.
        key = tuple(shape[-2:])
        return self._colour_masks(key, lambda color: checkerboard_mask(key, color))

    def update_color(
        self,
        plain: np.ndarray,
        color: str,
        stream: PhiloxStream | None = None,
        probs: np.ndarray | None = None,
    ) -> np.ndarray:
        """One colour phase: conv neighbour sum, then masked Metropolis.

        In fused mode the lattice is updated *in place* and returned.
        """
        probs = self._uniforms(plain.shape, stream, probs, "probs")
        mask, signs = self._masks(plain.shape)[color]
        if self.fused:
            table, ws = self._fused_ctx()
            if self.couplings is not None:
                nn = weighted_neighbor_sum_into(
                    self.backend, plain, self.couplings, ws
                )
                return table.flip_into(self.backend, plain, nn, probs, ws, signs)
            nn = ws.buffer("conv_nn", plain.shape)
            tmp = ws.buffer("conv_roll_tmp", plain.shape)
            self.backend.conv2d_neighbors_into(plain, nn, tmp)
            return fused_metropolis_flip(
                self.backend, plain, nn, probs, table, ws, signs
            )
        if self.couplings is not None:
            nn = weighted_neighbor_sum(self.backend, plain, self.couplings)
        else:
            nn = self.backend.conv2d_neighbors(plain)
        return metropolis_flip(
            self.backend, plain, nn, probs, self.beta, mask=mask, field=self.field
        )

    # -- uniform interface with the grid/compact updaters -------------------

    def to_state(self, plain: np.ndarray) -> np.ndarray:
        return self.backend.array(plain)

    @staticmethod
    def to_plain(state: np.ndarray) -> np.ndarray:
        # A copy: fused sweeps mutate the state in place, and callers
        # (simulation.lattice, samplers) must keep stable snapshots.
        return np.array(state, dtype=np.float32, copy=True)
