"""Algorithm 2: the optimized compact checkerboard updater (``UpdateOptim``).

The lattice lives as four interleaved compact sub-lattices (see
:class:`~repro.core.lattice.CompactLattice`).  Per colour phase only the
two active tensors draw uniforms and get updated, and only the two
opposite-colour tensors are read for neighbour sums — eliminating the
masking, the wasted RNG and the wasted matmuls of Algorithm 1.  The paper
measures this at about 3x faster with a smaller HBM footprint.

The updater also exposes the per-phase halo hook used by the distributed
pod simulation: :meth:`update_color` takes a
:class:`~repro.core.kernels.PhaseHalos` that replaces the local torus
wrap with boundary rows/columns received from neighbouring cores.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import Backend
from ..backend.numpy_backend import NumpyBackend
from ..rng.streams import BatchedPhiloxStream, PhiloxStream
from .accept import AcceptanceTable
from .fused import SweepWorkspace, fused_metropolis_flip
from .kernels import PhaseHalos, compact_neighbor_sums, compact_neighbor_sums_into
from .lattice import CompactLattice
from .update import metropolis_flip

__all__ = ["CompactUpdater"]


class CompactUpdater:
    """Stateless driver for Algorithm 2 sweeps over a CompactLattice.

    With ``fused=True`` sweeps run the fused engine: table-gathered
    acceptance probabilities and workspace-backed in-place kernels, so
    steady-state sweeps allocate nothing and the active sub-lattices are
    **mutated in place** (trajectories stay bit-identical).
    """

    def __init__(
        self,
        beta: float | np.ndarray,
        backend: Backend | None = None,
        block_shape: tuple[int, int] | None = (128, 128),
        nn_method: str = "matmul",
        field: float = 0.0,
        fused: bool = False,
    ) -> None:
        if np.any(np.asarray(beta) <= 0):
            raise ValueError(f"beta must be positive, got {beta}")
        if nn_method not in ("matmul", "conv"):
            raise ValueError(
                f"nn_method must be 'matmul' or 'conv', got {nn_method!r}"
            )
        # Scalar for a single chain; a (batch, 1, 1, 1, 1) broadcast array
        # when driving a batched ensemble at per-chain temperatures.
        self.beta = float(beta) if np.ndim(beta) == 0 else np.asarray(beta, dtype=np.float64)
        self.backend = backend if backend is not None else NumpyBackend()
        self.block_shape = tuple(block_shape) if block_shape is not None else None
        self.nn_method = nn_method
        self.field = float(field)
        self.fused = bool(fused)
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

    def update_color(
        self,
        lat: CompactLattice,
        color: str,
        stream: PhiloxStream | None = None,
        probs: tuple[np.ndarray, np.ndarray] | None = None,
        halos: PhaseHalos | None = None,
    ) -> CompactLattice:
        """One colour phase of Algorithm 2.

        Parameters
        ----------
        lat:
            Current compact state.
        color:
            "black" updates (s00, s11); "white" updates (s01, s10).
        stream:
            Uniform source; draws two tensors shaped like the active
            sub-lattices (probs0 for s00/s01, then probs1 for s11/s10 —
            the draw order of Algorithm 2 lines 1-2).
        probs:
            Explicit (probs0, probs1) overriding the stream, for
            deterministic cross-implementation tests.
        halos:
            Optional inter-core boundary values (distributed mode).

        Returns a new CompactLattice; the two passive tensors are shared
        with the input (they are unchanged by construction).  In fused
        mode the two *active* tensors are updated in place and the input
        lattice itself is returned.
        """
        shape = lat.grid_shape
        if self.fused:
            return self._update_color_fused(lat, color, stream, probs, halos)
        if probs is None:
            if stream is None:
                raise ValueError("either stream or probs must be provided")
            probs0 = self.backend.random_uniform(shape, stream)
            probs1 = self.backend.random_uniform(shape, stream)
        else:
            probs0, probs1 = probs
            if probs0.shape != shape or probs1.shape != shape:
                raise ValueError(
                    f"probs shapes {probs0.shape}, {probs1.shape} != grid shape {shape}"
                )

        nn0, nn1 = compact_neighbor_sums(
            lat, color, self.backend, halos=halos, method=self.nn_method
        )
        if color == "black":
            new00 = metropolis_flip(
                self.backend, lat.s00, nn0, probs0, self.beta, field=self.field
            )
            new11 = metropolis_flip(
                self.backend, lat.s11, nn1, probs1, self.beta, field=self.field
            )
            return CompactLattice(s00=new00, s01=lat.s01, s10=lat.s10, s11=new11)
        new01 = metropolis_flip(
            self.backend, lat.s01, nn0, probs0, self.beta, field=self.field
        )
        new10 = metropolis_flip(
            self.backend, lat.s10, nn1, probs1, self.beta, field=self.field
        )
        return CompactLattice(s00=lat.s00, s01=new01, s10=new10, s11=lat.s11)

    def _update_color_fused(
        self,
        lat: CompactLattice,
        color: str,
        stream: PhiloxStream | None,
        probs: tuple[np.ndarray, np.ndarray] | None,
        halos: PhaseHalos | None,
    ) -> CompactLattice:
        """Fused colour phase: in-place kernels, table-gathered acceptance."""
        table, ws = self._fused_ctx()
        shape = lat.grid_shape
        if probs is None:
            if stream is None:
                raise ValueError("either stream or probs must be provided")
            probs0 = ws.buffer("probs0", shape)
            probs1 = ws.buffer("probs1", shape)
            # Two draws in the elementwise path's order (see sweep() for
            # why one draw of both is the same words when aligned).
            self.backend.uniform_into(stream, probs0)
            self.backend.uniform_into(stream, probs1)
        else:
            probs0, probs1 = probs
            if probs0.shape != shape or probs1.shape != shape:
                raise ValueError(
                    f"probs shapes {probs0.shape}, {probs1.shape} != grid shape {shape}"
                )
        nn0, nn1 = compact_neighbor_sums_into(
            lat, color, self.backend, ws, halos=halos, method=self.nn_method
        )
        if color == "black":
            fused_metropolis_flip(self.backend, lat.s00, nn0, probs0, table, ws)
            fused_metropolis_flip(self.backend, lat.s11, nn1, probs1, table, ws)
        else:
            fused_metropolis_flip(self.backend, lat.s01, nn0, probs0, table, ws)
            fused_metropolis_flip(self.backend, lat.s10, nn1, probs1, table, ws)
        return lat

    def sweep(
        self,
        lat: CompactLattice,
        stream: PhiloxStream | None = None,
        probs_black: tuple[np.ndarray, np.ndarray] | None = None,
        probs_white: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> CompactLattice:
        """One full sweep: black phase then white phase.

        A fused sweep driven by a stream draws the uniforms of all four
        sub-lattices with one ``uniform_into``: black (probs0, probs1)
        then white (probs0, probs1), the per-phase draw order.  Uniforms
        do not depend on the state, and a draw of ``k * n`` words with
        ``n % 4 == 0`` consumes exactly the counter blocks of ``k``
        consecutive ``n``-word draws, so the words, and the counter
        advance, are those of four per-phase draws.  A batched state
        merges only under a :class:`BatchedPhiloxStream`, where each
        chain draws its own four sub-lattices in order; a solo stream
        spreads one draw across the chains, so the merged layout would
        hand them different words.  When a sub-lattice's word count is
        not a multiple of 4, a solo stream drives a batched state, or
        explicit probs are given, each phase draws for itself.
        """
        lead = lat.grid_shape[:-4]
        grid = lat.grid_shape[-4:]
        if (
            self.fused
            and stream is not None
            and probs_black is None
            and probs_white is None
            and int(np.prod(grid)) % 4 == 0
            and (not lead or isinstance(stream, BatchedPhiloxStream))
        ):
            _, ws = self._fused_ctx()
            probs = ws.buffer("probs", lead + (4,) + grid)
            self.backend.uniform_into(stream, probs)
            probs_black = (probs[..., 0, :, :, :, :], probs[..., 1, :, :, :, :])
            probs_white = (probs[..., 2, :, :, :, :], probs[..., 3, :, :, :, :])
        lat = self.update_color(lat, "black", stream, probs_black)
        return self.update_color(lat, "white", stream, probs_white)

    # -- plain-lattice conveniences ---------------------------------------

    def to_state(self, plain: np.ndarray) -> CompactLattice:
        """Convert a plain lattice into compact grid state.

        A 2D lattice yields the rank-4 grid form; a ``(batch, rows,
        cols)`` stack of independent chains yields the batched rank-5
        form (one shared geometry, one chain per leading index).
        """
        block = self._block_for(plain.shape)
        if plain.ndim == 3:
            lat = CompactLattice.stack(
                [CompactLattice.from_plain(p, block) for p in plain]
            )
        else:
            lat = CompactLattice.from_plain(plain, block)
        return CompactLattice(
            s00=self.backend.array(lat.s00),
            s01=self.backend.array(lat.s01),
            s10=self.backend.array(lat.s10),
            s11=self.backend.array(lat.s11),
        )

    def _block_for(self, plain_shape: tuple[int, ...]) -> tuple[int, int]:
        if self.block_shape is not None:
            return self.block_shape
        return plain_shape[-2] // 2, plain_shape[-1] // 2

    @staticmethod
    def to_plain(lat: CompactLattice) -> np.ndarray:
        return lat.to_plain()

    def sweep_plain(self, plain: np.ndarray, stream: PhiloxStream) -> np.ndarray:
        """One sweep on a plain lattice (converting in and out)."""
        return self.to_plain(self.sweep(self.to_state(plain), stream))
