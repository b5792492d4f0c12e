"""The packed sweep engine: 64 spins per word, bitwise Metropolis.

This is :mod:`repro.baselines.multispin` promoted to a first-class
engine behind the backend vocabulary (ROADMAP item 1): the lattice is
stored as four bit-packed compact quarters (``dtype="packed"``), the
neighbour disagreement count ``k`` comes from bitwise full adders, and
the Metropolis rule collapses to three cases — always flip for
``k >= 2`` (``dE <= 0``), flip with probability ``exp(-4 beta)`` for
``k == 1`` and ``exp(-8 beta)`` for ``k == 0``.  Every step routes
through the backend's ``packed_*`` ``*_into`` kernels with a
:class:`~repro.core.fused.SweepWorkspace`, so steady-state sweeps
allocate nothing (the fused-engine contract) and replay under the
traced executor.

Randomness comes in two forms (``docs/packed_engine.md`` has the full
contract):

* **stream mode** — each site consumes a 16-bit Philox lane (two sites
  per generated word), compared against the integer threshold
  ``ceil(t * 2**16)``.  Acceptance probabilities are quantized to
  1/65536 steps (|error| < 2**-16 — invisible to any observable this
  repo measures) and the generator does *half* the work of the float
  chains; this mode is what clears the flips/sec gate.
* **explicit ``probs``** — caller-supplied per-site float32 uniforms,
  compared against the same float32 thresholds as
  :class:`~repro.baselines.multispin.MultispinUpdater`; the CI-gated
  bit-identity invariant against the unpacked checkerboard chain runs
  through this path.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import Backend
from ..backend.numpy_backend import NumpyBackend
from ..backend.packed_ops import packed_threshold, site_values_u16
from ..rng.streams import BatchedPhiloxStream, PhiloxStream
from ..tpu.dtypes import PACKED
from .fused import SweepWorkspace
from .lattice import plain_to_quarters, quarters_to_plain

__all__ = ["PackedState", "PackedUpdater"]

_WORD = 64

#: Bits of Philox randomness a stream-mode site consumes: one 16-bit
#: lane of a 32-bit word.  Packed checkpoints record it as ``rng_bits``.
RNG_BITS = 16

#: (active quarter, passive plane a, a-shift, passive plane b, b-shift)
#: per colour, in Algorithm 2's draw order.  Shifts are ("col", +1) for
#: the column-(j-1) plane (word carry), ("col", -1) for column-(j+1),
#: ("row", +1) / ("row", -1) for the row neighbours (pure rolls).
_PHASES = {
    "black": (
        ("w00", "w01", ("col", 1), "w10", ("row", 1)),
        ("w11", "w01", ("row", -1), "w10", ("col", -1)),
    ),
    "white": (
        ("w01", "w00", ("col", -1), "w11", ("row", 1)),
        ("w10", "w00", ("row", -1), "w11", ("col", 1)),
    ),
}


class PackedState:
    """Bit-packed compact lattice: four quarter word planes.

    Each plane is ``(rows/2, cols/128)`` uint64 (solo) or
    ``(B, rows/2, cols/128)`` (batched ensembles), bit ``j`` of word
    ``w`` holding quarter column ``64*w + j`` — the representation of
    :class:`~repro.baselines.multispin.MultispinState`, with leading
    batch axes allowed.
    """

    def __init__(
        self,
        w00: np.ndarray,
        w01: np.ndarray,
        w10: np.ndarray,
        w11: np.ndarray,
        quarter_shape: tuple[int, int],
    ) -> None:
        self.w00 = w00
        self.w01 = w01
        self.w10 = w10
        self.w11 = w11
        self.quarter_shape = (int(quarter_shape[0]), int(quarter_shape[1]))

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """Leading batch axes (empty for a solo chain)."""
        return self.w00.shape[:-2]

    @property
    def planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.w00, self.w01, self.w10, self.w11)


class PackedUpdater:
    """Checkerboard Metropolis on bit-packed spins via backend word kernels.

    Parameters
    ----------
    beta:
        Inverse temperature — a positive scalar, or a ``(B,)`` vector for
        batched ensembles (chain ``b`` uses ``beta[b]``).
    backend:
        A numpy :class:`~repro.backend.base.Backend`; defaults to one
        with the ``packed`` dtype.  The packed kernels book no modeled
        cost, and :func:`~repro.core.config.check_config` refuses the
        packed dtype on the TPU cost model.
    field:
        Must be ``0.0`` — the three-case collapse assumes ``h = 0``
        (with a field the acceptance ratio depends on ``sigma``, not
        just on the disagreement count).

    The plain-lattice width must be a multiple of 128 so each quarter
    packs into whole 64-bit words.
    """

    def __init__(
        self,
        beta: "float | np.ndarray",
        backend: Backend | None = None,
        field: float = 0.0,
    ) -> None:
        beta_arr = np.asarray(beta, dtype=np.float64)
        if beta_arr.ndim > 1:
            raise ValueError(f"beta must be a scalar or 1-D vector, got shape {beta_arr.shape}")
        if field:
            raise ValueError(
                "the packed engine has no field support: the three-case "
                f"Metropolis collapse assumes h = 0 (got field={field!r}); "
                "use dtype='float32' for h != 0"
            )
        self.backend = backend if backend is not None else NumpyBackend(PACKED)
        self.field = 0.0
        self._held = self._thresholds(beta_arr)
        k1, k0, lane_k1, lane_k0, sat_k1, sat_k0 = self._held
        # (threshold, saturation word) of the k == 1 and k == 0 cases;
        # explicit probs compare float32 and never saturate.
        no_sat = np.zeros_like(sat_k1)
        self._stream_cases = ((lane_k1, sat_k1), (lane_k0, sat_k0))
        self._probs_cases = ((k1, no_sat), (k0, no_sat))
        self.beta = float(beta_arr) if beta_arr.ndim == 0 else beta_arr

        self._workspace = SweepWorkspace()
        self._views: dict[tuple, np.ndarray] = {}

    @property
    def workspace(self) -> SweepWorkspace:
        """Scratch workspace (exposed for telemetry, like the fused engine)."""
        return self._workspace

    def _thresholds(self, beta_arr: np.ndarray) -> tuple[np.ndarray, ...]:
        """Float k1, k0 thresholds, lane k1, k0 thresholds, k1, k0 saturation words.

        0-d arrays for a scalar beta; ``(B, 1, 1)`` for a ``(B,)`` vector,
        to broadcast over the ``(B, rows, cols)`` planes.
        """
        if not np.all(beta_arr > 0):
            raise ValueError(f"beta must be positive, got {beta_arr}")
        # Thresholds through the exact float32 expression of the float
        # chains: exp(float32(-2 beta) * float32(sigma * nn)).
        factor = (np.float32(-2.0) * beta_arr.astype(np.float32)).astype(np.float32)
        k1 = np.exp(factor * np.float32(2.0))  # sigma*nn = +2
        k0 = np.exp(factor * np.float32(4.0))  # sigma*nn = +4
        # Integer comparison space for stream mode: uint16 lanes against
        # ceil(t * 2**16) in the lanes' own width; a ceiling of 2**16
        # rides in the saturation word.
        lane_k1, sat_k1 = packed_threshold(k1)
        lane_k0, sat_k0 = packed_threshold(k0)
        thresholds = (k1, k0, lane_k1, lane_k0, sat_k1, sat_k0)
        shape = beta_arr.shape + (1, 1) if beta_arr.ndim else ()
        return tuple(np.asarray(t).reshape(shape) for t in thresholds)

    def retemper(self, beta: "float | np.ndarray") -> None:
        """New inverse temperatures, written into the thresholds in place.

        A recorded sweep reads the very threshold arrays it held when
        recording, so it replays at the new temperatures.  The chain
        count cannot change.
        """
        beta_arr = np.asarray(beta, dtype=np.float64)
        new = self._thresholds(beta_arr)
        if new[0].shape != self._held[0].shape:
            raise ValueError(
                f"thresholds are shaped {self._held[0].shape}, got beta shaped "
                f"{beta_arr.shape}"
            )
        for out, value in zip(self._held, new):
            np.copyto(out, value)
        self.beta = float(beta_arr) if beta_arr.ndim == 0 else beta_arr

    # -- state conversion --------------------------------------------------

    def to_state(self, plain: np.ndarray) -> PackedState:
        """Pack a plain ±1 lattice — ``(rows, cols)`` or ``(B, rows, cols)``.

        Boundary op: allocates (via
        :func:`~repro.baselines.multispin.pack_bits`), so it never
        appears in the sweep hot path.
        """
        from ..baselines.multispin import pack_bits

        plain = np.asarray(plain, dtype=np.float32)
        if plain.ndim not in (2, 3):
            raise ValueError(f"plain lattice must be 2-D or (B, rows, cols), got shape {plain.shape}")
        if plain.shape[-1] % (2 * _WORD):
            raise ValueError(
                f"packed dtype needs the lattice width to be a multiple of "
                f"{2 * _WORD} (each compact quarter packs into whole "
                f"{_WORD}-bit words), got {plain.shape[-1]}"
            )
        if plain.ndim == 2:
            quarters = plain_to_quarters(plain)
            planes = [pack_bits((q > 0).astype(np.uint8)) for q in quarters]
            return PackedState(*planes, quarter_shape=quarters[0].shape)
        per_chain = [self.to_state(chain) for chain in plain]
        return PackedState(
            *(
                np.stack([getattr(s, name) for s in per_chain])
                for name in ("w00", "w01", "w10", "w11")
            ),
            quarter_shape=per_chain[0].quarter_shape,
        )

    def to_plain(self, state: PackedState) -> np.ndarray:
        """Unpack back to a plain ±1 float32 lattice (boundary op)."""
        cols = state.quarter_shape[1]
        if state.batch_shape:
            return np.stack(
                [
                    self.to_plain(
                        PackedState(
                            state.w00[b],
                            state.w01[b],
                            state.w10[b],
                            state.w11[b],
                            state.quarter_shape,
                        )
                    )
                    for b in range(state.w00.shape[0])
                ]
            )
        from ..baselines.multispin import unpack_bits

        quarters = [
            (2.0 * unpack_bits(w, cols).astype(np.float32)) - 1.0
            for w in state.planes
        ]
        return quarters_to_plain(*quarters)

    # -- stream-mode draws -------------------------------------------------

    def _draw_values(
        self,
        stream: "PhiloxStream | BatchedPhiloxStream",
        state: PackedState,
    ) -> np.ndarray:
        """Draw one quarter's worth of acceptance lanes, allocation-free.

        Returns the site-shaped 16-bit lanes, a view of a workspace
        buffer of ``sites / 2`` Philox words.
        """
        qr, qc = state.quarter_shape
        site_shape = state.batch_shape + (qr, qc)
        bits = self._workspace.buffer(
            "pbits", state.batch_shape + (qr * qc // 2,), np.uint32
        )
        self.backend.packed_bits_into(stream, bits)
        key = (bits.shape, site_shape)
        view = self._views.get(key)
        if view is None:
            view = site_values_u16(bits, site_shape)
            self._views[key] = view
        return view

    # -- phases ------------------------------------------------------------

    def _flip_quarter(
        self,
        state: PackedState,
        spins: np.ndarray,
        plane_a: np.ndarray,
        shift_a: tuple[str, int],
        plane_b: np.ndarray,
        shift_b: tuple[str, int],
        values: np.ndarray,
        cases: tuple,
    ) -> None:
        """Update one packed quarter in place from its neighbour planes."""
        be = self.backend
        ws = self._workspace
        wshape = spins.shape
        qc = state.quarter_shape[1]
        site_shape = state.batch_shape + (state.quarter_shape[0], qc)

        def wbuf(name):
            return ws.buffer(name, wshape, np.uint64)

        # Acceptance words for the two stochastic cases.
        cmp = ws.buffer("pcmp", site_shape, bool)
        byte_plane = ws.buffer("pbytes", site_shape[:-1] + (qc // 8,), np.uint8)
        (t1, sat1), (t0, sat0) = cases
        r1, r0 = wbuf("pr1"), wbuf("pr0")
        be.packed_compare_pack_into(values, t1, sat1, r1, cmp, byte_plane)
        be.packed_compare_pack_into(values, t0, sat0, r0, cmp, byte_plane)

        # Disagreement planes: d = spins ^ neighbour, with the shifted
        # neighbour plane built in the d buffer itself then XORed in place.
        d1, d2, d3, d4 = wbuf("pd1"), wbuf("pd2"), wbuf("pd3"), wbuf("pd4")
        tmp = wbuf("ptmp")
        be.packed_xor_into(spins, plane_a, d1)
        self._shift_into(plane_a, shift_a, d2, tmp)
        be.packed_xor_into(spins, d2, d2)
        be.packed_xor_into(spins, plane_b, d3)
        self._shift_into(plane_b, shift_b, d4, tmp)
        be.packed_xor_into(spins, d4, d4)

        # k = d1+d2+d3+d4 per bit lane, then the three-case flip mask.
        low, bit1, bit2 = wbuf("plow"), wbuf("pbit1"), wbuf("pbit2")
        s1, s2 = wbuf("ps1"), wbuf("ps2")
        be.packed_full_adder_into(d1, d2, d3, d4, low, bit1, bit2, s1, s2)
        flips = wbuf("pflips")
        be.packed_flip_select_into(low, bit1, bit2, r1, r0, flips, tmp)
        be.packed_xor_into(spins, flips, spins)

    def _shift_into(
        self,
        plane: np.ndarray,
        shift: tuple[str, int],
        out: np.ndarray,
        tmp: np.ndarray,
    ) -> None:
        kind, direction = shift
        if kind == "col":
            self.backend.packed_shift_cols_into(plane, direction, out, tmp)
        else:
            self.backend.roll_into(plane, direction, -2, out)

    def update_color(
        self,
        state: PackedState,
        color: str,
        stream: "PhiloxStream | BatchedPhiloxStream | None" = None,
        probs: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> PackedState:
        """One colour phase, in place on ``state``'s word planes.

        ``probs``, when given, are the two active quarters' float32
        uniforms ((q00, q11) for black, (q01, q10) for white) in
        Algorithm 2's order, shaped ``batch_shape + quarter_shape``;
        otherwise ``stream`` supplies 16-bit lanes.  Mutates and
        returns ``state`` (the packed engine is in-place only, like the
        fused float kernels).
        """
        if color not in _PHASES:
            raise ValueError(f"color must be 'black' or 'white', got {color!r}")
        if probs is None and stream is None:
            raise ValueError("either stream or probs must be provided")
        site_shape = state.batch_shape + state.quarter_shape
        if probs is not None:
            for p in probs:
                if p.shape != site_shape:
                    raise ValueError(
                        f"probs shapes {tuple(p.shape for p in probs)} != "
                        f"quarter {site_shape}"
                    )
        for i, (q, a, shift_a, b, shift_b) in enumerate(_PHASES[color]):
            values = (
                self._draw_values(stream, state)
                if probs is None
                else np.ascontiguousarray(probs[i], dtype=np.float32)
            )
            self._flip_quarter(
                state,
                getattr(state, q),
                getattr(state, a),
                shift_a,
                getattr(state, b),
                shift_b,
                values,
                self._stream_cases if probs is None else self._probs_cases,
            )
        return state

    def sweep(
        self,
        state: PackedState,
        stream: "PhiloxStream | BatchedPhiloxStream | None" = None,
        probs_black: "tuple[np.ndarray, np.ndarray] | None" = None,
        probs_white: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> PackedState:
        """One full lattice sweep (black then white), in place."""
        state = self.update_color(state, "black", stream, probs_black)
        return self.update_color(state, "white", stream, probs_white)

