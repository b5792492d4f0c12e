"""The fused sweep engine: preallocated workspaces + in-place flips.

Profiling the updaters shows the steady-state sweep cost is dominated not
by arithmetic but by allocation traffic: every colour phase of the
elementwise path materialises ~7 lattice-sized temporaries (neighbour
sums, uniforms, the exp, the flip mask, the delta chain).  The fused
engine keeps one :class:`SweepWorkspace` of named scratch buffers per
updater and routes every step through the backend's ``*_into`` vocabulary
so that, after the first sweep warms the workspace, steady-state sweeps
perform **zero** heap allocation while producing bit-identical spin
trajectories (each ``*_into`` op computes exactly what the elementwise
ops it stands for compute, and the acceptance probabilities come from
an :class:`~repro.core.accept.AcceptanceTable` built with the very same
backend op sequence).

:class:`FloatUpdater` is what the float updaters (checkerboard, compact,
conv, masked conv) share: the beta check, the default backend, the
workspace and acceptance table of the fused engine, one step that draws
or checks a colour phase's uniforms, the black-then-white sweep, and
``retemper``, which rewrites the table in place so a recorded sweep
replays at the new temperatures.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import Backend
from ..backend.numpy_backend import NumpyBackend
from ..rng.streams import PhiloxStream
from .accept import AcceptanceTable

__all__ = [
    "FloatUpdater",
    "SIGN_BIT",
    "SweepWorkspace",
    "fused_metropolis_flip",
    "record_fused_metrics",
    "sign_mask_of",
]

#: The float32 sign bit: the mask that lets every site flip.  A 0-d
#: array, which a ufunc takes faster than a numpy scalar.
SIGN_BIT = np.array(0x80000000, dtype=np.uint32)
SIGN_BIT.flags.writeable = False


class SweepWorkspace:
    """Named, shape-keyed scratch buffers reused across sweeps.

    ``buffer(name, shape, dtype)`` returns the same array on every call
    with the same key, so the first sweep allocates and every later sweep
    runs allocation-free: a steady state shows a constant
    :attr:`n_buffers`.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def buffer(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: "np.dtype | type" = np.float32,
    ) -> np.ndarray:
        """Get-or-create the scratch array for ``(name, shape, dtype)``."""
        key = (name, tuple(shape), np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(key[1], dtype=dtype)
            self._buffers[key] = buf
        return buf

    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the scratch buffers."""
        return int(sum(b.nbytes for b in self._buffers.values()))


def _checked_beta(beta: "float | np.ndarray") -> "float | np.ndarray":
    """A float for one chain, a float64 array for per-chain betas."""
    if np.any(np.asarray(beta) <= 0):
        raise ValueError(f"beta must be positive, got {beta}")
    return float(beta) if np.ndim(beta) == 0 else np.asarray(beta, dtype=np.float64)


class FloatUpdater:
    """The contract every float checkerboard updater shares.

    Parameters
    ----------
    beta:
        Inverse temperature (J = 1, k_B = 1): a scalar for one chain, or
        an array shaped to broadcast against a batched state (one beta
        per chain) when driving an ensemble.
    backend:
        Op executor; defaults to a pure float32 numpy backend.
    field:
        External magnetic field h.
    fused:
        When true, sweeps run the fused engine: acceptance probabilities
        come from a table gather and every intermediate lives in a
        reusable :class:`SweepWorkspace`, so steady-state sweeps allocate
        nothing and **mutate the state in place** (bit-identical
        trajectories to the elementwise path).

    A subclass supplies ``update_color(state, color, stream, probs)``
    (one colour phase), its colour masks and ``to_state`` / ``to_plain``.
    """

    def __init__(
        self,
        beta: "float | np.ndarray",
        backend: Backend | None = None,
        field: float = 0.0,
        fused: bool = False,
    ) -> None:
        self.beta = _checked_beta(beta)
        self.backend = backend if backend is not None else NumpyBackend()
        self.field = float(field)
        self.fused = bool(fused)
        self._workspace: SweepWorkspace | None = None
        self._table = None
        self._mask_cache: dict[tuple, dict[str, tuple]] = {}

    @property
    def workspace(self) -> SweepWorkspace | None:
        """The fused engine's scratch workspace (None until first use)."""
        return self._workspace

    def _make_table(self):
        """The acceptance table of the fused engine at ``self.beta``."""
        return AcceptanceTable(self.backend, self.beta, field=self.field)

    def _colour_masks(self, key: tuple, mask_of) -> dict[str, tuple]:
        """Per colour: the float mask ``mask_of(color)`` and its sign mask.

        Cached under ``key``.  The uint32 :func:`sign_mask_of` the fused
        flip reads is built once beside the float mask, on a fused
        updater only (``None`` otherwise: building it measured 15% slower
        elementwise 512^2 sweeps, which allocate per op).
        """
        masks = self._mask_cache.get(key)
        if masks is None:
            masks = {}
            for color in ("black", "white"):
                mask = self.backend.array(mask_of(color))
                masks[color] = (mask, sign_mask_of(mask) if self.fused else None)
            self._mask_cache[key] = masks
        return masks

    def _fused_ctx(self) -> "tuple[AcceptanceTable, SweepWorkspace]":
        if self._workspace is None:
            self._workspace = SweepWorkspace()
        if self._table is None:
            self._table = self._make_table()
        return self._table, self._workspace

    def retemper(self, beta: "float | np.ndarray") -> None:
        """Set new (per-chain) inverse temperatures, in place.

        The workspace stays, and a built acceptance table is refilled in
        place rather than rebuilt: a recorded sweep reads the very arrays
        it held when recording, so it replays at the new temperatures.
        The chain count cannot change.
        """
        self.beta = _checked_beta(beta)
        if self._table is not None:
            self._table.retemper(self.beta)

    def _uniforms(
        self,
        shape: tuple[int, ...],
        stream: PhiloxStream | None,
        probs,
        name: str,
        count: "int | None" = None,
    ):
        """A colour phase's uniforms: ``probs`` checked, or drawn.

        ``name`` names the fused engine's workspace buffer.  With
        ``count`` the phase draws ``count`` tensors of ``shape``, in
        order, and ``probs`` is a sequence of that many: the fused
        engine draws them into the rows of one ``(count, *shape)``
        buffer and returns it, the elementwise engine returns a tuple.
        The fused engine's workspace and table are built first, as every
        fused phase needs.
        """
        if self.fused:
            _, ws = self._fused_ctx()
        if probs is not None:
            given = probs if count else (probs,)
            if any(p.shape != shape for p in given):
                raise ValueError(
                    f"probs shape{'s' if count else ''} "
                    f"{', '.join(str(p.shape) for p in given)} != state shape {shape}"
                )
            return probs
        if stream is None:
            raise ValueError("either stream or probs must be provided")
        if self.fused:
            out = ws.buffer(name, shape if count is None else (count,) + shape)
            for rows in out if count else (out,):
                self.backend.uniform_into(stream, rows)
            return out
        drawn = tuple(
            self.backend.random_uniform(shape, stream) for _ in range(count or 1)
        )
        return drawn if count else drawn[0]

    def sweep(
        self,
        state,
        stream: PhiloxStream | None = None,
        probs_black=None,
        probs_white=None,
    ):
        """One full sweep: a black phase followed by a white phase."""
        state = self.update_color(state, "black", stream, probs_black)
        return self.update_color(state, "white", stream, probs_white)

    def sweep_plain(self, plain: np.ndarray, stream: PhiloxStream) -> np.ndarray:
        """One sweep on a plain lattice (converting in and out)."""
        return self.to_plain(self.sweep(self.to_state(plain), stream))


def sign_mask_of(mask: np.ndarray) -> np.ndarray:
    """A 0/1 colour mask as the uint32 sign mask of :meth:`Backend.flip_below_into`.

    ``0x80000000`` where the mask is 1, 0 where it is 0.  Built once per
    cached colour mask: a replay runs backend ops only, so a mask written
    outside one would not be rewritten per sweep.
    """
    return np.where(mask != 0, SIGN_BIT, np.uint32(0))


def fused_metropolis_flip(
    backend: Backend,
    sigma: np.ndarray,
    nn: np.ndarray,
    probs: np.ndarray,
    table: AcceptanceTable,
    workspace: SweepWorkspace,
    sign_mask: np.ndarray | None = None,
) -> np.ndarray:
    """In-place Metropolis step: table gather + sign-bit flip.

    Mutates ``sigma`` and returns it.  Bit-identical to
    :func:`~repro.core.update.metropolis_flip` fed the same operands:
    the gathered probability equals the elementwise
    ``exp(-2 beta sigma (nn + h))`` by the table's construction, and
    :meth:`~repro.backend.base.Backend.flip_below_into` negates exactly
    the spins the elementwise ``probs < ratio`` flips.

    ``nn`` must hold the *raw* integer neighbour sums — any external
    field is folded into the table entries, not into ``nn``.
    ``sign_mask`` is :func:`sign_mask_of` of a colour mask, or ``None``
    to let every site flip.
    """
    if sigma.shape != nn.shape or sigma.shape != probs.shape:
        raise ValueError(
            f"shape mismatch: sigma {sigma.shape}, nn {nn.shape}, "
            f"probs {probs.shape}"
        )
    if sign_mask is None:
        sign_mask = SIGN_BIT
    else:
        trailing = (
            sigma.shape[sigma.ndim - sign_mask.ndim:]
            if sign_mask.ndim <= sigma.ndim
            else None
        )
        if sign_mask.shape != sigma.shape and sign_mask.shape != trailing:
            raise ValueError(
                f"mask shape {sign_mask.shape} does not match sigma shape "
                f"{sigma.shape}: the mask must equal the spin shape or its "
                f"trailing dimensions (per-chain broadcast)"
            )

    # The ratio buffer is the index arithmetic's scratch first.
    ratio = workspace.buffer("flip_ratio", sigma.shape)
    idx = workspace.buffer("flip_idx", sigma.shape, np.intp)
    backend.acceptance_index_into(sigma, nn, idx, ratio, table.offsets)
    backend.take_into(table.entries, idx, ratio)
    return backend.flip_below_into(probs, ratio, sign_mask, sigma)


def record_fused_metrics(registry, *updaters) -> None:
    """Publish the scratch memory the fused engine holds.

    Sums over every updater that exposes a warmed ``workspace`` (solo
    or batched); updaters running the elementwise path contribute
    zeros, so the gauges are always present and comparable across
    runs.
    """
    ws_bytes = 0
    ws_buffers = 0
    for updater in updaters:
        ws = getattr(updater, "workspace", None)
        if ws is None:
            continue
        ws_bytes += ws.nbytes
        ws_buffers += ws.n_buffers
    registry.gauge("fused_workspace_bytes").set(ws_bytes)
    registry.gauge("fused_workspace_buffers").set(ws_buffers)
