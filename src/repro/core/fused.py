"""The fused sweep engine: preallocated workspaces + in-place flips.

Profiling the updaters shows the steady-state sweep cost is dominated not
by arithmetic but by allocation traffic: every colour phase of the
elementwise path materialises ~7 lattice-sized temporaries (neighbour
sums, uniforms, the exp, the flip mask, the delta chain).  The fused
engine keeps one :class:`SweepWorkspace` of named scratch buffers per
updater and routes every step through the backend's ``*_into`` vocabulary
so that, after the first sweep warms the workspace, steady-state sweeps
perform **zero** heap allocation while producing bit-identical spin
trajectories (the ``*_into`` ops are exact twins of their allocating
counterparts, and the acceptance probabilities come from an
:class:`~repro.core.accept.AcceptanceTable` built with the very same
backend op sequence).
"""

from __future__ import annotations

import numpy as np

from ..backend.base import Backend
from .accept import AcceptanceTable
from .update import _cached_device_scalar

__all__ = ["SweepWorkspace", "fused_metropolis_flip", "record_fused_metrics"]


class SweepWorkspace:
    """Named, shape-keyed scratch buffers reused across sweeps.

    ``buffer(name, shape, dtype)`` returns the same array on every call
    with the same key, so the first sweep allocates and every later sweep
    runs allocation-free.  ``hits`` / ``misses`` count lookups (a steady
    state shows a constant miss count), and the workspace also tracks the
    fused engine's savings telemetry:

    * ``table_hits`` — sites whose acceptance probability came from a
      table gather instead of an elementwise ``exp``;
    * ``bytes_saved`` — lattice-temporary bytes the elementwise path
      would have allocated for those sites.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self._constants: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self.table_hits = 0
        self.bytes_saved = 0

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
            self.misses += 1
        else:
            self.hits += 1
        return buf

    def constant(self, key: tuple, builder) -> object:
        """Get-or-create a cached immutable value (kernels, masks, tables)."""
        value = self._constants.get(key)
        if value is None:
            value = builder()
            self._constants[key] = value
        return value

    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the scratch buffers."""
        return int(sum(b.nbytes for b in self._buffers.values()))


def fused_metropolis_flip(
    backend: Backend,
    sigma: np.ndarray,
    nn: np.ndarray,
    probs: np.ndarray,
    table: AcceptanceTable,
    workspace: SweepWorkspace,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """In-place Metropolis step: table gather + allocation-free flip.

    Mutates ``sigma`` and returns it.  Bit-identical to
    :func:`~repro.core.update.metropolis_flip` fed the same operands:
    the gathered probability equals the elementwise
    ``exp(-2 beta sigma (nn + h))`` by the table's construction, and the
    flip algebra ``sigma *= 1 - 2 * flips`` only touches values that are
    exact in every supported dtype.

    ``nn`` must hold the *raw* integer neighbour sums — any external
    field is folded into the table entries, not into ``nn``.
    """
    if sigma.shape != nn.shape or sigma.shape != probs.shape:
        raise ValueError(
            f"shape mismatch: sigma {sigma.shape}, nn {nn.shape}, "
            f"probs {probs.shape}"
        )
    if mask is not None:
        trailing = (
            sigma.shape[sigma.ndim - mask.ndim:] if mask.ndim <= sigma.ndim else None
        )
        if mask.shape != sigma.shape and mask.shape != trailing:
            raise ValueError(
                f"mask shape {mask.shape} does not match sigma shape "
                f"{sigma.shape}: the mask must equal the spin shape or its "
                f"trailing dimensions (per-chain broadcast)"
            )

    fscratch = workspace.buffer("flip_fscratch", sigma.shape)
    idx = workspace.buffer("flip_idx", sigma.shape, np.intp)
    backend.acceptance_index_into(sigma, nn, idx, fscratch, table.offsets)
    ratio = workspace.buffer("flip_ratio", sigma.shape)
    backend.take_into(table.entries, idx, ratio)
    flips = workspace.buffer("flip_flips", sigma.shape)
    backend.less_into(probs, ratio, flips)
    if mask is not None:
        backend.multiply_into(flips, mask, flips)
    # flips {0, 1} -> {+1, -1}, then sigma *= flips: algebraically equal
    # to sigma - 2 * flips * sigma, exact in float32 and bfloat16.
    neg_two = _cached_device_scalar(backend, ("const", -2.0), -2.0)
    one = _cached_device_scalar(backend, ("const", 1.0), 1.0)
    backend.multiply_into(flips, neg_two, flips)
    backend.add_into(flips, one, flips)
    backend.multiply_into(sigma, flips, sigma)

    workspace.table_hits += sigma.size
    # Temporaries the elementwise path materialises per flip call:
    # sigma*nn, factor*local, exp, less, flips*sigma, 2*(...), subtract
    # (+ the mask product, + the field-shifted nn when h != 0).
    n_temps = 7
    if mask is not None:
        n_temps += 1
    if table.field != 0.0:
        n_temps += 1
    workspace.bytes_saved += n_temps * sigma.size * backend.dtype.itemsize
    return sigma


def record_fused_metrics(registry, *updaters) -> None:
    """Publish the fused engine's savings gauges from updater workspaces.

    Sums over every updater that exposes a warmed ``workspace`` (solo,
    batched, or one per distributed core); updaters running the
    elementwise path contribute zeros, so the gauges are always present
    and comparable across runs.
    """
    table_hits = 0
    bytes_saved = 0
    ws_bytes = 0
    ws_buffers = 0
    for updater in updaters:
        ws = getattr(updater, "workspace", None)
        if ws is None:
            continue
        table_hits += ws.table_hits
        bytes_saved += ws.bytes_saved
        ws_bytes += ws.nbytes
        ws_buffers += ws.n_buffers
    registry.gauge("fused_table_hits").set(table_hits)
    registry.gauge("fused_bytes_saved").set(bytes_saved)
    registry.gauge("fused_workspace_bytes").set(ws_bytes)
    registry.gauge("fused_workspace_buffers").set(ws_buffers)
