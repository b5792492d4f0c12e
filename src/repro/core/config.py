"""Shared simulation-configuration helpers, neutral of any driver.

This module sits below every driver (:mod:`repro.core.simulation`,
:mod:`repro.core.ensemble`, :mod:`repro.core.distributed`) and the
scheduler, and it is the one place that says which configurations are
supported: :data:`UPDATERS` names the updaters, :func:`check_config`
holds every rule about which updater, dtype, field, couplings, block
shape, ``fused`` value, backend kind and driver combine,
:func:`resolve_fused` turns a ``fused`` selection into the engine a
chain runs, and :func:`default_block_shape` picks the block
decomposition an unset ``block_shape`` means.
:class:`~repro.api.SimulationConfig` calls :func:`check_config` when it
is built, the drivers call it from their public constructors, and the
scheduler's batching and cache keys use the same resolvers, so a rule
cannot drift between copies.

This module also owns the versioned **checkpoint/v2** envelope shared by
every driver's ``state_dict()``:

``{"schema": "checkpoint/v2", "kind": "single" | "ensemble" | "distributed", ...}``

Anything else — a v1 dict without a ``schema`` key, as emitted before
the envelope existed, or an unknown schema — is refused.  A single
:func:`repro.api.load` dispatches any envelope to the right class.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import Backend
from ..backend.numpy_backend import NumpyBackend

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_KINDS",
    "UPDATERS",
    "check_config",
    "resolve_fused",
    "default_block_shape",
    "backend_kind",
    "backend_from_checkpoint",
    "check_checkpoint_dtype",
    "checkpoint_envelope",
    "unwrap_checkpoint",
    "checkpoint_kind",
]

#: Versioned schema identifier carried by every state_dict() envelope.
CHECKPOINT_SCHEMA = "checkpoint/v2"

#: Checkpoint kinds a v2 envelope may carry.
CHECKPOINT_KINDS = ("single", "ensemble", "distributed", "tempering")


#: Updater names: "compact" (Algorithm 2), "conv" (the appendix conv
#: variant on the compact layout), "checkerboard" (Algorithm 1) and
#: "masked_conv" (naive full-lattice conv + mask).
UPDATERS = ("compact", "conv", "checkerboard", "masked_conv")


def check_config(
    shape: "int | tuple[int, int]",
    updater: str = "compact",
    dtype: str = "float32",
    field: float = 0.0,
    couplings: str = "ferro",
    block_shape: "tuple[int, int] | None" = None,
    fused: "bool | str" = "auto",
    distributed: bool = False,
    backend: str = "numpy",
) -> None:
    """Raise :class:`ValueError` unless the configuration is supported.

    ``dtype`` is a dtype name, ``couplings`` a coupling kind and
    ``backend`` a backend kind ("numpy" or "tpu", see
    :func:`backend_kind`); ``distributed`` adds the pod driver's rules,
    and its cores are TPU cost models, so it implies ``backend="tpu"``.
    This is the one place
    the supported-configuration rules are written: ``SimulationConfig``
    and every driver constructor call it.  Rules that depend on which
    factory is called (disorder on ``simulate()``, a ladder outside
    ``tempering()``, distributed-only fields elsewhere) stay in the
    factories.
    """
    rows, cols = (shape, shape) if isinstance(shape, (int, np.integer)) else shape
    if rows % 2 or cols % 2:
        raise ValueError(f"lattice sides must be even, got {(rows, cols)}")
    if updater not in UPDATERS:
        raise ValueError(f"unknown updater {updater!r}; expected one of {UPDATERS}")
    if fused != "auto" and not isinstance(fused, (bool, np.bool_)):
        raise ValueError(f"fused must be 'auto', True or False, got {fused!r}")
    if distributed:
        backend = "tpu"
        if updater not in ("compact", "conv"):
            raise ValueError(
                f"updater must be 'compact' or 'conv' for distributed runs "
                f"(every core runs the compact layout), got {updater!r}"
            )
    if backend == "tpu" and fused != "auto" and fused:
        raise ValueError(
            "fused=True does not support backend='tpu': the TPU cost "
            "model, which every distributed() core runs, prices the "
            "elementwise op sequence its calibrated cost tables describe; "
            "drop fused= ('auto' resolves to the elementwise engine there) "
            "or run fused chains on the numpy backend"
        )
    if dtype == "packed":
        if backend == "tpu":
            raise ValueError(
                "dtype='packed' does not support backend='tpu', so "
                "distributed(), whose cores are TPU cost models, does not "
                "support dtype='packed' either: the TPU cost model has no "
                "pricing for 64-spin word kernels; run packed chains on the "
                "numpy backend through simulate() / ensemble(), or use "
                "dtype='float32'/'bfloat16' on the TPU cost model"
            )
        if updater not in ("compact", "checkerboard"):
            raise ValueError(
                f"dtype='packed' supports updater='compact' or "
                f"'checkerboard' (both run the packed multi-spin "
                f"engine); {updater!r} has no packed kernels — use "
                f"dtype='float32' for it"
            )
        if field:
            raise ValueError(
                "dtype='packed' requires field=0.0: the three-case "
                f"Metropolis collapse assumes h = 0 (got {field!r}); "
                "use dtype='float32' for runs with a field"
            )
        if block_shape is not None:
            raise ValueError(
                "dtype='packed' does not take a block_shape: spins are "
                "stored as 64-bit words per compact quarter, not "
                "blocked grids"
            )
        if fused is False:
            raise ValueError(
                "dtype='packed' has no elementwise path: the packed "
                "engine is workspace-backed only; drop fused=False or "
                "use dtype='float32'"
            )
        if cols % 128:
            raise ValueError(
                f"dtype='packed' needs the lattice width to be a "
                f"multiple of 128 (each compact quarter packs into "
                f"whole 64-bit words), got {cols}"
            )
        if couplings != "ferro":
            raise ValueError(
                "dtype='packed' supports couplings='ferro' only: the "
                "three-case Metropolis collapse assumes uniform J = 1; "
                "use dtype='float32' with updater='masked_conv' for "
                "disordered bonds"
            )
    if couplings != "ferro" and updater != "masked_conv":
        raise ValueError(
            f"disordered couplings ({couplings!r}) require "
            f"updater='masked_conv' (the compact/blocked updaters "
            f"have no per-bond kernels yet); got {updater!r}"
        )
    if updater == "masked_conv" and block_shape is not None:
        raise ValueError(
            f"masked_conv does not take a block_shape (got {block_shape!r})"
        )
    if block_shape is not None and not distributed:
        # compact and conv tile the quarter lattice, checkerboard the
        # full one; a pod tiles each core's share instead.
        if updater == "checkerboard":
            tiled, what = (rows, cols), "lattice"
        else:
            tiled, what = (rows // 2, cols // 2), "quarter lattice"
        r, c = block_shape
        if r <= 0 or c <= 0 or tiled[0] % r or tiled[1] % c:
            raise ValueError(
                f"block_shape {tuple(block_shape)} does not tile the {what} "
                f"{tiled} that updater={updater!r} blocks"
            )


def resolve_fused(fused: "bool | str", backend: str, dtype: str) -> bool:
    """Whether a chain on a ``backend`` kind and ``dtype`` name runs fused.

    ``"auto"`` enables the fused engine on plain numpy backends (pure
    host speedup) and resolves to the elementwise engine on accounting
    ("tpu") backends, the op sequence the calibrated TPU cost tables
    describe (:func:`check_config` refuses ``fused=True`` there).  The
    packed engine exists only in workspace-backed form, so packed
    chains always run fused (:func:`check_config` rejects
    ``fused=False`` for them).
    """
    if dtype == "packed":
        return True
    if fused == "auto":
        return backend == "numpy"
    return bool(fused)


def default_block_shape(
    updater: str, shape: "tuple[int, int]", dtype: str = "float32"
) -> "tuple[int, int] | None":
    """The driver's default block decomposition for ``updater`` on ``shape``.

    This is the single source of truth consumed by the drivers *and* by
    the scheduler's batching and cache keys (:mod:`repro.sched`), so an
    unset ``block_shape`` and its spelled-out default can never drift
    apart:

    * ``masked_conv`` and ``dtype="packed"`` run unblocked (and reject
      an explicit block);
    * ``checkerboard`` defaults to one block covering the whole lattice;
    * ``compact`` / ``conv`` default to one block per compact
      sub-lattice: a ``(rows/2, cols/2)`` block covering each quarter.
    """
    if updater == "masked_conv" or dtype == "packed":
        return None
    rows, cols = (int(shape[0]), int(shape[1]))
    if updater == "checkerboard":
        return (rows, cols)
    return (rows // 2, cols // 2)


def backend_kind(backend: Backend) -> str:
    """Checkpoint tag for the backend family ("numpy" or "tpu")."""
    from ..backend.tpu_backend import TPUBackend

    return "tpu" if isinstance(backend, TPUBackend) else "numpy"


def backend_from_checkpoint(kind: str, dtype_name: str) -> Backend:
    """Rebuild a backend of the checkpointed kind and dtype.

    Raises on unknown backend kinds; unknown dtype names raise inside
    :func:`~repro.tpu.dtypes.resolve_dtype` rather than silently
    substituting a default.
    """
    from ..tpu.dtypes import resolve_dtype

    dtype = resolve_dtype(dtype_name)
    if kind == "numpy":
        return NumpyBackend(dtype)
    if kind == "tpu":
        from ..backend.tpu_backend import TPUBackend
        from ..tpu.tensorcore import TensorCore

        return TPUBackend(TensorCore(core_id=0), dtype)
    raise ValueError(
        f"unknown backend kind {kind!r} in checkpoint; expected 'numpy' or 'tpu'"
    )


def check_checkpoint_dtype(state_dtype: str, backend: Backend) -> None:
    """Refuse cross-loading between packed and unpacked checkpoints.

    The packed engine stores the lattice as 64-spin words and (in stream
    mode) consumes randomness on a different counter schedule than the
    unpacked chains, so resuming a checkpoint across the packed/unpacked
    boundary would silently change the trajectory.  Loading is only
    allowed when both sides agree on packedness; dtype changes *within*
    the unpacked family (float32 <-> bfloat16) remain legal.
    """
    backend_packed = backend.dtype.name == "packed"
    state_packed = state_dtype == "packed"
    if backend_packed == state_packed:
        return
    if backend_packed:
        raise ValueError(
            f"checkpoint was written by an unpacked dtype={state_dtype!r} "
            "chain and cannot resume as dtype='packed': the packed stream "
            "mode consumes randomness on a different counter schedule. "
            "Resume on the checkpoint's own dtype, or start a fresh packed "
            "run seeded from its lattice."
        )
    raise ValueError(
        "checkpoint was written by a dtype='packed' chain and cannot "
        f"resume on an unpacked dtype={backend.dtype.name!r} backend: the "
        "stored randomness schedule only matches the packed engine. Resume "
        "with dtype='packed', or start a fresh unpacked run seeded from "
        "the checkpoint's lattice."
    )


def checkpoint_envelope(kind: str, payload: dict) -> dict:
    """Wrap a driver's checkpoint payload in the versioned v2 envelope."""
    if kind not in CHECKPOINT_KINDS:
        raise ValueError(
            f"unknown checkpoint kind {kind!r}; expected one of {CHECKPOINT_KINDS}"
        )
    return {"schema": CHECKPOINT_SCHEMA, "kind": kind, **payload}


def checkpoint_kind(state: dict) -> str:
    """The kind of a ``checkpoint/v2`` envelope, checking schema and kind.

    Any other schema raises by name, a missing one (a v1 dict) included:
    a checkpoint from another version must be migrated explicitly, not
    half-decoded.
    """
    if not isinstance(state, dict):
        raise TypeError(f"checkpoint must be a dict, got {type(state).__name__}")
    schema = state.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"unsupported checkpoint schema {schema!r}; this build reads "
            f"{CHECKPOINT_SCHEMA!r} envelopes only (v1 dicts, which carry no "
            "'schema' key, are no longer read) — a checkpoint from another "
            "version needs an explicit migration"
        )
    kind = state.get("kind")
    if kind not in CHECKPOINT_KINDS:
        raise ValueError(
            f"unknown checkpoint kind {kind!r}; expected one of {CHECKPOINT_KINDS}"
        )
    return kind


def unwrap_checkpoint(state: dict, expected_kind: str) -> dict:
    """Validate a ``checkpoint/v2`` envelope of ``expected_kind``; return it."""
    kind = checkpoint_kind(state)
    if kind != expected_kind:
        raise ValueError(
            f"checkpoint kind {kind!r} cannot restore a {expected_kind!r} "
            "simulation — use repro.api.load() to dispatch automatically"
        )
    return state
