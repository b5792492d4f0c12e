"""Content-addressed result cache keyed by canonical config hashes.

Two requests that describe the *same trajectory* must hash to the same
key, however they were spelled.  :func:`canonical_cache_key` therefore
normalises every trajectory-determining field of a frozen
:class:`~repro.api.SimulationConfig` before hashing:

* ``temperature=2.0`` and ``beta=0.5`` resolve to one temperature, and
  floats are hashed by their exact bit pattern (``float.hex``), never by
  a printed decimal;
* ``shape=64`` and ``shape=(64, 64)`` normalise to one tuple, and an
  unset ``block_shape`` resolves to the updater's default decomposition
  (so spelling the default explicitly still hits);
* an explicit initial lattice hashes by content (shape + bytes);
* the model spec serialises deterministically (fields in sorted-key
  order, floats by bit pattern): ``field=0.1`` and
  ``model=ModelSpec(field=0.1)`` hash via one
  :attr:`~repro.api.SimulationConfig.resolved_model`.

Scheduler jobs never carry a :class:`~repro.api.LadderSpec` (a ladder
is one coupled simulation, and :class:`~repro.sched.job.JobSpec`
refuses it), so no ladder enters a key.

Fields that provably do **not** change the trajectory are excluded, so
equivalent requests share cache entries across them: the backend kind
("numpy" vs "tpu" execute bit-identically for a given dtype — the
equivalence suite enforces it) and the fused-engine selection (fused and
elementwise sweeps are bit-identical by construction).  ``dtype`` *is*
part of the key: bfloat16 rounding changes trajectories.

The cache itself is a bounded LRU mapping key -> :class:`~repro.sched.job.JobResult`;
hits hand out aliasing-free copies so a caller mutating its result can
never corrupt later servings.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from ..core.config import default_block_shape
from ..tpu.dtypes import resolve_dtype
from .job import JobResult

__all__ = ["CACHE_KEY_SCHEMA", "canonical_cache_key", "ResultCache"]

#: Versioned prefix folded into every key; bump when key semantics change
#: (a stale persisted key can then never alias a new-scheme entry).
#: v2: the flat ``field`` part became a full model token (couplings kind,
#: disorder seed, field bits, lattice) and a ladder token was added.
#: v3: the model token lost the lattice geometry (always the square
#: torus) and the ladder token went (jobs never carry a ladder).
CACHE_KEY_SCHEMA = "repro.sched/cache-key/v3"


def _normalized_shape(shape) -> tuple[int, int]:
    if isinstance(shape, (int, np.integer)):
        return (int(shape), int(shape))
    rows, cols = shape
    return (int(rows), int(cols))


def _resolved_block_shape(config, shape: tuple[int, int], dtype: str):
    """The effective block decomposition, via the drivers' shared default.

    Delegating to :func:`~repro.core.config.default_block_shape` (rather
    than re-spelling the per-updater defaults here) guarantees an unset
    ``block_shape`` and its explicit default hash to the same key, and
    that a batch gets exactly the block its driver accepts.
    """
    if config.block_shape is not None:
        rows, cols = config.block_shape
        return (int(rows), int(cols))
    return default_block_shape(config.updater, shape, dtype)


def _initial_token(initial) -> str:
    """Canonical token for the initial state ('hot'/'cold' or array hash)."""
    if isinstance(initial, str):
        return f"named:{initial}"
    plain = np.ascontiguousarray(np.asarray(initial, dtype=np.float32))
    digest = hashlib.sha256(plain.tobytes()).hexdigest()
    return f"array:{plain.shape}:{digest}"


def _model_token(config) -> str:
    """Canonical token of the resolved model spec (flat-kwarg invariant).

    Fields in sorted-key order, the field by its exact bit pattern
    (``float.hex``), so the token is spelling-invariant.
    """
    model = config.resolved_model
    return (
        f"model(couplings={model.couplings},"
        f"disorder_seed={int(model.disorder_seed)},"
        f"field={float(model.field).hex()})"
    )


def canonical_cache_key(config, sweeps: int) -> str:
    """The content address of (config, seed, sweep count) as a sha256 hex.

    Includes every trajectory-determining field of a scheduler job
    (shape, temperature, model spec — couplings/disorder seed/field —
    updater, dtype, block decomposition, initial state, seed, sweep
    count); excludes execution details that are bit-identical by
    contract (backend kind, fused selection, telemetry).
    """
    shape = _normalized_shape(config.shape)
    dtype = resolve_dtype(config.dtype).name
    parts = (
        CACHE_KEY_SCHEMA,
        f"shape={shape}",
        f"temperature={float(config.resolved_temperature).hex()}",
        f"model={_model_token(config)}",
        f"updater={config.updater}",
        f"dtype={dtype}",
        f"block_shape={_resolved_block_shape(config, shape, dtype)}",
        f"initial={_initial_token(config.initial)}",
        f"seed={int(config.seed)}",
        f"sweeps={int(sweeps)}",
    )
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


class ResultCache:
    """Bounded LRU of canonical-key -> :class:`~repro.sched.job.JobResult`.

    ``get`` returns an aliasing-free copy (or None) and books the
    hit/miss; ``put`` inserts and evicts least-recently-used entries
    beyond ``max_entries``.  Purely in-process and synchronous — the
    scheduler consults it before any job touches the device pool.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, JobResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> JobResult | None:
        """The cached result for ``key`` (a fresh copy), or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.copy()

    def put(self, key: str, result: JobResult) -> None:
        """Insert (a defensive copy of) ``result`` under ``key``."""
        self._entries[key] = result.copy()
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def export(self) -> "list[tuple[str, JobResult]]":
        """Snapshot every entry as ``(key, result copy)`` pairs, LRU first.

        The scale-down flush: a draining shard exports its index so the
        routing layer can :meth:`absorb` the entries into the surviving
        shards and keep content-addressed hit rates intact.  Bookkeeping
        (hits/misses) is untouched.
        """
        return [(key, result.copy()) for key, result in self._entries.items()]

    def absorb(self, entries: "list[tuple[str, JobResult]]") -> None:
        """Merge exported entries, keeping any result already present.

        Existing entries win (they are at least as recent); new keys are
        inserted through :meth:`put`, so the LRU bound and eviction
        accounting apply as usual.
        """
        for key, result in entries:
            if key not in self._entries:
                self.put(key, result)

    def stats(self) -> dict:
        """Hit/miss/eviction counts plus current occupancy."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
