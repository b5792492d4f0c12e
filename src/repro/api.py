"""The blessed, stable entry point: one config, three factories, one loader.

The simulation drivers (:class:`~repro.core.simulation.IsingSimulation`,
:class:`~repro.core.ensemble.EnsembleSimulation`,
:class:`~repro.core.distributed.DistributedIsing`,
:class:`~repro.core.tempering.TemperingEnsemble`) grew divergent kwarg
lists.  This module puts one validated, frozen :class:`SimulationConfig`
in front of all of them:

    >>> import repro
    >>> cfg = repro.SimulationConfig(shape=128, temperature=2.0, seed=7)
    >>> sim = repro.simulate(cfg)                     # single chain
    >>> chains = repro.ensemble(cfg, n_chains=8)      # vectorized ensemble
    >>> pod = repro.distributed(replace(cfg, grid=(2, 2)))  # SPMD pod run

What the run simulates (the physics) and how the ensemble is laddered
are first-class sub-configs rather than bolt-on kwargs:

    >>> model = repro.ModelSpec(couplings="bimodal", disorder_seed=3)
    >>> ladder = repro.LadderSpec(betas=(0.2, 0.5, 1.0, 2.0))
    >>> pt = repro.tempering(repro.SimulationConfig(
    ...     shape=64, updater="masked_conv", model=model, ladder=ladder))

**Canonicalization:** the flat spellings keep working.  ``field=0.1``
is shorthand for ``model=ModelSpec(field=0.1)``, and ``beta=`` /
``temperature=`` stay the way to temper non-ladder runs;
:attr:`SimulationConfig.resolved_model` folds the flat field into the
model spec (setting conflicting values in both places is an error), so
every downstream consumer — factories, scheduler cache keys, coalescer
— sees one canonical spec regardless of spelling.

One loader dispatches any ``checkpoint/v2`` envelope (or legacy v1
dict, with a :class:`DeprecationWarning`) back to the class that wrote
it:

    >>> sim2 = repro.load(sim.state_dict())

Retired keyword spellings (``core_grid=``, ``T=``) fail fast with a
:class:`TypeError` naming the replacement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .backend.base import Backend
from .backend.numpy_backend import NumpyBackend
from .core.config import (
    CHECKPOINT_SCHEMA,
    backend_from_checkpoint,
    checkpoint_kind,
    resolve_fused,
    resolve_overlap,
)
from .core.couplings import COUPLING_KINDS, BondCouplings
from .core.distributed import DistributedIsing
from .core.ensemble import EnsembleSimulation
from .core.simulation import IsingSimulation
from .core.tempering import TemperingEnsemble
from .mesh.faults import FaultPlan
from .sched.client import Client, submit
from .telemetry.report import RunTelemetry
from .tpu.dtypes import DType, resolve_dtype

__all__ = [
    "ModelSpec",
    "LadderSpec",
    "SimulationConfig",
    "simulate",
    "ensemble",
    "tempering",
    "distributed",
    "load",
    "submit",
    "Client",
]

_UPDATERS = ("compact", "conv", "checkerboard", "masked_conv")

@dataclass(frozen=True)
class ModelSpec:
    """What the run simulates: the Hamiltonian's quenched parameters.

    Every field has a default (``ModelSpec()`` is the clean zero-field
    ferromagnet, exactly the historical implicit model), and instances
    are frozen and hashable so they can live inside the frozen
    :class:`SimulationConfig` and its cache keys.

    Fields
    ------
    couplings:
        "ferro" (J = +1 everywhere, default), "bimodal" (+/-J spin
        glass) or "gaussian" (J ~ N(0, 1)).  Disordered kinds currently
        require ``updater="masked_conv"`` and an unpacked dtype (see
        ``docs/tempering.md`` for the support matrix).
    disorder_seed:
        Seed of the quenched bond draw; the realisation is a pure
        function of (couplings, shape, disorder_seed).  Ignored for
        "ferro".
    field:
        External magnetic field h.  ``SimulationConfig(field=...)`` is
        shorthand for setting it here (see ``resolved_model``).
    lattice:
        Lattice geometry; "square" is the only kind wired up today —
        the field exists so triangular/3D variants extend the spec
        instead of growing new flat kwargs.
    """

    couplings: str = "ferro"
    disorder_seed: int = 0
    field: float = 0.0
    lattice: str = "square"

    def __post_init__(self) -> None:
        if self.couplings not in COUPLING_KINDS:
            raise ValueError(
                f"couplings must be one of {COUPLING_KINDS}, "
                f"got {self.couplings!r}"
            )
        if self.lattice != "square":
            raise ValueError(
                f"lattice must be 'square' (the only wired-up geometry), "
                f"got {self.lattice!r}"
            )
        object.__setattr__(self, "disorder_seed", int(self.disorder_seed))
        object.__setattr__(self, "field", float(self.field))


@dataclass(frozen=True)
class LadderSpec:
    """How a tempering run ladders its temperatures.

    Pass either ``betas`` or ``temperatures`` (not both); the sequence
    *order defines swap adjacency* — replica exchange proposes swaps
    between adjacent entries as given, so the order is part of the
    trajectory, and the two spellings of the same ladder canonicalise
    to the same :attr:`resolved_betas` (and the same scheduler cache
    key).

    Fields
    ------
    betas:
        Inverse-temperature ladder, in adjacency order.
    temperatures:
        The same ladder spelled as temperatures (converted on read).
    n_replicas:
        Independent replicas of the full ladder (>= 2 enables the
        replica-overlap observables).
    swap_interval:
        Sweeps between swap rounds.
    """

    betas: "tuple[float, ...]" = ()
    temperatures: "tuple[float, ...]" = ()
    n_replicas: int = 2
    swap_interval: int = 1

    def __post_init__(self) -> None:
        betas = tuple(float(b) for b in self.betas)
        temps = tuple(float(t) for t in self.temperatures)
        if betas and temps:
            raise ValueError(
                "set LadderSpec betas or temperatures, not both "
                f"(got betas={betas}, temperatures={temps})"
            )
        if any(b <= 0 for b in betas):
            raise ValueError(f"betas must be positive, got {betas}")
        if any(t <= 0 for t in temps):
            raise ValueError(f"temperatures must be positive, got {temps}")
        if int(self.n_replicas) < 1:
            raise ValueError(
                f"n_replicas must be >= 1, got {self.n_replicas}"
            )
        if int(self.swap_interval) < 1:
            raise ValueError(
                f"swap_interval must be >= 1, got {self.swap_interval}"
            )
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "temperatures", temps)
        object.__setattr__(self, "n_replicas", int(self.n_replicas))
        object.__setattr__(self, "swap_interval", int(self.swap_interval))

    @property
    def resolved_betas(self) -> "tuple[float, ...]":
        """The beta ladder in adjacency order, whichever spelling built it."""
        if self.betas:
            return self.betas
        return tuple(1.0 / t for t in self.temperatures)


@dataclass(frozen=True)
class SimulationConfig:
    """One validated, immutable description of an Ising run.

    Every field has a default, so ``SimulationConfig()`` is a runnable
    64 x 64 chain at T = 2.0 — the ``tools/check_api.py`` lint enforces
    the every-field-has-a-default invariant.  Derive variants with
    :meth:`evolve` (or :func:`dataclasses.replace`).

    Fields
    ------
    shape:
        Lattice shape — side length or (rows, cols).
    temperature, beta:
        Temperature in J / k_B units, or its inverse; set at most one
        (``beta`` is converted on read; both unset means T = 2.0).
        Ladder runs set neither — the :class:`LadderSpec` carries them.
    field:
        External magnetic field h — flat shorthand for
        ``model=ModelSpec(field=...)``; :attr:`resolved_model` folds it
        in, and setting conflicting values in both places is an error.
    model:
        Optional :class:`ModelSpec` (couplings, disorder seed, field,
        lattice).  None means the clean zero-field ferromagnet (plus
        the flat ``field``).
    ladder:
        Optional :class:`LadderSpec`; required by :func:`tempering`,
        rejected by the other factories.
    updater:
        "compact" (default), "conv", "checkerboard" or "masked_conv".
    dtype:
        On-device storage dtype: "float32", "bfloat16" or "packed"
        (64 spins per uint64 word; see ``docs/packed_engine.md``).
        Packed runs require ``updater`` "compact" / "checkerboard",
        ``field=0.0``, no ``block_shape``, and a lattice width that is
        a multiple of 128; :func:`distributed` does not support it.
    backend:
        "numpy" (host arithmetic), "tpu" (single simulated TensorCore
        cost model), a pre-built :class:`~repro.backend.base.Backend`,
        or None — the driver's default.  :func:`distributed` builds its
        own per-core TPU backends and only accepts None / "tpu".
    fused:
        Fused sweep engine: "auto" (default), True or False.  Solo and
        ensemble chains on the fused engine record one sweep and replay
        it for every further sweep (:mod:`repro.core.traced`).
    seed:
        Global Philox seed.
    telemetry:
        ``True`` (attach a fresh
        :class:`~repro.telemetry.report.RunTelemetry`), an existing
        recorder, or None.
    block_shape:
        Compact-grid block size override.
    grid:
        Core grid (rows, cols) — required by :func:`distributed`,
        rejected elsewhere.  The old ``core_grid=`` spelling raises.
    pod_grid:
        Optional (pod rows, pod cols) tiling of ``grid`` into sub-pods —
        a hierarchical multi-pod mesh with a two-tier link model (see
        ``docs/multipod.md``).  :func:`distributed` only.
    overlap:
        Split-phase halo overlap: "auto" (default — on exactly for
        multi-pod meshes), True or False.  Changes only the modeled
        clock, never the chain.  :func:`distributed` only.
    fault_plan:
        Optional :class:`~repro.mesh.faults.FaultPlan` for
        :func:`distributed` runs (single-core drivers have no mesh to
        inject into, so they reject it).
    checkpoint_interval:
        Periodic in-memory checkpoint cadence for :func:`distributed`
        (see :meth:`~repro.core.distributed.DistributedIsing.run_resilient`).
    initial:
        "hot", "cold", or an explicit spin array.
    record_trace:
        Keep per-op trace events for Chrome-trace export
        (:func:`distributed` only).
    """

    shape: "int | tuple[int, int]" = 64
    temperature: "float | None" = None
    beta: "float | None" = None
    field: float = 0.0
    model: "ModelSpec | None" = None
    ladder: "LadderSpec | None" = None
    updater: str = "compact"
    dtype: "DType | str" = "float32"
    backend: "Backend | str | None" = None
    fused: "bool | str" = "auto"
    seed: int = 0
    telemetry: "RunTelemetry | bool | None" = None
    block_shape: "tuple[int, int] | None" = None
    grid: "tuple[int, int] | None" = None
    pod_grid: "tuple[int, int] | None" = None
    overlap: "bool | str" = "auto"
    fault_plan: "FaultPlan | None" = None
    checkpoint_interval: "int | None" = None
    initial: "str | np.ndarray" = "hot"
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.temperature is not None and self.beta is not None:
            raise ValueError(
                "set temperature or beta, not both "
                f"(got temperature={self.temperature}, beta={self.beta})"
            )
        if self.model is not None and not isinstance(self.model, ModelSpec):
            raise TypeError(
                f"model must be a ModelSpec or None, got "
                f"{type(self.model).__name__}"
            )
        if self.ladder is not None and not isinstance(self.ladder, LadderSpec):
            raise TypeError(
                f"ladder must be a LadderSpec or None, got "
                f"{type(self.ladder).__name__}"
            )
        if (
            self.model is not None
            and self.field != 0.0
            and self.model.field != 0.0
            and self.field != self.model.field
        ):
            raise ValueError(
                f"conflicting fields: flat field={self.field} vs "
                f"model.field={self.model.field}; set one spelling (they "
                "canonicalise to the same resolved model)"
            )
        if self.ladder is not None and (
            self.temperature is not None or self.beta is not None
        ):
            raise ValueError(
                "a ladder config carries its temperatures in the "
                "LadderSpec; drop the flat temperature=/beta= kwargs"
            )
        if self.temperature is not None and self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.beta is not None and self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.updater not in _UPDATERS:
            raise ValueError(
                f"updater must be one of {_UPDATERS}, got {self.updater!r}"
            )
        resolve_fused(self.fused)  # raises on junk
        resolve_overlap(self.overlap)  # raises on junk
        dtype = resolve_dtype(self.dtype)  # raises on junk
        if dtype.name == "packed":
            if self.updater not in ("compact", "checkerboard"):
                raise ValueError(
                    f"dtype='packed' supports updater='compact' or "
                    f"'checkerboard' (both run the packed multi-spin "
                    f"engine); {self.updater!r} has no packed kernels — "
                    f"use dtype='float32' for it"
                )
            if self.field:
                raise ValueError(
                    "dtype='packed' requires field=0.0: the three-case "
                    f"Metropolis collapse assumes h = 0 (got {self.field!r}); "
                    "use dtype='float32' for runs with a field"
                )
            if self.block_shape is not None:
                raise ValueError(
                    "dtype='packed' does not take a block_shape: spins are "
                    "stored as 64-bit words per compact quarter, not "
                    "blocked grids"
                )
            if self.fused is False:
                raise ValueError(
                    "dtype='packed' has no elementwise path: the packed "
                    "engine is workspace-backed only; drop fused=False or "
                    "use dtype='float32'"
                )
        if self.model is not None and self.model.couplings != "ferro":
            if self.updater != "masked_conv":
                raise ValueError(
                    f"disordered couplings ({self.model.couplings!r}) require "
                    f"updater='masked_conv' (the compact/blocked updaters "
                    f"have no per-bond kernels yet); got {self.updater!r}"
                )
            if dtype.name == "packed":
                raise ValueError(
                    "dtype='packed' supports couplings='ferro' only: the "
                    "three-case Metropolis collapse assumes uniform J = 1"
                )
        if isinstance(self.backend, str) and self.backend not in ("numpy", "tpu"):
            raise ValueError(
                f"backend must be 'numpy', 'tpu', a Backend or None, "
                f"got {self.backend!r}"
            )
        if self.grid is not None:
            rows, cols = self.grid
            if rows < 1 or cols < 1:
                raise ValueError(f"grid must be positive, got {self.grid}")
        if self.pod_grid is not None:
            p_rows, p_cols = self.pod_grid
            if p_rows < 1 or p_cols < 1:
                raise ValueError(f"pod_grid must be positive, got {self.pod_grid}")
            if self.grid is not None and (
                self.grid[0] % p_rows or self.grid[1] % p_cols
            ):
                raise ValueError(
                    f"grid {self.grid} not divisible by pod_grid {self.pod_grid}"
                )
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError(
                "checkpoint_interval must be >= 1 or None, "
                f"got {self.checkpoint_interval}"
            )

    @property
    def resolved_temperature(self) -> float:
        """The run temperature: ``temperature``, ``1 / beta``, or 2.0."""
        if self.temperature is not None:
            return float(self.temperature)
        if self.beta is not None:
            return 1.0 / float(self.beta)
        return 2.0

    @property
    def resolved_model(self) -> ModelSpec:
        """The canonical :class:`ModelSpec`, whichever spelling built it.

        ``model=None`` yields the clean ferromagnet carrying the flat
        ``field``; a model with ``field=0.0`` inherits a non-zero flat
        ``field``.  Flat kwargs and spec-built configs of the same
        physics therefore resolve to equal specs — and to the same
        scheduler cache key.
        """
        if self.model is None:
            return ModelSpec(field=self.field)
        if self.field != 0.0 and self.model.field == 0.0:
            return replace(self.model, field=self.field)
        return self.model

    def evolve(self, **changes) -> "SimulationConfig":
        """A copy with ``changes`` applied (frozen-dataclass update).

        Setting one of the temperature spellings clears the other, so
        ``cfg.evolve(beta=0.44)`` works on a config built with
        ``temperature=``.
        """
        if "temperature" in changes and "beta" not in changes:
            changes.setdefault("beta", None)
        if "beta" in changes and "temperature" not in changes:
            changes.setdefault("temperature", None)
        return replace(self, **changes)

    def _resolved_telemetry(self) -> "RunTelemetry | None":
        if self.telemetry is True:
            return RunTelemetry()
        if self.telemetry is False or self.telemetry is None:
            return None
        return self.telemetry

    def _resolved_backend(self) -> "Backend | None":
        """Build the single-core backend this config asks for (or None)."""
        if isinstance(self.backend, Backend):
            return self.backend
        dtype = resolve_dtype(self.dtype)
        if self.backend == "numpy":
            return NumpyBackend(dtype)
        if self.backend == "tpu":
            return backend_from_checkpoint("tpu", dtype.name)
        # backend is None: only force a build when a non-default dtype
        # must be carried (the drivers' default is float32 numpy).
        if dtype.name != "float32":
            return NumpyBackend(dtype)
        return None


def _removed_kwargs(**renames: str):
    """Decorator: fail fast on kwargs whose deprecation window has closed.

    Passing an old spelling raises a :class:`TypeError` that names its
    replacement.
    """

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            for old, new in renames.items():
                if old in kwargs:
                    raise TypeError(
                        f"{func.__qualname__}() no longer accepts {old!r} "
                        f"(removed after its deprecation release); use {new!r}"
                    )
            return func(*args, **kwargs)

        wrapper.__removed_kwargs__ = dict(renames)
        return wrapper

    return decorate


# The PR-4 deprecated spellings finished their warning release.
SimulationConfig.__init__ = _removed_kwargs(
    core_grid="grid", T="temperature"
)(SimulationConfig.__init__)


def _reject(config: SimulationConfig, factory: str, *field_names: str) -> None:
    for name in field_names:
        if getattr(config, name) is not None:
            raise ValueError(
                f"{factory}() does not use config field {name!r} "
                f"(got {getattr(config, name)!r}); build a config without it "
                f"or call the right factory"
            )


def _reject_trace(config: SimulationConfig, factory: str) -> None:
    if config.record_trace:
        raise ValueError(
            f"{factory}() has no per-core trace recorder; record_trace is a "
            "distributed() field"
        )
    if config.overlap != "auto":
        raise ValueError(
            f"{factory}() has no halo exchange to overlap; overlap is a "
            "distributed() field"
        )


def _reject_disorder(config: SimulationConfig, factory: str) -> None:
    model = config.resolved_model
    if model.couplings != "ferro":
        raise ValueError(
            f"{factory}() runs the clean ferromagnet only; disordered "
            f"couplings ({model.couplings!r}) run on ensemble() or "
            "tempering()"
        )


def simulate(config: SimulationConfig) -> IsingSimulation:
    """Build the single-chain simulation a config describes.

    Rejects distributed-only fields (``grid``, ``pod_grid``, ``overlap``,
    ``fault_plan``, ``checkpoint_interval``, ``record_trace``) and
    tempering-only fields (``ladder``) instead of silently ignoring
    them.
    """
    _reject(config, "simulate", "grid", "pod_grid", "fault_plan", "checkpoint_interval", "ladder")
    _reject_trace(config, "simulate")
    _reject_disorder(config, "simulate")
    return IsingSimulation(
        config.shape,
        config.resolved_temperature,
        updater=config.updater,
        backend=config._resolved_backend(),
        seed=config.seed,
        initial=config.initial,
        block_shape=config.block_shape,
        field=config.resolved_model.field,
        fused=config.fused,
        telemetry=config._resolved_telemetry(),
    )


def ensemble(
    config: SimulationConfig,
    n_chains: "int | None" = None,
    temperatures=None,
) -> EnsembleSimulation:
    """Build a vectorized multi-chain ensemble from a config.

    Pass ``n_chains`` for that many chains at the config's temperature
    (independent streams, shared seed), or ``temperatures`` for one
    chain per listed temperature (the Fig. 3/4 temperature-scan shape).
    Exactly one of the two is required.
    """
    if (n_chains is None) == (temperatures is None):
        raise ValueError("pass exactly one of n_chains or temperatures")
    if temperatures is None:
        if n_chains < 1:
            raise ValueError(f"n_chains must be >= 1, got {n_chains}")
        temperatures = [config.resolved_temperature] * n_chains
    _reject(config, "ensemble", "grid", "pod_grid", "fault_plan", "checkpoint_interval", "ladder")
    _reject_trace(config, "ensemble")
    model = config.resolved_model
    return EnsembleSimulation(
        config.shape,
        temperatures,
        updater=config.updater,
        backend=config._resolved_backend(),
        seed=config.seed,
        initial=config.initial,
        block_shape=config.block_shape,
        field=model.field,
        fused=config.fused,
        telemetry=config._resolved_telemetry(),
        couplings=_build_couplings(model, config.shape),
    )


def _build_couplings(
    model: ModelSpec, shape: "int | tuple[int, int]"
) -> "BondCouplings | None":
    """Materialise the model's quenched bond realisation (None for ferro)."""
    if model.couplings == "ferro":
        return None
    return BondCouplings.generate(model.couplings, shape, model.disorder_seed)


def tempering(config: SimulationConfig) -> TemperingEnsemble:
    """Build the replica-exchange ladder a config describes.

    Requires ``config.ladder`` (a :class:`LadderSpec` with a non-empty
    ladder); the model — couplings, disorder seed, field — comes from
    :attr:`SimulationConfig.resolved_model`.  Flat ``temperature=`` /
    ``beta=`` kwargs are rejected: the ladder carries the temperatures.
    """
    if config.ladder is None:
        raise ValueError(
            "tempering() needs config.ladder — e.g. SimulationConfig("
            "shape=64, ladder=LadderSpec(betas=(0.2, 0.5, 1.0)))"
        )
    betas = config.ladder.resolved_betas
    if not betas:
        raise ValueError(
            "config.ladder has an empty ladder; set LadderSpec betas= or "
            "temperatures="
        )
    _reject(config, "tempering", "grid", "pod_grid", "fault_plan", "checkpoint_interval")
    _reject_trace(config, "tempering")
    model = config.resolved_model
    return TemperingEnsemble(
        config.shape,
        betas,
        n_replicas=config.ladder.n_replicas,
        swap_interval=config.ladder.swap_interval,
        couplings=model.couplings,
        disorder_seed=model.disorder_seed,
        updater=config.updater,
        backend=config._resolved_backend(),
        seed=config.seed,
        field=model.field,
        fused=config.fused,
        telemetry=config._resolved_telemetry(),
        initial=config.initial,
        block_shape=config.block_shape,
    )


def distributed(config: SimulationConfig) -> DistributedIsing:
    """Build the SPMD pod-slice simulation a config describes.

    Requires ``grid``; the per-core backends are always simulated-TPU
    cost models, so ``backend`` must be None or "tpu".
    """
    if config.grid is None:
        raise ValueError(
            "distributed() needs config.grid=(rows, cols) — e.g. "
            "SimulationConfig(shape=128, grid=(2, 2))"
        )
    _reject(config, "distributed", "ladder")
    _reject_disorder(config, "distributed")
    if config.backend is not None and config.backend != "tpu":
        raise ValueError(
            "distributed() always runs on simulated-TPU per-core backends; "
            f"config.backend must be None or 'tpu', got {config.backend!r}"
        )
    if resolve_dtype(config.dtype).name == "packed":
        raise ValueError(
            "distributed() does not support dtype='packed': the halo "
            "exchange moves float spin planes, not 64-spin words; run "
            "packed chains through simulate() / ensemble(), or use "
            "dtype='float32'/'bfloat16' for pod runs"
        )
    return DistributedIsing(
        config.shape,
        config.resolved_temperature,
        core_grid=config.grid,
        pod_grid=config.pod_grid,
        overlap=config.overlap,
        dtype=config.dtype,
        block_shape=config.block_shape,
        seed=config.seed,
        initial=config.initial,
        record_trace=config.record_trace,
        updater="conv" if config.updater == "conv" else "compact",
        field=config.resolved_model.field,
        fused=config.fused,
        telemetry=config._resolved_telemetry(),
        fault_plan=config.fault_plan,
        checkpoint_interval=config.checkpoint_interval,
    )


def load(state: dict, **kwargs):
    """Restore any checkpoint to the class that wrote it.

    Dispatches on the ``checkpoint/v2`` envelope's ``kind`` ("single" /
    "ensemble" / "distributed" / "tempering"); legacy v1 dicts (no
    ``schema`` key) are
    classified by their distinguishing keys and decode with a
    :class:`DeprecationWarning`.  Extra keyword arguments forward to the
    target class's ``from_state_dict`` (e.g. ``fault_plan=`` /
    ``telemetry=`` for distributed restores — runtime attachments are
    deliberately not part of the checkpoint).

    An envelope from an unknown schema version fails *here*, by name —
    a checkpoint from a newer writer must never be half-decoded by kind
    guessing.
    """
    if not isinstance(state, dict):
        raise TypeError(
            f"checkpoint must be a dict, got {type(state).__name__}"
        )
    schema = state.get("schema")
    if schema is not None and schema != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"unsupported checkpoint schema {schema!r}; this build reads "
            f"{CHECKPOINT_SCHEMA!r} envelopes and legacy v1 dicts (no "
            "'schema' key) — the checkpoint was written by an unknown "
            "(likely newer) version and needs an explicit migration"
        )
    kind = checkpoint_kind(state)
    loader = {
        "single": IsingSimulation.from_state_dict,
        "ensemble": EnsembleSimulation.from_state_dict,
        "distributed": DistributedIsing.from_state_dict,
        "tempering": TemperingEnsemble.from_state_dict,
    }[kind]
    return loader(state, **kwargs)
