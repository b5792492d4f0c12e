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

One loader dispatches any ``checkpoint/v2`` envelope back to the class
that wrote it:

    >>> sim2 = repro.load(sim.state_dict())
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .backend.base import Backend
from .backend.numpy_backend import NumpyBackend
from .core.config import (
    backend_from_checkpoint,
    backend_kind,
    check_config,
    checkpoint_kind,
)
from .core.couplings import COUPLING_KINDS, BondCouplings
from .core.distributed import DistributedIsing
from .core.ensemble import EnsembleSimulation
from .core.simulation import IsingSimulation
from .core.tempering import TemperingEnsemble
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
        the support table in ``docs/engines.md``).
    disorder_seed:
        Seed of the quenched bond draw; the realisation is a pure
        function of (couplings, shape, disorder_seed).  Ignored for
        "ferro".
    field:
        External magnetic field h.  ``SimulationConfig(field=...)`` is
        shorthand for setting it here (see ``resolved_model``).

    The lattice is always the square torus.
    """

    couplings: str = "ferro"
    disorder_seed: int = 0
    field: float = 0.0

    def __post_init__(self) -> None:
        if self.couplings not in COUPLING_KINDS:
            raise ValueError(
                f"couplings must be one of {COUPLING_KINDS}, "
                f"got {self.couplings!r}"
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
    to the same :attr:`resolved_betas`.

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
        Optional :class:`ModelSpec` (couplings, disorder seed, field).
        None means the clean zero-field ferromagnet (plus the flat
        ``field``).
    ladder:
        Optional :class:`LadderSpec`; required by :func:`tempering`,
        rejected by the other factories.
    updater:
        "compact" (default), "conv", "checkerboard" or "masked_conv".
    dtype:
        On-device storage dtype: "float32", "bfloat16" or "packed"
        (64 spins per uint64 word; see ``docs/packed_engine.md``).
        Which updaters, fields, couplings, block shapes and drivers
        each dtype combines with is the "What each forbids" table in
        ``docs/engines.md``; :func:`~repro.core.config.check_config`
        applies it when the config is built.
    backend:
        "numpy" (host arithmetic), "tpu" (single simulated TensorCore
        cost model), a pre-built :class:`~repro.backend.base.Backend`,
        or None — the driver's default.  :func:`distributed` builds its
        own per-core TPU backends and only accepts None / "tpu".  The
        TPU cost model runs the elementwise engine only; the fused and
        packed engines run on numpy backends.
    fused:
        Fused sweep engine: "auto" (default), True or False.  Solo and
        ensemble chains on the fused engine record one sweep and replay
        it for every further sweep (:mod:`repro.core.traced`).  On the
        "tpu" backend, and so on :func:`distributed`, "auto" resolves
        to the elementwise engine and ``True`` is refused.
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
        rejected elsewhere; ``backend`` must then be None or "tpu".  The
        old ``core_grid=`` spelling raises.
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
        if isinstance(self.backend, str) and self.backend not in ("numpy", "tpu"):
            raise ValueError(
                f"backend must be 'numpy', 'tpu', a Backend or None, "
                f"got {self.backend!r}"
            )
        model = self.model
        check_config(
            self.shape,
            self.updater,
            resolve_dtype(self.dtype).name,  # raises on junk
            field=self.field or (model.field if model is not None else 0.0),
            couplings=model.couplings if model is not None else "ferro",
            block_shape=self.block_shape,
            fused=self.fused,
            distributed=self.grid is not None,
            backend=(
                backend_kind(self.backend)
                if isinstance(self.backend, Backend)
                else self.backend or "numpy"
            ),
        )
        if self.grid is not None:
            rows, cols = self.grid
            if rows < 1 or cols < 1:
                raise ValueError(f"grid must be positive, got {self.grid}")
            if self.backend is not None and self.backend != "tpu":
                raise ValueError(
                    "a grid config always runs on simulated-TPU per-core "
                    "backends; backend must be None or 'tpu', got "
                    f"{self.backend!r}"
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

    Rejects distributed-only fields (``grid``, ``record_trace``) and
    tempering-only fields (``ladder``) instead of silently ignoring
    them.
    """
    _reject(config, "simulate", "grid", "ladder")
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
    _reject(config, "ensemble", "grid", "ladder")
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
    _reject(config, "tempering", "grid")
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

    Requires ``grid`` (a config with ``grid`` set already holds the pod
    rules: updater "compact" or "conv", no packed dtype, no
    ``fused=True``, ``backend`` None or "tpu"); the per-core backends
    are always simulated-TPU cost models running the elementwise engine.
    """
    if config.grid is None:
        raise ValueError(
            "distributed() needs config.grid=(rows, cols) — e.g. "
            "SimulationConfig(shape=128, grid=(2, 2))"
        )
    _reject(config, "distributed", "ladder")
    _reject_disorder(config, "distributed")
    return DistributedIsing(
        config.shape,
        config.resolved_temperature,
        core_grid=config.grid,
        dtype=config.dtype,
        block_shape=config.block_shape,
        seed=config.seed,
        initial=config.initial,
        record_trace=config.record_trace,
        updater=config.updater,
        field=config.resolved_model.field,
        telemetry=config._resolved_telemetry(),
    )


def load(state: dict, **kwargs):
    """Restore any checkpoint to the class that wrote it.

    Dispatches on the ``checkpoint/v2`` envelope's ``kind`` ("single" /
    "ensemble" / "distributed" / "tempering").  Extra keyword arguments
    forward to the target class's ``from_state_dict`` (e.g.
    ``telemetry=`` for distributed restores — runtime attachments are
    deliberately not part of the checkpoint).

    Any other schema, or a dict with none (a v1 checkpoint), fails
    *here*, by name, before any kind dispatch.
    """
    kind = checkpoint_kind(state)
    loader = {
        "single": IsingSimulation.from_state_dict,
        "ensemble": EnsembleSimulation.from_state_dict,
        "distributed": DistributedIsing.from_state_dict,
        "tempering": TemperingEnsemble.from_state_dict,
    }[kind]
    return loader(state, **kwargs)
