"""Batched ensemble execution: N independent chains in one vectorised sweep.

The Fig. 4 / Binder-cumulant workflow runs one independent chain per
temperature (and replicas for error bars, or f32/bf16 ablation pairs).
Executing those chains as a serial Python loop wastes the vectorisation
the GPU Ising literature (Romero et al.; Bisson et al.) gets by batching
many replicas into one array op.  :class:`EnsembleSimulation` is that
batching for this codebase: every chain's state carries a leading batch
axis, per-chain inverse temperatures enter the Metropolis rule as a
broadcast beta vector, and per-chain Philox keys make the batched draw
*exactly* the B solo draws — so each chain of the ensemble is
bit-identical to the corresponding single :class:`IsingSimulation` fed
the same (seed, stream_id) pair.

Memory: batching materialises all B lattice states (and B uniform
tensors per colour phase) at once, so the working set grows linearly in
the number of chains — the classic throughput-for-footprint trade.  For
host-scale lattices this is what makes small-lattice scans fast; for
HBM-bound lattices pick the batch so ``B * lattice_bytes`` still fits.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from ..backend.base import Backend
from ..backend.numpy_backend import NumpyBackend
from ..observables.energy import energy_per_spin
from ..observables.magnetization import magnetization
from ..rng.streams import BatchedPhiloxStream, PhiloxStream
from ..telemetry.report import RunReport, RunTelemetry
from .checkerboard import CheckerboardUpdater
from .compact import CompactUpdater
from .conv import ConvUpdater, MaskedConvUpdater
from .couplings import BondCouplings, bond_total_energy
from .fused import record_fused_metrics
from .lattice import cold_lattice, random_lattice, validate_spins
from .config import (
    backend_from_checkpoint,
    backend_kind,
    check_checkpoint_dtype,
    checkpoint_envelope,
    default_block_shape,
    resolve_fused,
    unwrap_checkpoint,
)
from .packed import PackedState, PackedUpdater, record_packed_metrics
from .traced import TracedExecutor, record_traced_metrics
from .simulation import (
    ChainResult,
    IsingSimulation,
    _UPDATERS,
    summarize_chain,
)

__all__ = ["EnsembleSimulation"]


class EnsembleSimulation:
    """B independent single-core chains advanced as one batched state.

    Parameters
    ----------
    shape:
        Lattice shape (rows, cols) or a single side length — shared by
        every chain (one geometry, B states).
    temperatures:
        Length-B sequence of temperatures, one per chain.  A temperature
        scan passes the scan grid; replica ensembles repeat one value.
    updater:
        "compact" (default), "conv", "checkerboard" or "masked_conv" —
        the same updater drives all chains.
    backend:
        Op executor shared by the ensemble; default float32 numpy.
    seed:
        Global experiment seed shared by every chain.
    stream_ids:
        Length-B Philox stream ids; defaults to ``range(B)``.  Chain b
        is bit-identical to ``IsingSimulation(..., seed=seed,
        stream_id=stream_ids[b])``.
    initial:
        "hot" / "cold" (applied to every chain), a length-B sequence of
        those strings, or an explicit ``(B, rows, cols)`` +/-1 array.
    block_shape:
        Grid block decomposition, as in :class:`IsingSimulation`.
    field:
        External magnetic field h, shared by every chain.
    fused:
        Fused sweep engine selection: ``"auto"`` (default — on for numpy
        backends, off for TPU cost-model backends), or an explicit
        bool.  The fused ensemble builds one per-chain
        :class:`~repro.core.accept.AcceptanceTable` (10 entries per
        chain) and keeps chains bit-identical to the elementwise path.
        Under the fused engine one recorded sweep is replayed for all
        chains at once (see :mod:`repro.core.traced`), so the whole
        batch amortises a single program; roster changes
        (:meth:`add_chain` / :meth:`remove_chain`) and re-tempering
        re-record on the next sweep.
    telemetry:
        Optional :class:`~repro.telemetry.report.RunTelemetry` recorder
        (same contract as :class:`IsingSimulation`: absent by default,
        zero-cost when disabled, RNG-neutral when enabled).  Physics
        samples record the chain-averaged magnetization / energy and the
        cross-chain mean flip activity.
    """

    def __init__(
        self,
        shape: int | tuple[int, int],
        temperatures: Sequence[float] | np.ndarray,
        updater: str = "compact",
        backend: Backend | None = None,
        seed: int = 0,
        stream_ids: Iterable[int] | None = None,
        initial: str | Sequence[str] | np.ndarray = "hot",
        block_shape: tuple[int, int] | None = None,
        field: float = 0.0,
        fused: "bool | str" = "auto",
        telemetry: RunTelemetry | None = None,
        couplings: BondCouplings | None = None,
    ) -> None:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape), int(shape))
        rows, cols = shape
        if rows % 2 or cols % 2:
            raise ValueError(f"lattice sides must be even, got {shape}")
        temps = np.asarray(temperatures, dtype=np.float64)
        if temps.ndim != 1 or temps.size == 0:
            raise ValueError(
                f"temperatures must be a non-empty 1D sequence, got shape {temps.shape}"
            )
        if np.any(temps <= 0):
            raise ValueError(f"temperatures must be positive, got {temps}")
        if updater not in _UPDATERS:
            raise ValueError(
                f"unknown updater {updater!r}; expected one of {sorted(_UPDATERS)}"
            )

        self.shape = (int(rows), int(cols))
        self.temperatures = temps
        self.betas = 1.0 / temps
        self.n_chains = int(temps.size)
        self.field = float(field)
        self.backend = backend if backend is not None else NumpyBackend()
        self.updater_name = updater
        self.seed = int(seed)
        #: Per-chain Philox seeds.  The constructor broadcasts the shared
        #: ``seed``; chains joined through :meth:`add_chain` /
        #: :meth:`from_chains` may carry their own (the batched stream
        #: keys every chain independently either way).
        self.seeds = [self.seed] * self.n_chains
        self.sweeps_done = 0
        self.telemetry = telemetry
        self.packed = self.backend.dtype.name == "packed"
        self.fused_config = resolve_fused(fused)
        if self.packed:
            # The packed engine exists only in workspace-backed *_into
            # form, so it is always "fused" regardless of backend kind.
            if self.fused_config is False:
                raise ValueError(
                    "dtype='packed' has no elementwise path: the packed "
                    "engine is workspace-backed only; drop fused=False or "
                    "use dtype='float32'"
                )
            self.fused = True
        else:
            self.fused = (
                backend_kind(self.backend) == "numpy"
                if self.fused_config == "auto"
                else self.fused_config
            )

        if stream_ids is None:
            stream_ids = range(self.n_chains)
        self.stream_ids = [int(s) for s in stream_ids]
        if len(self.stream_ids) != self.n_chains:
            raise ValueError(
                f"{len(self.stream_ids)} stream ids for {self.n_chains} chains"
            )

        if self.packed:
            if updater not in ("compact", "checkerboard"):
                raise ValueError(
                    f"dtype='packed' supports updater='compact' or "
                    f"'checkerboard' (both run the packed multi-spin "
                    f"engine); {updater!r} has no packed kernels — use "
                    f"dtype='float32' for it"
                )
            if self.field:
                raise ValueError(
                    "dtype='packed' requires field=0.0: the three-case "
                    f"Metropolis collapse assumes h = 0 (got {self.field!r}); "
                    "use dtype='float32' for runs with a field"
                )
            if block_shape is not None:
                raise ValueError(
                    "dtype='packed' does not take a block_shape: spins are "
                    "stored as 64-bit words per compact quarter, not "
                    "blocked grids"
                )
            if cols % 128:
                raise ValueError(
                    f"dtype='packed' needs the lattice width to be a "
                    f"multiple of 128 (each compact quarter packs into "
                    f"whole 64-bit words), got {cols}"
                )
        elif updater == "masked_conv":
            if block_shape is not None:
                raise ValueError("masked_conv does not take a block_shape")
        elif block_shape is None:
            block_shape = default_block_shape(updater, self.shape)
        self.block_shape = block_shape

        # Quenched per-bond disorder: ferro collapses to None (the clean
        # fast path); real disorder currently runs on the plain-lattice
        # masked_conv updater, whose weighted neighbour sum carries the
        # bond planes (see docs/tempering.md for the support matrix).
        if couplings is not None and couplings.kind == "ferro":
            couplings = None
        if couplings is not None:
            if self.packed:
                raise ValueError(
                    "dtype='packed' supports couplings='ferro' only: the "
                    "three-case Metropolis collapse assumes uniform J = 1; "
                    "use dtype='float32' with updater='masked_conv' for "
                    "disordered bonds"
                )
            if updater != "masked_conv":
                raise ValueError(
                    f"disordered couplings ({couplings.kind!r}) require "
                    f"updater='masked_conv' (the compact/blocked updaters "
                    f"have no per-bond kernels yet); got {updater!r}"
                )
            if tuple(couplings.shape) != self.shape:
                raise ValueError(
                    f"bond coupling shape {tuple(couplings.shape)} != "
                    f"lattice shape {self.shape}"
                )
        self.couplings = couplings
        self._updater = self._build_updater()
        self.block_shape = getattr(self._updater, "block_shape", None)
        self._executor = TracedExecutor(self._updater) if self.fused else None

        # Per-chain initial states, drawn from each chain's own solo
        # stream so hot starts match the corresponding IsingSimulation
        # draw-for-draw; the batched stream then inherits the counters.
        streams = [PhiloxStream(self.seed, sid) for sid in self.stream_ids]
        if isinstance(initial, str):
            initial = [initial] * self.n_chains
        if isinstance(initial, np.ndarray):
            plains = np.asarray(initial, dtype=np.float32)
            if plains.shape != (self.n_chains,) + self.shape:
                raise ValueError(
                    f"initial lattice stack shape {plains.shape} != "
                    f"{(self.n_chains,) + self.shape}"
                )
            for b in range(self.n_chains):
                validate_spins(plains[b])
        else:
            if len(initial) != self.n_chains:
                raise ValueError(
                    f"{len(initial)} initial states for {self.n_chains} chains"
                )
            chain_plains = []
            for start, stream in zip(initial, streams):
                if start == "hot":
                    chain_plains.append(random_lattice(self.shape, stream))
                elif start == "cold":
                    chain_plains.append(cold_lattice(self.shape))
                else:
                    raise ValueError(
                        f"initial must be 'hot', 'cold' or an array, got {start!r}"
                    )
            plains = np.stack(chain_plains)
        self.stream = BatchedPhiloxStream.from_streams(streams)
        self._state = self._updater.to_state(plains)

    def _build_updater(self):
        """Construct the batched updater for the current chain roster.

        The per-chain beta vector broadcasts against the batched state:
        rank-3 (batch, rows, cols) for masked_conv, rank-5 grids for the
        blocked updaters.  Called at construction and again whenever the
        roster changes (:meth:`add_chain` / :meth:`remove_chain`) — the
        updaters precompute per-chain acceptance tables from the beta
        vector, so a roster change rebuilds them.
        """
        if self.packed:
            # The packed updater broadcasts its own (B,) thresholds over
            # the batched (B, rows/2, cols/128) word planes.
            return PackedUpdater(self.betas, self.backend, field=self.field)
        state_rank = 3 if self.updater_name == "masked_conv" else 5
        beta_vec = self.betas.reshape((self.n_chains,) + (1,) * (state_rank - 1))
        if self.updater_name == "masked_conv":
            return MaskedConvUpdater(
                beta_vec,
                self.backend,
                field=self.field,
                fused=self.fused,
                couplings=self.couplings,
            )
        if self.updater_name == "checkerboard":
            return CheckerboardUpdater(
                beta_vec,
                self.backend,
                block_shape=self.block_shape,
                field=self.field,
                fused=self.fused,
            )
        updater_cls = ConvUpdater if self.updater_name == "conv" else CompactUpdater
        return updater_cls(
            beta_vec,
            self.backend,
            block_shape=self.block_shape,
            field=self.field,
            fused=self.fused,
        )

    # -- state access -------------------------------------------------------

    @property
    def lattices(self) -> np.ndarray:
        """The current plain +/-1 lattices, shaped ``(B, rows, cols)``."""
        return self._updater.to_plain(self._state)

    @property
    def n_sites(self) -> int:
        return self.shape[0] * self.shape[1]

    def to_single(self, index: int) -> IsingSimulation:
        """Split chain ``index`` out as an equivalent solo simulation.

        The returned :class:`IsingSimulation` shares the ensemble's
        backend and continues the chain bit-identically from the current
        lattice and Philox counter.
        """
        if not 0 <= index < self.n_chains:
            raise IndexError(
                f"chain index {index} out of range for {self.n_chains} chains"
            )
        if self.couplings is not None:
            raise ValueError(
                "disordered-coupling chains cannot split out: "
                "IsingSimulation runs the clean ferromagnet only; keep "
                "them batched in the ensemble"
            )
        sim = IsingSimulation(
            self.shape,
            float(self.temperatures[index]),
            updater=self.updater_name,
            backend=self.backend,
            seed=self.seeds[index],
            stream_id=self.stream_ids[index],
            initial=np.asarray(self.lattices[index], dtype=np.float32),
            block_shape=self.block_shape,
            field=self.field,
        )
        sim.stream = self.stream.chain(index)
        sim.sweeps_done = self.sweeps_done
        return sim

    # -- continuous batching (join/leave at sweep boundaries) ----------------

    @classmethod
    def from_chains(
        cls,
        shape: int | tuple[int, int],
        chains: "Sequence[tuple[float, PhiloxStream, np.ndarray]]",
        updater: str = "compact",
        backend: Backend | None = None,
        block_shape: tuple[int, int] | None = None,
        field: float = 0.0,
        fused: "bool | str" = "auto",
        telemetry: RunTelemetry | None = None,
        couplings: BondCouplings | None = None,
    ) -> "EnsembleSimulation":
        """Build an ensemble from explicit ``(temperature, stream, lattice)`` rows.

        This is the continuous-batching entry point: each chain arrives
        with its *own* Philox stream (seed, stream id **and** counter
        position) and its current plain lattice, so chains mid-flight —
        restored from checkpoints, split out of other ensembles, or fresh
        — batch together and each continues bit-identically to the solo
        :class:`IsingSimulation` it came from.  Counters need not be
        aligned across chains.
        """
        if not chains:
            raise ValueError("need at least one chain")
        temps = [float(t) for t, _, _ in chains]
        streams = [s for _, s, _ in chains]
        plains = np.stack(
            [np.asarray(p, dtype=np.float32) for _, _, p in chains]
        )
        ensemble = cls(
            shape,
            temps,
            updater=updater,
            backend=backend,
            seed=streams[0].seed,
            stream_ids=[s.stream_id for s in streams],
            initial=plains,
            block_shape=block_shape,
            field=field,
            fused=fused,
            telemetry=telemetry,
            couplings=couplings,
        )
        ensemble.stream = BatchedPhiloxStream.from_streams(streams)
        ensemble.seeds = [s.seed for s in streams]
        return ensemble

    def _rebuild_roster(
        self,
        temps: np.ndarray,
        plains: np.ndarray,
        streams: "list[PhiloxStream]",
    ) -> None:
        """Re-batch the given chain roster; each chain's lattice and
        Philox counter carry over exactly, so siblings are undisturbed."""
        self.temperatures = np.asarray(temps, dtype=np.float64)
        self.betas = 1.0 / self.temperatures
        self.n_chains = int(self.temperatures.size)
        self.seeds = [s.seed for s in streams]
        self.stream_ids = [s.stream_id for s in streams]
        self._updater = self._build_updater()
        self.stream = BatchedPhiloxStream.from_streams(streams)
        self._state = self._updater.to_state(
            np.asarray(plains, dtype=np.float32)
        )
        if self._executor is not None:
            # New batch width, fresh tensors: the recorded program no
            # longer matches — drop it and re-record on the next sweep.
            self._executor.rebind(self._updater)

    def add_chain(
        self, temperature: float, stream: PhiloxStream, lattice: np.ndarray
    ) -> int:
        """Join one chain to the batch at a sweep boundary.

        ``stream`` is the chain's own :class:`PhiloxStream`, positioned
        where its next draw must start; ``lattice`` is its current plain
        +/-1 state.  Sibling chains' lattices and counters are untouched,
        so their trajectories stay bit-identical to an undisturbed run —
        only the batch width changes.  Returns the new chain's index.
        """
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        plain = np.asarray(lattice, dtype=np.float32)
        if plain.shape != self.shape:
            raise ValueError(
                f"joining lattice shape {plain.shape} != {self.shape}"
            )
        validate_spins(plain)
        temps = np.append(self.temperatures, float(temperature))
        plains = np.concatenate([self.lattices, plain[None]], axis=0)
        streams = [self.stream.chain(b) for b in range(self.n_chains)]
        streams.append(stream)
        self._rebuild_roster(temps, plains, streams)
        return self.n_chains - 1

    def remove_chain(self, index: int) -> tuple[np.ndarray, PhiloxStream]:
        """Leave the batch at a sweep boundary, returning the chain's state.

        Returns the removed chain's ``(lattice, stream)`` — everything a
        solo :class:`IsingSimulation` (or a later :meth:`add_chain`)
        needs to continue it bit-identically.  The surviving chains keep
        their exact lattices and Philox counters.  The last chain cannot
        be removed; retire the whole ensemble instead.
        """
        if not 0 <= index < self.n_chains:
            raise IndexError(
                f"chain index {index} out of range for {self.n_chains} chains"
            )
        if self.n_chains == 1:
            raise ValueError(
                "cannot remove the last chain of an ensemble; "
                "drop the ensemble object instead"
            )
        plains = self.lattices
        removed = (
            np.asarray(plains[index], dtype=np.float32),
            self.stream.chain(index),
        )
        keep = [b for b in range(self.n_chains) if b != index]
        self._rebuild_roster(
            self.temperatures[keep],
            plains[keep],
            [self.stream.chain(b) for b in keep],
        )
        return removed

    def set_temperatures(self, temperatures: "Sequence[float] | np.ndarray") -> None:
        """Re-temper every chain in place, at a sweep boundary.

        This is the replica-exchange primitive: lattices and Philox
        counters are untouched (states never move between chains — only
        the betas do), so each chain's future trajectory is exactly the
        one it would have had if constructed at the new temperature with
        its current lattice and counter.  Cheap by design: updaters that
        expose :meth:`retemper` keep their workspaces and rebuild only
        the per-chain acceptance table; the packed engine rebuilds its
        threshold updater.  Any recorded trace is dropped and re-records
        on the next sweep.
        """
        temps = np.asarray(temperatures, dtype=np.float64)
        if temps.shape != (self.n_chains,):
            raise ValueError(
                f"expected {self.n_chains} temperatures, got shape {temps.shape}"
            )
        if np.any(temps <= 0):
            raise ValueError(f"temperatures must be positive, got {temps}")
        self.temperatures = temps
        self.betas = 1.0 / temps
        retemper = getattr(self._updater, "retemper", None)
        if retemper is None or self.packed:
            self._updater = self._build_updater()
        else:
            state_rank = 3 if self.updater_name == "masked_conv" else 5
            retemper(
                self.betas.reshape((self.n_chains,) + (1,) * (state_rank - 1))
            )
        if self._executor is not None:
            # The recorded sweep references the old acceptance table's
            # entries; drop it and re-record on the next sweep.
            self._executor.rebind(self._updater)

    # -- evolution -----------------------------------------------------------

    def _advance(self, n_sweeps: int) -> None:
        """Advance ``n_sweeps`` sweeps: replayed under the fused engine,
        eager updater sweeps on the elementwise path."""
        executor = self._executor
        if executor is not None:
            self._state = executor.run(self._state, self.stream, n_sweeps)
        else:
            for _ in range(n_sweeps):
                self._state = self._updater.sweep(self._state, self.stream)
        self.sweeps_done += n_sweeps

    def sweep(self) -> None:
        """Advance every chain by one full lattice sweep (both colours)."""
        telemetry = self.telemetry
        if telemetry is None:
            self._advance(1)
            return
        start = perf_counter()
        self._advance(1)
        telemetry.record_sweep(perf_counter() - start)
        if telemetry.wants_physics(self.sweeps_done):
            plains = self.lattices
            mean_m = float(
                np.mean([magnetization(p) for p in plains])
            )
            if self.couplings is not None:
                mean_e = float(
                    np.mean(bond_total_energy(plains, self.couplings))
                    / self.n_sites
                )
            else:
                mean_e = float(
                    np.mean([energy_per_spin(p) for p in plains])
                )
            telemetry.record_physics(plains, mean_m, mean_e)

    def run(self, n_sweeps: int) -> None:
        """Advance every chain by ``n_sweeps`` sweeps.

        Without telemetry the whole batch goes to ``_advance`` in one
        call; with telemetry, sweeps advance one at a time to keep
        per-sweep wall times.
        """
        if n_sweeps < 0:
            raise ValueError(f"n_sweeps must be >= 0, got {n_sweeps}")
        if self.telemetry is None:
            if n_sweeps:
                self._advance(n_sweeps)
            return
        for _ in range(n_sweeps):
            self.sweep()

    # -- observables ---------------------------------------------------------

    def magnetizations(self) -> np.ndarray:
        """Per-chain signed magnetization, shaped ``(B,)``."""
        plains = self.lattices
        return np.array([magnetization(p) for p in plains], dtype=np.float64)

    def energies_per_spin(self) -> np.ndarray:
        """Per-chain (zero-field) energy per site, shaped ``(B,)``.

        With disordered couplings the bond energy uses the quenched
        ``J_ij`` planes; the clean ferromagnet keeps the historical
        :func:`~repro.observables.energy.energy_per_spin` estimator.
        """
        plains = self.lattices
        if self.couplings is not None:
            return bond_total_energy(plains, self.couplings) / self.n_sites
        return np.array([energy_per_spin(p) for p in plains], dtype=np.float64)

    def total_energies(self) -> np.ndarray:
        """Per-chain total Hamiltonian (couplings- and field-aware), ``(B,)``.

        This is the energy the replica-exchange swap test consumes:
        ``H = -sum_<ij> J_ij s_i s_j - h sum_i s_i`` evaluated in float64
        on the plain lattices, vectorised over the whole batch.
        """
        return bond_total_energy(self.lattices, self.couplings, field=self.field)

    # -- sampling ------------------------------------------------------------

    def sample(
        self,
        n_samples: int,
        burn_in: int = 0,
        thin: int = 1,
    ) -> list[ChainResult]:
        """Burn in, then record per-sweep m and e for every chain.

        Returns one :class:`ChainResult` per chain, in chain order, each
        computed with the same estimators as
        :meth:`IsingSimulation.sample` — a batched scan summarises
        identically to the serial loop it replaces.
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        if thin <= 0:
            raise ValueError(f"thin must be positive, got {thin}")
        self.run(burn_in)
        m_series = np.empty((self.n_chains, n_samples), dtype=np.float64)
        e_series = np.empty((self.n_chains, n_samples), dtype=np.float64)
        for k in range(n_samples):
            self.run(thin)
            plains = self.lattices
            for b in range(self.n_chains):
                m_series[b, k] = magnetization(plains[b])
            if self.couplings is not None:
                e_series[:, k] = (
                    bond_total_energy(plains, self.couplings) / self.n_sites
                )
            else:
                for b in range(self.n_chains):
                    e_series[b, k] = energy_per_spin(plains[b])
        return [
            summarize_chain(self.temperatures[b], m_series[b], e_series[b])
            for b in range(self.n_chains)
        ]

    # -- telemetry -----------------------------------------------------------

    def report(self) -> RunReport:
        """Build the ensemble's :class:`~repro.telemetry.report.RunReport`.

        Requires an attached telemetry recorder.  ``rng.streams`` carries
        every chain's final Philox counter position, in chain order.
        """
        if self.telemetry is None:
            raise RuntimeError(
                "no telemetry attached; construct with "
                "EnsembleSimulation(..., telemetry=RunTelemetry())"
            )
        registry = self.telemetry.registry
        registry.gauge("sweeps_done").set(self.sweeps_done)
        registry.gauge("n_chains").set(self.n_chains)
        record_fused_metrics(registry, self._updater)
        record_traced_metrics(registry, self._executor)
        record_packed_metrics(registry, self._updater)
        streams = [
            {"seed": seed, "stream_id": sid, "counter": counter}
            for seed, sid, counter in zip(
                self.stream.seeds, self.stream.stream_ids, self.stream.counters
            )
        ]
        return self.telemetry.build_report(
            kind="ensemble",
            run={
                "shape": self.shape,
                "temperatures": self.temperatures.tolist(),
                "field": self.field,
                "updater": self.updater_name,
                "backend": backend_kind(self.backend),
                "dtype": self.backend.dtype.name,
                "block_shape": self.block_shape,
                "seed": self.seed,
                "n_chains": self.n_chains,
                "sweeps_done": self.sweeps_done,
                "fused": self.fused,
                "couplings": (
                    "ferro" if self.couplings is None else self.couplings.kind
                ),
                "disorder_seed": (
                    None if self.couplings is None else self.couplings.disorder_seed
                ),
            },
            rng={"streams": streams},
        )

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable checkpoint of the whole ensemble.

        Emitted as a versioned ``checkpoint/v2`` envelope.  Round-trips
        everything a resume needs for bit-identical continuation:
        lattices, per-chain RNG counters, backend kind, dtype and block
        decomposition.  Packed ensembles additionally store the batched
        word planes (see :meth:`IsingSimulation.state_dict`), so resume
        is bit-identical at the word level.
        """
        payload = {
            "shape": self.shape,
            "temperatures": self.temperatures.tolist(),
            "field": self.field,
            "updater": self.updater_name,
            "backend": backend_kind(self.backend),
            "dtype": self.backend.dtype.name,
            "block_shape": self.block_shape,
            "seed": self.seed,
            "fused": self.fused_config,
            "lattices": self.lattices,
            "stream": self.stream.state(),
            "sweeps_done": self.sweeps_done,
        }
        if self.couplings is not None:
            # The arrays regenerate bit-identically from the token.
            payload["couplings"] = self.couplings.state_token()
        if self.packed:
            payload["packed"] = {
                "word_bits": 64,
                "bit_order": "little",
                "rng_bits": self._updater.rng_bits,
                "quarter_shape": self._state.quarter_shape,
                "words": {
                    name: getattr(self._state, name).copy()
                    for name in ("w00", "w01", "w10", "w11")
                },
            }
        return checkpoint_envelope("ensemble", payload)

    @classmethod
    def from_state_dict(
        cls, state: dict, backend: Backend | None = None
    ) -> "EnsembleSimulation":
        """Rebuild an ensemble from :meth:`state_dict` output.

        Accepts the ``checkpoint/v2`` envelope or (with a
        :class:`DeprecationWarning`) a legacy v1 dict.
        """
        state = unwrap_checkpoint(state, "ensemble")
        if backend is None:
            backend = backend_from_checkpoint(
                state.get("backend", "numpy"), state["dtype"]
            )
        check_checkpoint_dtype(state["dtype"], backend)
        block_shape = state.get("block_shape")
        coup = state.get("couplings")
        couplings = (
            BondCouplings.generate(
                coup["kind"], tuple(state["shape"]), coup["disorder_seed"]
            )
            if coup is not None
            else None
        )
        ensemble = cls(
            tuple(state["shape"]),
            state["temperatures"],
            updater=state["updater"],
            backend=backend,
            seed=state["seed"],
            stream_ids=state["stream"]["stream_ids"],
            initial=np.asarray(state["lattices"], dtype=np.float32),
            block_shape=tuple(block_shape) if block_shape is not None else None,
            field=state["field"],
            fused=state.get("fused", "auto"),
            couplings=couplings,
        )
        if ensemble.packed:
            ensemble._restore_packed(state.get("packed"))
        ensemble.stream = BatchedPhiloxStream.from_state(state["stream"])
        ensemble.seeds = list(ensemble.stream.seeds)
        ensemble.sweeps_done = int(state["sweeps_done"])
        return ensemble

    def _restore_packed(self, packed: dict | None) -> None:
        """Rebuild the batched packed word planes from a checkpoint payload."""
        if packed is None:
            raise ValueError(
                "checkpoint has no packed payload: it was written by an "
                "unpacked ensemble and cannot resume as dtype='packed' (the "
                "packed stream mode consumes randomness on a different "
                "counter schedule); resume on the checkpoint's own dtype, "
                "or start a fresh packed run from its lattices"
            )
        if packed.get("word_bits", 64) != 64 or packed.get("bit_order", "little") != "little":
            raise ValueError(
                f"unsupported packed word layout {packed.get('word_bits')!r}-bit "
                f"/ {packed.get('bit_order')!r}; this build packs 64-spin "
                "little-endian words"
            )
        rng_bits = int(packed.get("rng_bits", 16))
        if rng_bits != self._updater.rng_bits:
            self._updater = PackedUpdater(
                self.betas, self.backend, rng_bits=rng_bits
            )
            self._executor.rebind(self._updater)
        words = {
            # astype normalises foreign-endian checkpoint words to the
            # native representation; the *values* are host-independent.
            name: np.ascontiguousarray(
                np.asarray(packed["words"][name]).astype(np.uint64, copy=False)
            )
            for name in ("w00", "w01", "w10", "w11")
        }
        self._state = PackedState(
            words["w00"],
            words["w01"],
            words["w10"],
            words["w11"],
            tuple(packed["quarter_shape"]),
        )
