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
bit-identical to the corresponding single
:class:`~repro.core.simulation.IsingSimulation` fed the same
(seed, stream_id) pair.  That solo driver is this class run with one
chain.

Memory: batching materialises all B lattice states (and B uniform
tensors per colour phase) at once, so the working set grows linearly in
the number of chains — the classic throughput-for-footprint trade.  For
host-scale lattices this is what makes small-lattice scans fast; for
HBM-bound lattices pick the batch so ``B * lattice_bytes`` still fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from ..backend.base import Backend
from ..backend.numpy_backend import NumpyBackend
from ..observables.energy import energy_per_spin
from ..observables.magnetization import magnetization
from ..observables.stats import blocking_error, binder_jackknife
from ..rng.streams import BatchedPhiloxStream, PhiloxStream
from ..telemetry.report import RunReport, RunTelemetry
from .checkerboard import CheckerboardUpdater
from .compact import CompactUpdater
from .config import (
    backend_from_checkpoint,
    backend_kind,
    check_checkpoint_dtype,
    check_config,
    checkpoint_envelope,
    default_block_shape,
    resolve_fused,
    unwrap_checkpoint,
)
from .conv import ConvUpdater, MaskedConvUpdater
from .couplings import BondCouplings, bond_total_energy
from .fused import record_fused_metrics
from .lattice import initial_lattices, validate_spins
from .packed import RNG_BITS, PackedState, PackedUpdater
from .traced import TracedExecutor, record_traced_metrics

__all__ = ["EnsembleSimulation", "ChainResult", "summarize_chain"]


def _make_updater(
    updater: str,
    beta: "float | np.ndarray",
    backend: Backend,
    block_shape: "tuple[int, int] | None",
    field: float,
    fused: bool,
    couplings=None,
):
    """The sweep updater a checked configuration runs.

    A packed backend gets the packed multi-spin engine (for either of
    its updater names); otherwise ``updater`` names the float updater.
    ``beta`` is a scalar for one chain or a per-chain array shaped to
    broadcast against a batched state.
    """
    if backend.dtype.name == "packed":
        return PackedUpdater(beta, backend, field=field)
    if updater == "masked_conv":
        return MaskedConvUpdater(
            beta, backend, field=field, fused=fused, couplings=couplings
        )
    updater_cls = {
        "compact": CompactUpdater,
        "conv": ConvUpdater,
        "checkerboard": CheckerboardUpdater,
    }[updater]
    return updater_cls(
        beta, backend, block_shape=block_shape, field=field, fused=fused
    )


@dataclass
class ChainResult:
    """Summary statistics of one sampled chain at a fixed temperature."""

    temperature: float
    n_samples: int
    abs_m: float
    abs_m_err: float
    m2: float
    m4: float
    u4: float
    u4_err: float
    energy: float
    energy_err: float
    m_series: np.ndarray = dataclass_field(repr=False)
    e_series: np.ndarray = dataclass_field(repr=False)


def summarize_chain(
    temperature: float, m_series: np.ndarray, e_series: np.ndarray
) -> ChainResult:
    """Blocking / jackknife summary of one chain's per-sweep series.

    Every chain of :meth:`EnsembleSimulation.sample` goes through it, so
    a batched scan summarises identically to a serial loop of solo
    chains (the per-chain bit-identity tests rely on it).
    """
    m_series = np.asarray(m_series, dtype=np.float64)
    e_series = np.asarray(e_series, dtype=np.float64)
    n_samples = int(m_series.size)
    n_blocks = min(32, max(2, n_samples // 4))
    abs_m, abs_m_err = blocking_error(np.abs(m_series), n_blocks=n_blocks)
    energy, energy_err = blocking_error(e_series, n_blocks=n_blocks)
    u4, u4_err = binder_jackknife(m_series, n_blocks=n_blocks)
    m_sq = m_series * m_series
    return ChainResult(
        temperature=float(temperature),
        n_samples=n_samples,
        abs_m=abs_m,
        abs_m_err=abs_m_err,
        m2=float(np.mean(m_sq)),
        m4=float(np.mean(m_sq * m_sq)),
        u4=u4,
        u4_err=u4_err,
        energy=energy,
        energy_err=energy_err,
        m_series=m_series,
        e_series=e_series,
    )


def _magnetizations(plains: np.ndarray) -> np.ndarray:
    """Per-chain signed magnetization of a ``(B, rows, cols)`` stack."""
    return np.array([magnetization(p) for p in plains], dtype=np.float64)


def _open_checkpoint(
    state: dict, kind: str, backend: "Backend | None"
) -> "tuple[dict, Backend, tuple[int, int] | None]":
    """Unwrap a ``kind`` checkpoint; resolve the backend and block shape
    it resumes on.

    The checkpoint's backend kind ("numpy" / "tpu") and dtype are
    round-tripped unless ``backend`` is given (e.g. a TPUBackend bound
    to a specific simulated core); unknown kinds or dtype names raise.
    """
    state = unwrap_checkpoint(state, kind)
    if backend is None:
        backend = backend_from_checkpoint(
            state.get("backend", "numpy"), state["dtype"]
        )
    check_checkpoint_dtype(state["dtype"], backend)
    block_shape = state.get("block_shape")
    return state, backend, tuple(block_shape) if block_shape is not None else None


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
        is bit-identical to the solo ``IsingSimulation(..., seed=seed,
        stream_id=stream_ids[b])``.
    initial:
        "hot" / "cold" or one +/-1 ``(rows, cols)`` lattice (applied to
        every chain), or a length-B sequence of per-chain starts — those
        strings or lattices, e.g. an explicit ``(B, rows, cols)`` array.
    block_shape:
        Grid block decomposition for the blocked updaters (defaults to
        a 2x2 grid of half-lattice blocks for compact and conv, one
        whole-lattice block for checkerboard).
    field:
        External magnetic field h, shared by every chain.
    fused:
        Fused sweep engine selection: ``"auto"`` (default — on for numpy
        backends, off for TPU cost-model backends), or an explicit bool
        (``True`` is refused on TPU cost-model backends, which run the
        elementwise engine only).  The fused ensemble builds one per-chain
        :class:`~repro.core.accept.AcceptanceTable` (10 entries per
        chain) and keeps chains bit-identical to the elementwise path.
        Under the fused engine one recorded sweep is replayed for all
        chains at once (see :mod:`repro.core.traced`), so the whole
        batch amortises a single program; roster changes
        (:meth:`add_chain` / :meth:`remove_chain`) re-record on the next
        sweep, while re-tempering keeps the program.
    telemetry:
        Optional :class:`~repro.telemetry.report.RunTelemetry` recorder.
        When omitted (the default) the sweep loop pays one ``is None``
        branch — no timing calls, no per-sweep allocation; when attached,
        sweep wall times and sampled physics signals (the chain-averaged
        magnetization / energy and the cross-chain mean flip activity)
        are recorded and :meth:`report` emits a
        :class:`~repro.telemetry.report.RunReport`.  Telemetry never
        touches the RNG stream, so instrumented chains stay bit-identical.
    """

    def __init__(
        self,
        shape: int | tuple[int, int],
        temperatures: Sequence[float] | np.ndarray,
        updater: str = "compact",
        backend: Backend | None = None,
        seed: int = 0,
        stream_ids: Iterable[int] | None = None,
        initial: "str | Sequence[str | np.ndarray] | np.ndarray" = "hot",
        block_shape: tuple[int, int] | None = None,
        field: float = 0.0,
        fused: "bool | str" = "auto",
        telemetry: RunTelemetry | None = None,
        couplings: BondCouplings | None = None,
    ) -> None:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape), int(shape))
        self.backend = backend if backend is not None else NumpyBackend()
        dtype = self.backend.dtype.name
        # Quenched per-bond disorder: ferro collapses to None (the clean
        # fast path); real disorder runs on the plain-lattice masked_conv
        # updater, whose weighted neighbour sum carries the bond planes.
        if couplings is not None and couplings.kind == "ferro":
            couplings = None
        check_config(
            shape,
            updater,
            dtype,
            field=field,
            couplings=couplings.kind if couplings is not None else "ferro",
            block_shape=block_shape,
            fused=fused,
            backend=backend_kind(self.backend),
        )
        temps = np.asarray(temperatures, dtype=np.float64)
        if temps.ndim != 1 or temps.size == 0:
            raise ValueError(
                f"temperatures must be a non-empty 1D sequence, got shape {temps.shape}"
            )
        if np.any(temps <= 0):
            raise ValueError(f"temperatures must be positive, got {temps}")

        self.shape = (int(shape[0]), int(shape[1]))
        self.temperatures = temps
        self.betas = 1.0 / temps
        self.n_chains = int(temps.size)
        self.field = float(field)
        self.updater_name = updater
        self.seed = int(seed)
        self.sweeps_done = 0
        self.telemetry = telemetry
        self.packed = dtype == "packed"
        self.fused_config = fused
        self.fused = resolve_fused(fused, backend_kind(self.backend), dtype)

        if stream_ids is None:
            stream_ids = range(self.n_chains)
        stream_ids = [int(s) for s in stream_ids]
        if len(stream_ids) != self.n_chains:
            raise ValueError(
                f"{len(stream_ids)} stream ids for {self.n_chains} chains"
            )

        if block_shape is None:
            block_shape = default_block_shape(updater, self.shape, dtype)
        self.block_shape = block_shape
        if couplings is not None and tuple(couplings.shape) != self.shape:
            raise ValueError(
                f"bond coupling shape {tuple(couplings.shape)} != "
                f"lattice shape {self.shape}"
            )
        self.couplings = couplings
        self._updater = self._build_updater()
        self.block_shape = getattr(self._updater, "block_shape", None)
        self._executor = TracedExecutor(self._updater) if self.fused else None

        # Per-chain initial states: every hot chain draws from its own
        # stream, all in one batched draw, so hot starts match a lone
        # chain draw-for-draw; the batched stream then inherits the
        # counters.
        streams = [PhiloxStream(self.seed, sid) for sid in stream_ids]
        # One string or one 2-D lattice starts every chain.  Not
        # np.ndim: it raises on a mixed list of strings and arrays.
        if isinstance(initial, str) or (
            isinstance(initial, np.ndarray) and initial.ndim == 2
        ):
            initial = [initial] * self.n_chains
        if len(initial) != self.n_chains:
            raise ValueError(
                f"initial lattice stack of {len(initial)} states for "
                f"{self.n_chains} chains"
            )
        plains, streams = initial_lattices(self.shape, initial, streams)
        self.stream = BatchedPhiloxStream.from_streams(streams)
        self._state = self._updater.to_state(plains)

    def _build_updater(self):
        """Construct the batched updater for the current chain roster.

        Called at construction and when the roster changes
        (:meth:`add_chain` / :meth:`remove_chain`: a new batch width
        needs new tables and buffers).  New betas alone go through
        :meth:`set_temperatures`, which keeps the updater.
        """
        return _make_updater(
            self.updater_name,
            self._beta_vector(),
            self.backend,
            self.block_shape,
            self.field,
            self.fused,
            couplings=self.couplings,
        )

    def _beta_vector(self) -> "float | np.ndarray":
        """The betas as the updaters take them.

        One chain gets its scalar beta, so the acceptance table keeps
        the 0-d offset and the op sequence of a lone chain.  Otherwise
        the per-chain betas are shaped to broadcast against the batched
        state: ``(B,)`` for the packed engine's thresholds over its
        ``(B, rows/2, cols/128)`` word planes, rank-3 ``(batch, rows,
        cols)`` for masked_conv, rank-5 grids for the blocked updaters."""
        if self.n_chains == 1:
            return float(self.betas[0])
        if self.packed:
            return self.betas
        state_rank = 3 if self.updater_name == "masked_conv" else 5
        return self.betas.reshape((self.n_chains,) + (1,) * (state_rank - 1))

    # -- state access -------------------------------------------------------

    @property
    def lattices(self) -> np.ndarray:
        """The current plain +/-1 lattices, shaped ``(B, rows, cols)``."""
        return self._updater.to_plain(self._state)

    @property
    def n_sites(self) -> int:
        return self.shape[0] * self.shape[1]

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
        chain it came from.  Counters need not be aligned across chains.
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
        solo chain (or a later :meth:`add_chain`) needs to continue it
        bit-identically.  The surviving chains keep their exact lattices
        and Philox counters.  The last chain cannot be removed; retire
        the whole ensemble instead.
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
        its current lattice and counter.  The updater rewrites its
        acceptance entries (packed: its thresholds) in place, so a
        recorded sweep keeps replaying.
        """
        temps = np.asarray(temperatures, dtype=np.float64)
        if np.any(temps <= 0):
            raise ValueError(f"temperatures must be positive, got {temps}")
        self.set_betas(1.0 / temps)
        self.temperatures = temps

    def set_betas(self, betas: "Sequence[float] | np.ndarray") -> None:
        """:meth:`set_temperatures` by inverse temperature, used as given.

        A replica-exchange ladder passes its own betas here, so each
        chain sweeps at exactly the beta its swap test uses (``1 / (1 /
        beta)`` can differ from ``beta`` in the last bit).
        """
        betas = np.asarray(betas, dtype=np.float64)
        if betas.shape != (self.n_chains,):
            raise ValueError(
                f"expected {self.n_chains} betas, got shape {betas.shape}"
            )
        if np.any(betas <= 0):
            raise ValueError(f"betas must be positive, got {betas}")
        self.betas = betas
        self.temperatures = 1.0 / betas
        self._updater.retemper(self._beta_vector())

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
            telemetry.record_physics(
                plains,
                np.mean(_magnetizations(plains)),
                np.mean(self._energies(plains)),
            )

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
        return _magnetizations(self.lattices)

    def energies_per_spin(self) -> np.ndarray:
        """Per-chain (zero-field) energy per site, shaped ``(B,)``.

        With disordered couplings the bond energy uses the quenched
        ``J_ij`` planes; the clean ferromagnet keeps the historical
        :func:`~repro.observables.energy.energy_per_spin` estimator.
        """
        return self._energies(self.lattices)

    def _energies(self, plains: np.ndarray) -> np.ndarray:
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
        summarised by :func:`summarize_chain` — a batched scan summarises
        identically to the serial loop of solo chains it replaces.
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
            m_series[:, k] = _magnetizations(plains)
            e_series[:, k] = self._energies(plains)
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
        run = {
            **self._layout(),
            "temperatures": self.temperatures.tolist(),
            "seed": self.seed,
            "n_chains": self.n_chains,
            "sweeps_done": self.sweeps_done,
            "fused": self.fused,
            "couplings": "ferro" if self.couplings is None else self.couplings.kind,
            "disorder_seed": (
                None if self.couplings is None else self.couplings.disorder_seed
            ),
        }
        streams = [self.stream.chain(b).state() for b in range(self.n_chains)]
        return self._build_report("ensemble", run, streams, n_chains=self.n_chains)

    def _build_report(
        self, kind: str, run: dict, streams: "list[dict]", **gauges
    ) -> RunReport:
        """Book the end-of-run gauges and assemble a ``kind`` report."""
        if self.telemetry is None:
            raise RuntimeError(
                "no telemetry attached; construct with "
                f"{type(self).__name__}(..., telemetry=RunTelemetry())"
            )
        registry = self.telemetry.registry
        registry.gauge("sweeps_done").set(self.sweeps_done)
        for name, value in gauges.items():
            registry.gauge(name).set(value)
        record_fused_metrics(registry, self._updater)
        record_traced_metrics(registry, self._executor)
        registry.gauge("rng_split_draws").set(self.stream.split_draws)
        return self.telemetry.build_report(
            kind=kind, run=run, rng={"streams": streams}
        )

    def _layout(self) -> dict:
        """Geometry and engine keys shared by checkpoints and reports."""
        return {
            "shape": self.shape,
            "field": self.field,
            "updater": self.updater_name,
            "backend": backend_kind(self.backend),
            "dtype": self.backend.dtype.name,
            "block_shape": self.block_shape,
        }

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable checkpoint of the whole ensemble.

        Emitted as a versioned ``checkpoint/v2`` envelope (see
        :mod:`repro.core.config`).  Round-trips everything a resume
        needs for bit-identical continuation: lattices, per-chain RNG
        counters, backend kind, dtype and block decomposition.  Packed
        ensembles additionally store their word planes with the
        bit-order contract (``packed``: little-endian 64-bit words plus
        ``rng_bits``, the 16 bits a site draws), so resume is
        bit-identical at the word level; a packed checkpoint refuses to
        load on an unpacked backend, and vice versa.
        """
        payload = {
            **self._layout(),
            "temperatures": self.temperatures.tolist(),
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
            payload["packed"] = self._packed_payload()
        return checkpoint_envelope("ensemble", payload)

    @classmethod
    def from_state_dict(
        cls, state: dict, backend: Backend | None = None
    ) -> "EnsembleSimulation":
        """Rebuild an ensemble from :meth:`state_dict` output.

        Accepts the ``checkpoint/v2`` envelope only.  Pass ``backend``
        to resume on an explicit (pre-built) backend instead of the
        checkpoint's own kind and dtype.
        """
        state, backend, block_shape = _open_checkpoint(state, "ensemble", backend)
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
            block_shape=block_shape,
            field=state["field"],
            fused=state.get("fused", "auto"),
            couplings=couplings,
        )
        return ensemble._resume(
            state.get("packed"),
            BatchedPhiloxStream.from_state(state["stream"]),
            state["sweeps_done"],
        )

    def _packed_payload(self, chains=slice(None)) -> dict:
        """The packed word planes of ``chains`` (all, or one index) with
        their bit-order contract and draw width."""
        return {
            "word_bits": 64,
            "bit_order": "little",
            "rng_bits": RNG_BITS,
            "quarter_shape": self._state.quarter_shape,
            "words": {
                name: getattr(self._state, name)[chains].copy()
                for name in ("w00", "w01", "w10", "w11")
            },
        }

    def _resume(
        self, packed: "dict | None", stream: BatchedPhiloxStream, sweeps_done: int
    ) -> "EnsembleSimulation":
        """Continue chains mid-run: their packed word planes, Philox
        counters and sweep count."""
        if self.packed:
            self._restore_packed(packed)
        self.stream = stream
        self.sweeps_done = int(sweeps_done)
        return self

    def _restore_packed(self, packed: dict | None) -> None:
        """Rebuild the packed word planes from a checkpoint payload."""
        if packed is None:
            raise ValueError(
                "checkpoint has no packed payload: it was written by an "
                "unpacked chain and cannot resume as dtype='packed' (the "
                "packed stream mode consumes randomness on a different "
                "counter schedule); resume on the checkpoint's own dtype, "
                "or start a fresh packed run from its lattice"
            )
        if packed.get("word_bits", 64) != 64 or packed.get("bit_order", "little") != "little":
            raise ValueError(
                f"unsupported packed word layout {packed.get('word_bits')!r}-bit "
                f"/ {packed.get('bit_order')!r}; this build packs 64-spin "
                "little-endian words"
            )
        if packed.get("rng_bits", RNG_BITS) != RNG_BITS:
            raise ValueError(
                f"packed checkpoint draws {packed['rng_bits']!r} bits per "
                f"site; this build's packed engine draws {RNG_BITS}-bit lanes "
                "only, so the chain cannot continue on its stream"
            )
        planes = self._state.w00.shape
        self._state = PackedState(
            *(
                # A converting copy: foreign-endian checkpoint words become
                # native (the *values* are host-independent), and the
                # running chain never writes into the caller's checkpoint.
                np.array(packed["words"][name], dtype=np.uint64, order="C")
                .reshape(planes)
                for name in ("w00", "w01", "w10", "w11")
            ),
            tuple(packed["quarter_shape"]),
        )
