"""Distributed SPMD simulation of the Ising model on a simulated pod slice.

The whole lattice is block-decomposed over a 2D grid of TensorCores; each
core owns a compact sub-lattice and runs Algorithm 2 locally.  Per colour
phase the four boundary slabs that would wrap around the local torus are
instead exchanged with the neighbouring cores via ``collective_permute``
over the simulated toroidal mesh (Fig. 5 of the paper), and spliced into
the neighbour sums through the :class:`~repro.core.kernels.PhaseHalos`
hook.  All cores advance in lockstep under the SPMD runtime, every
compute op charges the owning core's profiler, and communication time is
booked by the mesh link model — which is exactly the machinery behind the
weak-scaling (Table 2/6), breakdown (Table 3), communication (Table 4)
and strong-scaling (Table 7) reproductions.

A 1 x 1 "distributed" run degenerates to the single-core torus (the self
halos equal the local wrap), and for identical per-site uniforms the
multi-core chain is bit-identical to the single-core one — both are
enforced by the integration tests.

With a :class:`~repro.telemetry.report.RunTelemetry` attached the run
additionally produces a per-core compute-vs-communication split
(:meth:`DistributedIsing.core_splits`) and a versioned
:class:`~repro.telemetry.report.RunReport`; recorded trace events export
to Chrome trace JSON via :func:`repro.telemetry.trace.chrome_trace`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Generator

import numpy as np

from ..backend.base import Backend
from ..backend.tpu_backend import TPUBackend
from ..mesh.links import LinkModel
from ..mesh.runtime import PermuteRequest, SPMDRuntime
from ..mesh.topology import Torus2D
from ..observables.energy import energy_per_spin
from ..observables.magnetization import magnetization
from ..rng.streams import PhiloxStream
from ..telemetry.report import RunReport, RunTelemetry
from ..tpu.device import PodSlice
from ..tpu.dtypes import DType, FLOAT32, resolve_dtype
from .compact import CompactUpdater
from .config import (
    check_config,
    checkpoint_envelope,
    default_block_shape,
    resolve_fused,
    unwrap_checkpoint,
)
from .fused import record_fused_metrics
from .kernels import PhaseHalos
from .lattice import (
    CompactLattice,
    initial_lattice,
    plain_to_grid,
    plain_to_quarters,
)

__all__ = ["DistributedIsing"]

_ALL = slice(None)

#: Per colour phase: (halo field, slab of which tensor, slab index,
#: permute direction that delivers it).  "Direction" is where each core
#: *sends* its slab; e.g. sending south means every core receives its
#: north halo.  Derived from the Algorithm 2 boundary terms — see
#: repro.core.kernels.compact_neighbor_sums.
_PHASE_EXCHANGES = {
    "black": (
        ("north", "s10", (-1, _ALL, -1, _ALL), "south"),
        ("south", "s01", (0, _ALL, 0, _ALL), "north"),
        ("west", "s01", (_ALL, -1, _ALL, -1), "east"),
        ("east", "s10", (_ALL, 0, _ALL, 0), "west"),
    ),
    "white": (
        ("north", "s11", (-1, _ALL, -1, _ALL), "south"),
        ("south", "s00", (0, _ALL, 0, _ALL), "north"),
        ("west", "s11", (_ALL, -1, _ALL, -1), "east"),
        ("east", "s00", (_ALL, 0, _ALL, 0), "west"),
    ),
}


class DistributedIsing:
    """A multi-core checkerboard Ising chain on a simulated pod slice.

    Parameters
    ----------
    global_shape:
        Whole-lattice shape (rows, cols) or single side length.
    temperature:
        Temperature in J / k_B units.
    core_grid:
        (rows, cols) of the core decomposition; each core gets a
        ``global/rows x global/cols`` sub-lattice (sides must divide
        evenly into even local sides).
    pod:
        An existing :class:`~repro.tpu.device.PodSlice` whose core grid
        matches; one is created when omitted.
    dtype:
        "float32" or "bfloat16" storage on every core.
    block_shape:
        Compact grid block size per core (default: one block per local
        quarter; pass (128, 128) for TPU-shaped accounting).
    seed:
        Global Philox seed; core i uses stream id i + 1, the host
        (initial state) uses stream id 0.
    initial:
        "hot", "cold", or an explicit global +/-1 array.
    link_model:
        Interconnect timing model override.
    record_trace:
        Keep per-op trace events in every core's profiler; export them
        with :func:`repro.telemetry.write_chrome_trace` (Fig. 6 view).
    fused:
        Fused sweep engine selection: ``"auto"`` (default), True or
        False.  The per-core backends are TPU cost-model backends, so
        "auto" resolves to False — the elementwise op sequence is what
        the calibrated cost tables describe.  Pass ``fused=True`` to run
        every core through the fused engine (table-gathered acceptance,
        in-place kernels); the chain stays bit-identical and the halo
        exchange is unaffected because boundary slabs are copied before
        the in-place phase update runs.  Either way every colour phase
        is one eager ``update_color`` call per core; distributed sweeps
        are never replayed.
    telemetry:
        Optional :class:`~repro.telemetry.report.RunTelemetry` recorder.
        Absent by default (zero-cost, bit-identical chains); when
        attached, the SPMD runtime also books collective counters into
        its registry and :meth:`report` emits a distributed
        :class:`~repro.telemetry.report.RunReport` with the per-core
        compute-vs-communication split.
    """

    def __init__(
        self,
        global_shape: int | tuple[int, int],
        temperature: float,
        core_grid: tuple[int, int],
        pod: PodSlice | None = None,
        dtype: DType | str = FLOAT32,
        block_shape: tuple[int, int] | None = None,
        seed: int = 0,
        initial: str | np.ndarray = "hot",
        link_model: LinkModel | None = None,
        record_trace: bool = False,
        updater: str = "compact",
        field: float = 0.0,
        fused: "bool | str" = "auto",
        telemetry: RunTelemetry | None = None,
    ) -> None:
        if isinstance(global_shape, (int, np.integer)):
            global_shape = (int(global_shape), int(global_shape))
        dtype = resolve_dtype(dtype)
        check_config(
            global_shape,
            updater,
            dtype.name,
            field=field,
            block_shape=block_shape,
            fused=fused,
            distributed=True,
        )
        rows, cols = global_shape
        p_rows, p_cols = core_grid
        if p_rows <= 0 or p_cols <= 0:
            raise ValueError(f"core grid must be positive, got {core_grid}")
        if rows % p_rows or cols % p_cols:
            raise ValueError(
                f"global shape {global_shape} not divisible by core grid {core_grid}"
            )
        local_rows, local_cols = rows // p_rows, cols // p_cols
        if local_rows % 2 or local_cols % 2:
            raise ValueError(
                f"per-core lattice {local_rows}x{local_cols} must have even sides"
            )
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")

        self.global_shape = (rows, cols)
        self.core_grid = (p_rows, p_cols)
        self.local_shape = (local_rows, local_cols)
        self.temperature = float(temperature)
        self.beta = 1.0 / self.temperature
        self.field = float(field)
        self.dtype = dtype
        self.seed = int(seed)
        self.sweeps_done = 0
        self.fused_config = fused
        # Per-core backends are TPU cost models: "auto" keeps the
        # elementwise op sequence the calibrated tables were fit to.
        self.fused = resolve_fused(fused, "tpu", dtype.name)
        self.telemetry = telemetry
        self.updater_name = updater
        # Checkpoints carry the user's block_shape (None re-derives the
        # per-quarter default on restore).
        self._block_shape_arg = block_shape

        if pod is not None and pod.core_grid != self.core_grid:
            raise ValueError(
                f"pod core grid {pod.core_grid} != requested {self.core_grid}"
            )
        self.pod = (
            pod
            if pod is not None
            else PodSlice(self.core_grid, record_trace=record_trace)
        )
        self.torus = Torus2D(p_rows, p_cols)
        self.runtime = SPMDRuntime(
            self.torus,
            link_model,
            cores=self.pod.cores,
            metrics=telemetry.registry if telemetry is not None else None,
        )
        self._backends: list[Backend] = [
            TPUBackend(core, self.dtype) for core in self.pod.cores
        ]
        self._updaters = [
            CompactUpdater(
                self.beta,
                backend,
                block_shape=block_shape
                if block_shape is not None
                else default_block_shape("compact", self.local_shape),
                nn_method="conv" if updater == "conv" else "matmul",
                field=self.field,
                fused=self.fused,
            )
            for backend in self._backends
        ]
        self.block_shape = self._updaters[0].block_shape
        self._streams = [
            PhiloxStream(self.seed, core_id + 1) for core_id in range(self.num_cores)
        ]

        global_plain = initial_lattice(
            self.global_shape, initial, PhiloxStream(self.seed, 0)
        )
        self._states: list[CompactLattice] = self._scatter(global_plain)

    # -- setup helpers ------------------------------------------------------

    def _scatter(self, global_plain: np.ndarray) -> list[CompactLattice]:
        """Decompose a global plain lattice into per-core compact states."""
        return [
            self._updaters[cid].to_state(self._local_slice(global_plain, cid))
            for cid in range(self.num_cores)
        ]

    def _local_slice(self, global_plain: np.ndarray, core_id: int) -> np.ndarray:
        ci, cj = self.torus.coords(core_id)
        lr, lc = self.local_shape
        return global_plain[ci * lr : (ci + 1) * lr, cj * lc : (cj + 1) * lc]

    # -- queries -------------------------------------------------------------

    @property
    def num_cores(self) -> int:
        return self.torus.num_cores

    @property
    def n_sites(self) -> int:
        return self.global_shape[0] * self.global_shape[1]

    def gather_lattice(self) -> np.ndarray:
        """Assemble the global plain lattice from all cores (host-side)."""
        rows, cols = self.global_shape
        lr, lc = self.local_shape
        plain = np.empty((rows, cols), dtype=np.float32)
        for cid, state in enumerate(self._states):
            ci, cj = self.torus.coords(cid)
            plain[ci * lr : (ci + 1) * lr, cj * lc : (cj + 1) * lc] = state.to_plain()
        return plain

    def magnetization(self) -> float:
        return magnetization(self.gather_lattice())

    def energy_per_spin(self) -> float:
        return energy_per_spin(self.gather_lattice())

    # -- evolution ------------------------------------------------------------

    def sweep(
        self,
        n_sweeps: int = 1,
        probs_black: np.ndarray | None = None,
        probs_white: np.ndarray | None = None,
    ) -> None:
        """Advance the whole lattice by ``n_sweeps`` sweeps in lockstep.

        ``probs_black`` / ``probs_white`` are optional *global* uniform
        fields (one per colour phase, full-lattice shape) for
        deterministic equivalence tests; they require ``n_sweeps == 1``.
        """
        if n_sweeps < 0:
            raise ValueError(f"n_sweeps must be >= 0, got {n_sweeps}")
        if (probs_black is not None or probs_white is not None) and n_sweeps != 1:
            raise ValueError("explicit probs require n_sweeps == 1")
        telemetry = self.telemetry
        for _ in range(n_sweeps):
            if telemetry is None:
                self._run_sweep(probs_black, probs_white)
                self.pod.mark_step()
                self.sweeps_done += 1
                continue
            start = perf_counter()
            self._run_sweep(probs_black, probs_white)
            telemetry.record_sweep(perf_counter() - start)
            step_seconds = self.pod.mark_step()
            telemetry.registry.histogram("modeled_step_seconds").observe(
                step_seconds
            )
            self.sweeps_done += 1
            if telemetry.wants_physics(self.sweeps_done):
                plain = self.gather_lattice()
                telemetry.record_physics(
                    plain, magnetization(plain), energy_per_spin(plain)
                )

    def _run_sweep(
        self, probs_black: np.ndarray | None, probs_white: np.ndarray | None
    ) -> None:
        """One lockstep sweep through the SPMD runtime."""
        self._states = self.runtime.run(
            lambda cid: self._sweep_program(cid, probs_black, probs_white)
        )

    def _phase_probs(
        self, core_id: int, color: str, global_probs: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Slice a global uniform field into this core's compact pair."""
        if global_probs is None:
            return None
        if global_probs.shape != self.global_shape:
            raise ValueError(
                f"probs shape {global_probs.shape} != global {self.global_shape}"
            )
        local = self._local_slice(global_probs, core_id)
        q00, q01, q10, q11 = plain_to_quarters(local.astype(np.float32))
        block = self._updaters[core_id].block_shape
        if color == "black":
            return plain_to_grid(q00, block), plain_to_grid(q11, block)
        return plain_to_grid(q01, block), plain_to_grid(q10, block)

    def _sweep_program(
        self,
        core_id: int,
        probs_black: np.ndarray | None,
        probs_white: np.ndarray | None,
    ) -> Generator[PermuteRequest, np.ndarray, CompactLattice]:
        """The per-core SPMD program for one sweep (two colour phases)."""
        lat = self._states[core_id]
        updater = self._updaters[core_id]
        backend = self._backends[core_id]
        stream = self._streams[core_id]
        global_probs = {"black": probs_black, "white": probs_white}

        for color in ("black", "white"):
            halos: dict[str, np.ndarray] = {}
            for field, tensor_name, index, send_dir in _PHASE_EXCHANGES[color]:
                slab = backend.slice_copy(getattr(lat, tensor_name), index)
                halos[field] = yield PermuteRequest(
                    tensor=slab,
                    pairs=self.torus.shift_pairs(send_dir),
                    name=f"halo_{color}_{field}",
                )
            lat = updater.update_color(
                lat,
                color,
                stream=stream,
                probs=self._phase_probs(core_id, color, global_probs[color]),
                halos=PhaseHalos(**halos),
            )
        return lat

    # -- checkpoint / restart ------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable ``checkpoint/v2`` snapshot of the whole pod run.

        Carries the assembled global lattice, every core's Philox stream
        state (counters included) and the fused-engine selection —
        everything :meth:`from_state_dict` needs for a bit-identical
        resume on the same core grid.
        """
        return checkpoint_envelope(
            "distributed",
            {
                "shape": self.global_shape,
                "core_grid": self.core_grid,
                "temperature": self.temperature,
                "field": self.field,
                "updater": self.updater_name,
                "dtype": self.dtype.name,
                "block_shape": self._block_shape_arg,
                "seed": self.seed,
                "fused": self.fused_config,
                "sweeps_done": self.sweeps_done,
                "lattice": self.gather_lattice(),
                "streams": [stream.state() for stream in self._streams],
            },
        )

    @classmethod
    def from_state_dict(
        cls,
        state: dict,
        pod: PodSlice | None = None,
        link_model: LinkModel | None = None,
        record_trace: bool = False,
        telemetry: RunTelemetry | None = None,
    ) -> "DistributedIsing":
        """Rebuild a distributed run from :meth:`state_dict` output.

        Accepts the ``checkpoint/v2`` envelope (and, with a
        :class:`DeprecationWarning`, legacy v1 dicts).  The lattice,
        every core's Philox counter and the fused selection round-trip,
        so the resumed chain is bit-identical to one that never stopped.
        The simulated pod, link model and telemetry are *not* part of the
        checkpoint — pass them again if the resumed run should carry
        them.  Keys this build no longer writes are ignored.
        """
        state = unwrap_checkpoint(state, "distributed")
        block_shape = state.get("block_shape")
        sim = cls(
            tuple(state["shape"]),
            state["temperature"],
            core_grid=tuple(state["core_grid"]),
            pod=pod,
            dtype=state["dtype"],
            block_shape=tuple(block_shape) if block_shape is not None else None,
            seed=state["seed"],
            initial=np.asarray(state["lattice"], dtype=np.float32),
            link_model=link_model,
            record_trace=record_trace,
            updater=state["updater"],
            field=state["field"],
            fused=state.get("fused", "auto"),
            telemetry=telemetry,
        )
        streams = state["streams"]
        if len(streams) != sim.num_cores:
            raise ValueError(
                f"checkpoint has {len(streams)} streams for {sim.num_cores} cores"
            )
        sim._streams = [PhiloxStream.from_state(s) for s in streams]
        sim.sweeps_done = int(state["sweeps_done"])
        return sim

    # -- performance accounting -------------------------------------------------

    def step_time(self) -> float:
        """Modeled seconds of the last marked step (slowest core)."""
        steps = self.pod.cores[0].profiler.steps
        if not steps:
            raise RuntimeError("no sweeps have been run yet")
        return max(
            core.profiler.steps[-1].total for core in self.pod.cores
        )

    def throughput_flips_per_ns(self) -> float:
        """Whole-lattice site updates per nanosecond at the modeled step time."""
        return self.n_sites / (self.step_time() * 1e9)

    def breakdown(self) -> dict[str, float]:
        """Pod-wide per-category time fractions (Table 3 row)."""
        return self.pod.aggregate_profiler().breakdown()

    def core_splits(self) -> list[dict]:
        """Per-core modeled time accounting (report ``cores`` rows).

        One row per TensorCore: booked seconds per profiler category plus
        the compute-vs-communication split.  The communication fraction
        is the same quantity the Table 3/4 machinery reports — charged
        ``collective_permute`` seconds over total booked seconds.
        """
        rows = []
        for core in self.pod.cores:
            profiler = core.profiler
            total = profiler.total_seconds
            comm = profiler.seconds["communication"]
            compute = total - comm
            rows.append(
                {
                    "core_id": core.core_id,
                    "coords": list(core.coords),
                    "seconds": dict(profiler.seconds),
                    "compute_seconds": compute,
                    "communication_seconds": comm,
                    "communication_fraction": comm / total if total else 0.0,
                    "op_counts": dict(profiler.op_counts),
                }
            )
        return rows

    def report(self) -> RunReport:
        """Build the distributed run's RunReport (requires telemetry).

        Includes the per-core compute-vs-communication split from the
        SPMD runtime's profilers and the pod-wide category breakdown, so
        the JSON artifact carries the same attribution the Table 3/4
        reproductions print.
        """
        if self.telemetry is None:
            raise RuntimeError(
                "no telemetry attached; construct with "
                "DistributedIsing(..., telemetry=RunTelemetry())"
            )
        registry = self.telemetry.registry
        registry.gauge("sweeps_done").set(self.sweeps_done)
        registry.gauge("n_cores").set(self.num_cores)
        registry.gauge("collectives_executed").set(
            self.runtime.collectives_executed
        )
        record_fused_metrics(registry, *self._updaters)
        return self.telemetry.build_report(
            kind="distributed",
            run={
                "shape": self.global_shape,
                "local_shape": self.local_shape,
                "core_grid": self.core_grid,
                "n_cores": self.num_cores,
                "temperature": self.temperature,
                "field": self.field,
                "updater": self.updater_name,
                "backend": "tpu",
                "dtype": self.dtype.name,
                "seed": self.seed,
                "sweeps_done": self.sweeps_done,
                "fused": self.fused,
            },
            rng={"streams": [stream.state() for stream in self._streams]},
            cores=self.core_splits(),
            breakdown=self.breakdown() if self.sweeps_done else {},
        )
