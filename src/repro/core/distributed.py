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
from ..mesh.faults import CoreLostError, FaultInjector, FaultPlan, PodLostError
from ..mesh.links import LinkModel, TwoTierLinkModel, interior_fraction
from ..mesh.runtime import OverlapCommit, PermuteRequest, SPMDRuntime
from ..mesh.topology import (
    HierarchicalTorus,
    Torus2D,
    degraded_grid,
    degraded_pod_grid,
)
from ..observables.energy import energy_per_spin
from ..observables.magnetization import magnetization
from ..rng.streams import PhiloxStream
from ..telemetry.report import RunReport, RunTelemetry
from ..tpu.device import PodSlice
from ..tpu.dtypes import DType, FLOAT32, resolve_dtype
from .compact import CompactUpdater
from .config import (
    checkpoint_envelope,
    default_block_shape,
    resolve_fused,
    resolve_overlap,
    unwrap_checkpoint,
)
from .fused import record_fused_metrics
from .kernels import PhaseHalos
from .lattice import (
    CompactLattice,
    cold_lattice,
    plain_to_grid,
    plain_to_quarters,
    random_lattice,
    validate_spins,
)

__all__ = ["DistributedIsing"]

#: Stream-id spacing between topology generations: after an elastic
#: degrade, generation g's core i draws from stream id
#: ``g * _GENERATION_STRIDE + i + 1`` — deterministic, and disjoint from
#: every earlier generation's streams for any realistic core count.
_GENERATION_STRIDE = 1 << 20

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
    pod_grid:
        Optional (pod rows, pod cols) tiling of the core grid into
        sub-pods.  When given, the mesh is a
        :class:`~repro.mesh.topology.HierarchicalTorus` — flat core ids
        and halo pairs (the chain is unchanged) but pod-crossing
        collectives are priced on the slower inter-pod tier of a
        :class:`~repro.mesh.links.TwoTierLinkModel` (the default link
        model for hierarchical meshes), and a permanent loss degrades by
        whole sub-pods (see ``docs/multipod.md``).  ``None`` (the
        default) keeps the single-pod flat torus.
    overlap:
        Split-phase halo overlap selection: ``"auto"`` (default), True
        or False.  "auto" enables overlap exactly on multi-pod
        hierarchical meshes.  When on, each colour phase issues its four
        halo permutes into an overlap window and commits the window
        against the phase's interior compute — the modeled phase cost
        becomes ``max(interior_compute, comm) + boundary_compute``
        instead of ``comm + compute``.  The executed op stream is
        identical either way (same sites, same Philox draws); only the
        modeled clock changes.
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
    fault_plan:
        Optional :class:`~repro.mesh.faults.FaultPlan`.  When attached,
        the SPMD runtime injects the plan's faults: transient drops /
        delays / stalls are retried or absorbed (costing modeled time,
        never data — the chain stays bit-identical), and permanent core
        kills raise :class:`~repro.mesh.faults.CoreLostError`, which
        :meth:`run_resilient` turns into a checkpoint-restart on a
        degraded topology.  ``None`` (the default) keeps the historical
        perfect-mesh path: bit-identical output, <2% overhead (gated by
        ``benchmarks/bench_fault_overhead.py``).
    checkpoint_interval:
        Take an in-memory checkpoint (:meth:`state_dict`) every this
        many sweeps — the restart point :meth:`run_resilient` falls back
        to after a permanent core loss.  The snapshot is taken at the
        sweep boundary without pausing the chain and is never charged to
        modeled device time (the asynchronous-checkpointing idealisation:
        host-side state capture overlaps the next sweep).  ``None``
        disables periodic snapshots; a construction-time snapshot is
        still taken whenever a ``fault_plan`` is attached so degrade
        always has a restart point.
    """

    def __init__(
        self,
        global_shape: int | tuple[int, int],
        temperature: float,
        core_grid: tuple[int, int],
        pod_grid: tuple[int, int] | None = None,
        overlap: "bool | str" = "auto",
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
        fault_plan: FaultPlan | None = None,
        checkpoint_interval: int | None = None,
    ) -> None:
        if updater not in ("compact", "conv"):
            raise ValueError(
                f"updater must be 'compact' or 'conv', got {updater!r}"
            )
        if isinstance(global_shape, (int, np.integer)):
            global_shape = (int(global_shape), int(global_shape))
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
        if pod_grid is not None:
            g_rows, g_cols = pod_grid
            if g_rows <= 0 or g_cols <= 0:
                raise ValueError(f"pod grid must be positive, got {pod_grid}")
            if p_rows % g_rows or p_cols % g_cols:
                raise ValueError(
                    f"core grid {core_grid} not divisible by pod grid {pod_grid}"
                )
            pod_grid = (int(g_rows), int(g_cols))

        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1 or None, got {checkpoint_interval}"
            )

        self.global_shape = (rows, cols)
        self.core_grid = (p_rows, p_cols)
        self.pod_grid = pod_grid
        self.local_shape = (local_rows, local_cols)
        self.temperature = float(temperature)
        self.beta = 1.0 / self.temperature
        self.field = float(field)
        self.dtype = resolve_dtype(dtype)
        self.seed = int(seed)
        self.sweeps_done = 0
        self.fused_config = resolve_fused(fused)
        # Per-core backends are TPU cost models: "auto" keeps the
        # elementwise op sequence the calibrated tables were fit to.
        self.fused = False if self.fused_config == "auto" else self.fused_config
        self.overlap_config = resolve_overlap(overlap)
        # "auto": hide halos exactly where the slow inter-pod tier makes
        # it worth modeling; flat single-pod timelines stay historical.
        multi_pod = pod_grid is not None and pod_grid[0] * pod_grid[1] > 1
        self.overlap = (
            multi_pod if self.overlap_config == "auto" else self.overlap_config
        )

        if pod is not None and pod.core_grid != self.core_grid:
            raise ValueError(
                f"pod core grid {pod.core_grid} != requested {self.core_grid}"
            )
        self.telemetry = telemetry
        self.updater_name = updater
        self.checkpoint_interval = checkpoint_interval
        self.fault_plan = fault_plan
        self.fault_injector: FaultInjector | None = None
        #: Topology-change records appended by elastic degrades:
        #: ``{"sweep_detected", "resumed_from_sweep", "dead_core",
        #: "old_grid", "new_grid", "generation"}`` dicts, carried into
        #: checkpoints and the run report.
        self.topology_events: list[dict] = []
        self._generation = 0
        # Remembered for topology rebuilds after an elastic degrade (the
        # user's explicit block_shape sticks; None re-derives per-quarter
        # blocks from the new local shape).
        self._block_shape_arg = block_shape
        self._link_model = link_model
        self._record_trace = bool(record_trace)

        self._build_topology(self.core_grid, pod=pod)

        global_plain = self._initial_lattice(initial)
        self._states: list[CompactLattice] = self._scatter(global_plain)
        self._last_checkpoint: dict | None = None
        if self.checkpoint_interval is not None or fault_plan is not None:
            self._last_checkpoint = self.state_dict()

    # -- setup helpers ------------------------------------------------------

    def _build_topology(
        self, core_grid: tuple[int, int], pod: PodSlice | None = None
    ) -> None:
        """(Re)build pod, torus, runtime, backends, updaters and streams.

        Called at construction and again by :meth:`_degrade` with a
        smaller grid.  Stream ids incorporate the topology generation so
        the post-degrade chain draws from fresh, deterministic streams
        that no earlier generation ever touched.
        """
        p_rows, p_cols = core_grid
        rows, cols = self.global_shape
        self.core_grid = (p_rows, p_cols)
        self.local_shape = (rows // p_rows, cols // p_cols)
        local_rows, local_cols = self.local_shape
        self.pod = (
            pod
            if pod is not None
            else PodSlice(core_grid, record_trace=self._record_trace)
        )
        if self.pod_grid is not None:
            self.torus = HierarchicalTorus(
                p_rows, p_cols, self.pod_grid[0], self.pod_grid[1]
            )
        else:
            self.torus = Torus2D(p_rows, p_cols)
        # The surface-to-volume fraction of each colour phase that runs
        # while halos are in flight under the overlap schedule.
        self._interior_fraction = interior_fraction(self.local_shape)
        link_model = self._link_model
        if link_model is None and isinstance(self.torus, HierarchicalTorus):
            link_model = TwoTierLinkModel()
        if self.fault_plan is not None and self.fault_injector is None:
            self.fault_injector = FaultInjector(self.fault_plan, self.torus.num_cores)
        prior_runtime = getattr(self, "runtime", None)
        self.runtime = SPMDRuntime(
            self.torus,
            link_model,
            cores=self.pod.cores,
            metrics=self.telemetry.registry if self.telemetry is not None else None,
            fault_injector=self.fault_injector,
        )
        if prior_runtime is not None:
            # Keep pre-degrade fault and overlap spans so the trace shows
            # the whole incident, not just the surviving generation.
            self.runtime.fault_log.extend(prior_runtime.fault_log)
            self.runtime.overlap_log.extend(prior_runtime.overlap_log)
            self.runtime.overlap_windows = prior_runtime.overlap_windows
            self.runtime.overlap_hidden_seconds = prior_runtime.overlap_hidden_seconds
            self.runtime.overlap_exposed_seconds = (
                prior_runtime.overlap_exposed_seconds
            )
        self._backends: list[Backend] = [
            TPUBackend(core, self.dtype) for core in self.pod.cores
        ]
        self._updaters = [
            CompactUpdater(
                self.beta,
                backend,
                block_shape=self._block_shape_arg
                if self._block_shape_arg is not None
                else default_block_shape("compact", self.local_shape),
                nn_method="conv" if self.updater_name == "conv" else "matmul",
                field=self.field,
                fused=self.fused,
            )
            for backend in self._backends
        ]
        self.block_shape = self._updaters[0].block_shape
        base = self._generation * _GENERATION_STRIDE
        self._streams = [
            PhiloxStream(self.seed, base + core_id + 1)
            for core_id in range(self.num_cores)
        ]

    def _scatter(self, global_plain: np.ndarray) -> list[CompactLattice]:
        """Decompose a global plain lattice into per-core compact states."""
        return [
            self._updaters[cid].to_state(self._local_slice(global_plain, cid))
            for cid in range(self.num_cores)
        ]

    def _initial_lattice(self, initial: str | np.ndarray) -> np.ndarray:
        if isinstance(initial, str):
            if initial == "hot":
                return random_lattice(self.global_shape, PhiloxStream(self.seed, 0))
            if initial == "cold":
                return cold_lattice(self.global_shape)
            raise ValueError(
                f"initial must be 'hot', 'cold' or an array, got {initial!r}"
            )
        plain = np.asarray(initial, dtype=np.float32)
        if plain.shape != self.global_shape:
            raise ValueError(
                f"initial lattice shape {plain.shape} != {self.global_shape}"
            )
        validate_spins(plain)
        return plain

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
        injector = self.fault_injector
        for _ in range(n_sweeps):
            if injector is not None:
                injector.begin_sweep(self.sweeps_done)
            if telemetry is None:
                self._run_sweep(probs_black, probs_white)
                self.pod.mark_step()
                self.sweeps_done += 1
                self._maybe_checkpoint()
                continue
            start = perf_counter()
            self._run_sweep(probs_black, probs_white)
            telemetry.record_sweep(perf_counter() - start)
            step_seconds = self.pod.mark_step()
            telemetry.registry.histogram("modeled_step_seconds").observe(
                step_seconds
            )
            self.sweeps_done += 1
            self._maybe_checkpoint()
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
        """The per-core SPMD program for one sweep (two colour phases).

        Under the overlap schedule the op stream is *identical* — same
        slab copies, same permutes, same phase update, same Philox draws
        — but the permutes are flagged ``overlap=True`` (their modeled
        time lands in a window instead of blocking) and each phase ends
        with an :class:`~repro.mesh.runtime.OverlapCommit` carrying the
        interior share of the phase's measured compute, so the runtime
        can charge ``max(interior, comm) + boundary`` for the phase.
        """
        lat = self._states[core_id]
        updater = self._updaters[core_id]
        backend = self._backends[core_id]
        stream = self._streams[core_id]
        overlap = self.overlap
        profiler = self.pod.cores[core_id].profiler
        global_probs = {"black": probs_black, "white": probs_white}

        for color in ("black", "white"):
            halos: dict[str, np.ndarray] = {}
            for field, tensor_name, index, send_dir in _PHASE_EXCHANGES[color]:
                slab = backend.slice_copy(getattr(lat, tensor_name), index)
                halos[field] = yield PermuteRequest(
                    tensor=slab,
                    pairs=self.torus.shift_pairs(send_dir),
                    name=f"halo_{color}_{field}",
                    overlap=overlap,
                )
            probs = self._phase_probs(core_id, color, global_probs[color])
            if overlap:
                compute_start = profiler.total_seconds
            lat = updater.update_color(
                lat,
                color,
                stream=stream,
                probs=probs,
                halos=PhaseHalos(**halos),
            )
            if overlap:
                phase_compute = profiler.total_seconds - compute_start
                yield OverlapCommit(
                    interior_seconds=self._interior_fraction * phase_compute,
                    name=f"overlap_{color}",
                )
        return lat

    # -- checkpoint / restart / resilience ----------------------------------

    def _maybe_checkpoint(self) -> None:
        """Snapshot at the sweep boundary if the interval says so.

        Asynchronous-checkpointing idealisation: the snapshot is taken
        host-side between sweeps and never charged to modeled device
        time, so a checkpointed run's modeled timeline (and its chain) is
        identical to an uncheckpointed one.
        """
        interval = self.checkpoint_interval
        if interval is None or self.sweeps_done % interval:
            return
        self._last_checkpoint = self.state_dict()
        if self.telemetry is not None:
            self.telemetry.registry.counter("checkpoints_taken").inc()

    def state_dict(self) -> dict:
        """Serializable ``checkpoint/v2`` snapshot of the whole pod run.

        Carries the assembled global lattice, every core's Philox stream
        state (counters included), the fused-engine selection, the
        topology generation and any recorded topology-change events —
        everything :meth:`from_state_dict` needs for a bit-identical
        resume on the same core grid, or :meth:`run_resilient` needs to
        restart on a degraded one.
        """
        return checkpoint_envelope(
            "distributed",
            {
                "shape": self.global_shape,
                "core_grid": self.core_grid,
                "pod_grid": list(self.pod_grid) if self.pod_grid else None,
                "overlap": self.overlap_config,
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
                "generation": self._generation,
                "topology_events": [dict(ev) for ev in self.topology_events],
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
        fault_plan: FaultPlan | None = None,
        checkpoint_interval: int | None = None,
    ) -> "DistributedIsing":
        """Rebuild a distributed run from :meth:`state_dict` output.

        Accepts the ``checkpoint/v2`` envelope (and, with a
        :class:`DeprecationWarning`, legacy v1 dicts).  The lattice,
        every core's Philox counter, the fused selection and the topology
        generation all round-trip, so the resumed chain is bit-identical
        to one that never stopped.  The simulated pod, link model,
        telemetry and fault plan are *not* part of the checkpoint —
        pass them again if the resumed run should carry them.
        """
        state = unwrap_checkpoint(state, "distributed")
        block_shape = state.get("block_shape")
        pod_grid = state.get("pod_grid")
        sim = cls(
            tuple(state["shape"]),
            state["temperature"],
            core_grid=tuple(state["core_grid"]),
            pod_grid=tuple(pod_grid) if pod_grid is not None else None,
            overlap=state.get("overlap", "auto"),
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
            fault_plan=fault_plan,
            checkpoint_interval=checkpoint_interval,
        )
        sim._generation = int(state.get("generation", 0))
        sim.topology_events = [dict(ev) for ev in state.get("topology_events", [])]
        streams = state["streams"]
        if len(streams) != sim.num_cores:
            raise ValueError(
                f"checkpoint has {len(streams)} streams for {sim.num_cores} cores"
            )
        sim._streams = [PhiloxStream.from_state(s) for s in streams]
        sim.sweeps_done = int(state["sweeps_done"])
        if sim._last_checkpoint is not None:
            sim._last_checkpoint = sim.state_dict()
        return sim

    # Checkpoints restore through the same constructor path either way;
    # ``resume`` is the verb the fault-tolerance docs use.
    resume = from_state_dict

    def run_resilient(self, n_sweeps: int) -> None:
        """Advance ``n_sweeps`` sweeps, surviving permanent core losses.

        Sweeps like :meth:`sweep`; when the fault plan kills a core
        (:class:`~repro.mesh.faults.CoreLostError`) the run restarts from
        the last checkpoint on the largest surviving sub-grid of the
        original decomposition (see
        :func:`~repro.mesh.topology.degraded_grid`), records the topology
        change in :attr:`topology_events`, and re-runs the lost sweeps
        there.  On a hierarchical mesh losses degrade by whole sub-pods —
        a ``kill_pod`` event (:class:`~repro.mesh.faults.PodLostError`)
        or a single dead core inside a pod both shed that pod's tile and
        resume on the surviving pod grid (see
        :func:`~repro.mesh.topology.degraded_pod_grid`).  Requires a
        checkpoint to exist — any ``fault_plan`` or
        ``checkpoint_interval`` at construction guarantees one.
        """
        if n_sweeps < 0:
            raise ValueError(f"n_sweeps must be >= 0, got {n_sweeps}")
        target = self.sweeps_done + n_sweeps
        while self.sweeps_done < target:
            try:
                self.sweep(target - self.sweeps_done)
            except CoreLostError as exc:
                self._degrade(exc)

    def _degrade(self, loss: CoreLostError) -> None:
        """Checkpoint-restart on a smaller core grid after a core loss.

        Rebuilds the pod/torus/runtime on the largest strictly-smaller
        sub-grid that still decomposes the global lattice evenly,
        re-scatters the last checkpoint's lattice onto it, and bumps the
        topology generation so the surviving cores draw from fresh
        deterministic Philox streams.  Physics continuity (the chain
        stays a valid Metropolis chain at the same temperature) is the
        contract after a degrade — bit-identity with the undisturbed run
        is not possible once the decomposition changes.
        """
        if self._last_checkpoint is None:
            raise RuntimeError(
                "core lost but no checkpoint to restart from; construct with "
                "checkpoint_interval=... or a fault_plan"
            ) from loss
        old_pod_grid = self.pod_grid
        dead_pod: int | None = None
        if isinstance(self.torus, HierarchicalTorus):
            # Sub-pods are the degrade granularity on a hierarchical
            # mesh: a pod loss (or a single dead core inside a pod —
            # its pod's intra-torus is broken either way) sheds the
            # whole tile and re-forms a smaller pod grid with the
            # intra-pod shape intact.
            if isinstance(loss, PodLostError):
                dead_pod = loss.pod_id
            else:
                dead_pod = self.torus.pod_of(loss.core_id)
            new_torus = degraded_pod_grid(self.torus, self.global_shape)
            if new_torus is None:
                raise loss
            new_grid = (new_torus.rows, new_torus.cols)
            self.pod_grid = new_torus.pod_grid
        else:
            new_grid = degraded_grid(self.core_grid, self.global_shape)
            if new_grid is None:
                raise loss
        old_grid = self.core_grid
        checkpoint = unwrap_checkpoint(self._last_checkpoint, "distributed")
        self._generation += 1
        # The injector survives the rebuild: its fired-event and
        # dead-core records carry over so a one-shot kill does not
        # re-fire against the degraded topology.
        self._build_topology(new_grid)
        self._states = self._scatter(
            np.asarray(checkpoint["lattice"], dtype=np.float32)
        )
        self.sweeps_done = int(checkpoint["sweeps_done"])
        event = {
            "sweep_detected": loss.sweep,
            "resumed_from_sweep": self.sweeps_done,
            "dead_core": loss.core_id,
            "old_grid": list(old_grid),
            "new_grid": list(new_grid),
            "generation": self._generation,
        }
        if dead_pod is not None:
            event["dead_pod"] = dead_pod
            event["old_pod_grid"] = list(old_pod_grid)
            event["new_pod_grid"] = list(self.pod_grid)
        self.topology_events.append(event)
        if self.telemetry is not None:
            self.telemetry.registry.counter("topology_degrades").inc()
        self._last_checkpoint = self.state_dict()

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
        registry.gauge("halo_overlap_windows").set(self.runtime.overlap_windows)
        registry.gauge("halo_overlap_hidden_seconds").set(
            self.runtime.overlap_hidden_seconds
        )
        registry.gauge("halo_overlap_exposed_seconds").set(
            self.runtime.overlap_exposed_seconds
        )
        record_fused_metrics(registry, *self._updaters)
        return self.telemetry.build_report(
            kind="distributed",
            run={
                "shape": self.global_shape,
                "local_shape": self.local_shape,
                "core_grid": self.core_grid,
                "pod_grid": list(self.pod_grid) if self.pod_grid else None,
                "overlap": self.overlap,
                "n_cores": self.num_cores,
                "temperature": self.temperature,
                "field": self.field,
                "updater": self.updater_name,
                "backend": "tpu",
                "dtype": self.dtype.name,
                "seed": self.seed,
                "sweeps_done": self.sweeps_done,
                "fused": self.fused,
                "generation": self._generation,
                "topology_events": [dict(ev) for ev in self.topology_events],
            },
            rng={"streams": [stream.state() for stream in self._streams]},
            cores=self.core_splits(),
            breakdown=self.breakdown() if self.sweeps_done else {},
        )
