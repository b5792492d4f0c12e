"""High-level single-core simulation driver.

:class:`IsingSimulation` owns a lattice state, an updater (Algorithm 1,
Algorithm 2 or the conv variant), a backend (float32 or bfloat16, with or
without TPU cost accounting) and a Philox stream, and exposes the workflow
of the paper's Fig. 4: burn-in, sample, and estimate magnetization /
energy / Binder cumulant with honest error bars.

Samples are accumulated streamingly (per-sweep scalars only), so chains of
millions of sweeps need no lattice history storage.

Pass a :class:`~repro.telemetry.report.RunTelemetry` to record sweep wall
times and physics drift and to export a versioned
:class:`~repro.telemetry.report.RunReport` via :meth:`IsingSimulation.report`;
without one the sweep path pays only a single ``is None`` check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..backend.base import Backend
from ..backend.numpy_backend import NumpyBackend
from ..rng.streams import PhiloxStream
from ..telemetry.report import RunReport, RunTelemetry
from ..observables.binder import binder_cumulant
from ..observables.energy import energy_per_spin
from ..observables.magnetization import magnetization
from ..observables.stats import blocking_error, binder_jackknife
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
from .fused import record_fused_metrics
from .packed import PackedState, PackedUpdater, record_packed_metrics
from .traced import TracedExecutor, record_traced_metrics
from .lattice import cold_lattice, random_lattice, validate_spins

__all__ = [
    "IsingSimulation",
    "ChainResult",
    "summarize_chain",
    "run_temperature_scan",
]

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
    m_series: np.ndarray = field(repr=False)
    e_series: np.ndarray = field(repr=False)


def summarize_chain(
    temperature: float, m_series: np.ndarray, e_series: np.ndarray
) -> ChainResult:
    """Blocking / jackknife summary of one chain's per-sweep series.

    Shared by :meth:`IsingSimulation.sample` and the batched
    :class:`~repro.core.ensemble.EnsembleSimulation` so both paths apply
    identical estimators (the per-chain bit-identity tests rely on it).
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


class IsingSimulation:
    """A single-core checkerboard Ising chain.

    Parameters
    ----------
    shape:
        Lattice shape (rows, cols) or a single side length.
    temperature:
        Temperature in units of J / k_B (beta = 1 / T).
    updater:
        "compact" (Algorithm 2, default), "checkerboard" (Algorithm 1)
        or "conv" (appendix variant).
    backend:
        Op executor; default float32 numpy.  Pass a bfloat16 or TPU
        backend to change numerics/accounting.
    seed, stream_id:
        Philox stream selection.
    initial:
        "hot", "cold", or an explicit +/-1 array.
    block_shape:
        Grid block size for the blocked updaters (defaults to the whole
        lattice in one block, the natural choice off-TPU).
    fused:
        Fused sweep engine selection.  ``"auto"`` (default) enables it on
        plain numpy backends — where it removes the per-sweep ``exp`` and
        all steady-state allocations for a large host-side speedup — and
        disables it on accounting (TPU) backends so the calibrated cost
        tables keep their historical op sequence.  Pass ``True`` /
        ``False`` to force.  Trajectories are bit-identical either way.
        Wherever the fused engine runs, the chain records one sweep as
        an (op, buffer) program and replays it for every further sweep,
        with zero Python re-interpretation of updater logic (see
        :mod:`repro.core.traced`); replayed sweeps are bit-identical to
        eager ones.
    telemetry:
        Optional :class:`~repro.telemetry.report.RunTelemetry` recorder.
        When omitted (the default) the sweep loop takes the exact seed
        code path — one ``is None`` branch, no timing calls, no per-sweep
        allocation; when attached, sweep wall times and sampled physics
        signals are recorded and :meth:`report` emits a
        :class:`~repro.telemetry.report.RunReport`.  Telemetry never
        touches the RNG stream, so instrumented chains stay bit-identical.
    """

    def __init__(
        self,
        shape: int | tuple[int, int],
        temperature: float,
        updater: str = "compact",
        backend: Backend | None = None,
        seed: int = 0,
        stream_id: int = 0,
        initial: str | np.ndarray = "hot",
        block_shape: tuple[int, int] | None = None,
        field: float = 0.0,
        fused: "bool | str" = "auto",
        telemetry: RunTelemetry | None = None,
    ) -> None:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape), int(shape))
        self.backend = backend if backend is not None else NumpyBackend()
        dtype = self.backend.dtype.name
        check_config(
            shape, updater, dtype, field=field, block_shape=block_shape, fused=fused
        )
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")

        self.shape = (int(shape[0]), int(shape[1]))
        self.temperature = float(temperature)
        self.beta = 1.0 / self.temperature
        self.field = float(field)
        self.packed = dtype == "packed"
        self.stream = PhiloxStream(seed, stream_id)
        self.updater_name = updater
        self.sweeps_done = 0
        self.telemetry = telemetry
        self.fused_config = fused
        self.fused = resolve_fused(fused, backend_kind(self.backend), dtype)
        if block_shape is None:
            block_shape = default_block_shape(updater, self.shape, dtype)
        self._updater = _make_updater(
            updater, self.beta, self.backend, block_shape, self.field, self.fused
        )
        #: Resolved grid block decomposition (None for masked_conv, which
        #: keeps the plain layout).  Checkpoints carry it so a restored
        #: chain reproduces the same blocked tensors.
        self.block_shape = getattr(self._updater, "block_shape", None)
        self._executor = TracedExecutor(self._updater) if self.fused else None

        if isinstance(initial, str):
            if initial == "hot":
                plain = random_lattice(self.shape, self.stream)
            elif initial == "cold":
                plain = cold_lattice(self.shape)
            else:
                raise ValueError(
                    f"initial must be 'hot', 'cold' or an array, got {initial!r}"
                )
        else:
            plain = np.asarray(initial, dtype=np.float32)
            if plain.shape != self.shape:
                raise ValueError(
                    f"initial lattice shape {plain.shape} != {self.shape}"
                )
            validate_spins(plain)
        self._state = self._updater.to_state(plain)

    # -- state access -------------------------------------------------------

    @property
    def lattice(self) -> np.ndarray:
        """The current plain +/-1 lattice (a copy)."""
        return self._updater.to_plain(self._state)

    @property
    def n_sites(self) -> int:
        return self.shape[0] * self.shape[1]

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
        """Advance the chain by one full lattice sweep (both colours)."""
        telemetry = self.telemetry
        if telemetry is None:
            self._advance(1)
            return
        start = perf_counter()
        self._advance(1)
        telemetry.record_sweep(perf_counter() - start)
        if telemetry.wants_physics(self.sweeps_done):
            plain = self.lattice
            telemetry.record_physics(
                plain, magnetization(plain), energy_per_spin(plain)
            )

    def run(self, n_sweeps: int) -> None:
        """Advance the chain by ``n_sweeps`` sweeps.

        Without telemetry the whole batch goes to ``_advance`` in one
        call — under the fused engine the replay loop never re-enters
        Python driver code;
        with telemetry attached, sweeps advance one at a time so wall
        times and physics samples keep their per-sweep resolution.
        """
        if n_sweeps < 0:
            raise ValueError(f"n_sweeps must be >= 0, got {n_sweeps}")
        if self.telemetry is None:
            if n_sweeps:
                self._advance(n_sweeps)
            return
        for _ in range(n_sweeps):
            self.sweep()

    # -- observables ------------------------------------------------------------

    def magnetization(self) -> float:
        return magnetization(self.lattice)

    def energy_per_spin(self) -> float:
        return energy_per_spin(self.lattice)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable checkpoint: lattice + RNG state + progress.

        Emitted as a versioned ``checkpoint/v2`` envelope (``schema`` +
        ``kind`` keys; see :mod:`repro.core.config`).  Restoring with
        :meth:`from_state_dict` — or the kind-dispatching
        :func:`repro.api.load` — continues the chain bit-identically
        (same Philox counter, same lattice), on the same backend kind /
        dtype and with the same block decomposition.

        Packed chains additionally store their four quarter word planes
        with the bit-order contract (``packed`` key: little-endian
        64-bit words plus the stream mode's ``rng_bits``); restore
        rebuilds the state from the words, so resume is bit-identical
        at the word level, and a packed checkpoint refuses to load on
        an unpacked backend (and vice versa) with a clear error.
        """
        payload = {
            "shape": self.shape,
            "temperature": self.temperature,
            "field": self.field,
            "updater": self.updater_name,
            "backend": backend_kind(self.backend),
            "dtype": self.backend.dtype.name,
            "block_shape": self.block_shape,
            "fused": self.fused_config,
            "lattice": self.lattice,
            "stream": self.stream.state(),
            "sweeps_done": self.sweeps_done,
        }
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
        return checkpoint_envelope("single", payload)

    @classmethod
    def from_state_dict(
        cls, state: dict, backend: Backend | None = None
    ) -> "IsingSimulation":
        """Rebuild a simulation from :meth:`state_dict` output.

        Accepts the ``checkpoint/v2`` envelope (and, with a
        :class:`DeprecationWarning`, legacy v1 dicts without a ``schema``
        key).  The checkpoint's backend kind ("numpy" / "tpu"), dtype and
        ``block_shape`` are all round-tripped, so a chain checkpointed
        from a bfloat16 TPU backend or a non-default block decomposition
        resumes with the same numerics and tensor layout instead of
        silently falling back to a default float32 NumpyBackend.  Unknown
        backend kinds or dtype names raise.  Pass ``backend`` to resume
        on an explicit (pre-built) backend instead — e.g. a TPUBackend
        bound to a specific simulated core.
        """
        state = unwrap_checkpoint(state, "single")
        if backend is None:
            backend = backend_from_checkpoint(
                state.get("backend", "numpy"), state["dtype"]
            )
        check_checkpoint_dtype(state["dtype"], backend)
        block_shape = state.get("block_shape")
        sim = cls(
            tuple(state["shape"]),
            state["temperature"],
            updater=state["updater"],
            backend=backend,
            field=state["field"],
            block_shape=tuple(block_shape) if block_shape is not None else None,
            fused=state.get("fused", "auto"),
            initial=np.asarray(state["lattice"], dtype=np.float32),
        )
        if sim.packed:
            sim._restore_packed(state.get("packed"))
        sim.stream = PhiloxStream.from_state(state["stream"])
        sim.sweeps_done = int(state["sweeps_done"])
        return sim

    def _restore_packed(self, packed: dict | None) -> None:
        """Rebuild the packed word planes from a checkpoint's packed payload."""
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
        rng_bits = int(packed.get("rng_bits", 16))
        if rng_bits != self._updater.rng_bits:
            self._updater = PackedUpdater(self.beta, self.backend, rng_bits=rng_bits)
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

    # -- telemetry ---------------------------------------------------------

    def report(self) -> RunReport:
        """Build the run's :class:`~repro.telemetry.report.RunReport`.

        Requires an attached telemetry recorder (pass ``telemetry=`` at
        construction); captures the static run configuration, the sweep
        wall-time summary, sampled physics drift and the final Philox
        counter position.
        """
        if self.telemetry is None:
            raise RuntimeError(
                "no telemetry attached; construct with "
                "IsingSimulation(..., telemetry=RunTelemetry())"
            )
        self.telemetry.registry.gauge("sweeps_done").set(self.sweeps_done)
        record_fused_metrics(self.telemetry.registry, self._updater)
        record_traced_metrics(self.telemetry.registry, self._executor)
        record_packed_metrics(self.telemetry.registry, self._updater)
        return self.telemetry.build_report(
            kind="single",
            run={
                "shape": self.shape,
                "temperature": self.temperature,
                "field": self.field,
                "updater": self.updater_name,
                "backend": backend_kind(self.backend),
                "dtype": self.backend.dtype.name,
                "block_shape": self.block_shape,
                "fused": self.fused,
                "seed": self.stream.seed,
                "stream_id": self.stream.stream_id,
                "sweeps_done": self.sweeps_done,
            },
            rng={"streams": [self.stream.state()]},
        )

    def sample(
        self,
        n_samples: int,
        burn_in: int = 0,
        thin: int = 1,
    ) -> ChainResult:
        """Burn in, then record per-sweep m and e for ``n_samples`` sweeps.

        ``thin`` keeps every ``thin``-th sweep (reduces autocorrelation in
        the stored series; the estimators are unaffected either way).
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        if thin <= 0:
            raise ValueError(f"thin must be positive, got {thin}")
        self.run(burn_in)
        m_series = np.empty(n_samples, dtype=np.float64)
        e_series = np.empty(n_samples, dtype=np.float64)
        for k in range(n_samples):
            self.run(thin)
            plain = self.lattice
            m_series[k] = magnetization(plain)
            e_series[k] = energy_per_spin(plain)
        return summarize_chain(self.temperature, m_series, e_series)


def run_temperature_scan(
    shape: int | tuple[int, int],
    temperatures: np.ndarray,
    n_samples: int,
    burn_in: int,
    updater: str = "compact",
    backend: Backend | None = None,
    seed: int = 0,
    thin: int = 1,
    field: float = 0.0,
    block_shape: tuple[int, int] | None = None,
) -> list[ChainResult]:
    """Fig. 4 workflow: one independent chain per temperature.

    Each temperature gets its own Philox stream id, so scans are
    reproducible and embarrassingly parallel — and since every chain
    shares one lattice geometry, they are executed as a single batched
    :class:`~repro.core.ensemble.EnsembleSimulation` whose sweeps advance
    all temperatures in one vectorised array op.  Results are
    bit-identical to the historical serial loop of one
    :class:`IsingSimulation` per temperature with ``stream_id=idx``.

    ``field`` (external magnetic field h) and ``block_shape`` (grid
    block decomposition) are forwarded to every chain.
    """
    from .ensemble import EnsembleSimulation

    temps = np.asarray(temperatures, dtype=np.float64)
    ensemble = EnsembleSimulation(
        shape,
        temps,
        updater=updater,
        backend=backend,
        seed=seed,
        stream_ids=range(len(temps)),
        initial=["hot" if t >= 2.0 else "cold" for t in temps],
        field=field,
        block_shape=block_shape,
    )
    return ensemble.sample(n_samples, burn_in=burn_in, thin=thin)
