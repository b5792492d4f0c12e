"""High-level single-core simulation driver.

:class:`IsingSimulation` is one checkerboard chain — an
:class:`~repro.core.ensemble.EnsembleSimulation` that runs one chain —
and exposes the workflow of the paper's Fig. 4: burn-in, sample, and
estimate magnetization / energy / Binder cumulant with honest error
bars.  It keeps the solo constructor, scalar accessors, and the
``"single"`` checkpoint and run-report formats; construction,
evolution, telemetry and sampling are the ensemble's.

Samples are accumulated streamingly (per-sweep scalars only), so chains of
millions of sweeps need no lattice history storage.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import Backend
from ..observables.energy import energy_per_spin
from ..observables.magnetization import magnetization
from ..rng.streams import BatchedPhiloxStream, PhiloxStream
from ..telemetry.report import RunReport, RunTelemetry
from .config import checkpoint_envelope
from .ensemble import (
    ChainResult,
    EnsembleSimulation,
    _open_checkpoint,
    summarize_chain,
)

__all__ = [
    "IsingSimulation",
    "ChainResult",
    "summarize_chain",
    "run_temperature_scan",
]


class IsingSimulation(EnsembleSimulation):
    """A single-core checkerboard Ising chain.

    Parameters
    ----------
    shape:
        Lattice shape (rows, cols) or a single side length.
    temperature:
        Temperature in units of J / k_B (beta = 1 / T).
    updater:
        "compact" (Algorithm 2, default), "checkerboard" (Algorithm 1),
        "conv" (appendix variant) or "masked_conv".
    backend:
        Op executor; default float32 numpy.  Pass a bfloat16 or TPU
        backend to change numerics/accounting.
    seed, stream_id:
        Philox stream selection.
    initial:
        "hot", "cold", or an explicit +/-1 array.
    block_shape, field, fused, telemetry:
        As in :class:`~repro.core.ensemble.EnsembleSimulation`.  Under
        the fused engine (the default on numpy backends) the chain
        records one sweep as an (op, buffer) program and replays it for
        every further sweep (see :mod:`repro.core.traced`).

    ``stream`` is the chain's one-chain
    :class:`~repro.rng.streams.BatchedPhiloxStream`; ``stream.chain(0)``
    is its :class:`~repro.rng.streams.PhiloxStream`.
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
        super().__init__(
            shape,
            [temperature],
            updater=updater,
            backend=backend,
            seed=seed,
            stream_ids=[stream_id],
            initial=initial,
            block_shape=block_shape,
            field=field,
            fused=fused,
            telemetry=telemetry,
        )

    # perfbench/spans.py wraps ``vars(cls)["run"]`` on each driver class,
    # so the solo names the ensemble's ``run`` in its own body.
    run = EnsembleSimulation.run

    @property
    def temperature(self) -> float:
        return float(self.temperatures[0])

    @property
    def beta(self) -> float:
        return float(self.betas[0])

    @property
    def lattice(self) -> np.ndarray:
        """The current plain +/-1 lattice (a copy)."""
        return self.lattices[0]

    def magnetization(self) -> float:
        return magnetization(self.lattice)

    def energy_per_spin(self) -> float:
        return energy_per_spin(self.lattice)

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
        return super().sample(n_samples, burn_in=burn_in, thin=thin)[0]

    def report(self) -> RunReport:
        """Build the run's ``"single"`` :class:`~repro.telemetry.report.RunReport`.

        Requires an attached telemetry recorder; captures the static run
        configuration, the sweep wall-time summary, sampled physics
        drift and the final Philox counter position.
        """
        chain = self.stream.chain(0)
        run = {
            **self._layout(),
            "temperature": self.temperature,
            "fused": self.fused,
            "seed": chain.seed,
            "stream_id": chain.stream_id,
            "sweeps_done": self.sweeps_done,
        }
        return self._build_report("single", run, [chain.state()])

    def state_dict(self) -> dict:
        """Serializable ``"single"`` checkpoint: lattice + RNG state + progress.

        The same ``checkpoint/v2`` envelope contract as
        :meth:`EnsembleSimulation.state_dict`, with one ``lattice``, one
        ``temperature`` and the chain's ``{seed, stream_id, counter}``
        stream; packed chains store their unbatched word planes.
        """
        payload = {
            **self._layout(),
            "temperature": self.temperature,
            "fused": self.fused_config,
            "lattice": self.lattice,
            "stream": self.stream.chain(0).state(),
            "sweeps_done": self.sweeps_done,
        }
        if self.packed:
            payload["packed"] = self._packed_payload(0)
        return checkpoint_envelope("single", payload)

    @classmethod
    def from_state_dict(
        cls, state: dict, backend: Backend | None = None
    ) -> "IsingSimulation":
        """Rebuild a simulation from :meth:`state_dict` output.

        Accepts the ``checkpoint/v2`` envelope only.  The checkpoint's
        backend kind, dtype and ``block_shape`` round-trip, so a chain
        checkpointed from a bfloat16 TPU backend or a non-default block
        decomposition resumes with the same numerics and tensor layout.
        Pass ``backend`` to resume on an explicit (pre-built) backend
        instead.
        """
        state, backend, block_shape = _open_checkpoint(state, "single", backend)
        sim = cls(
            tuple(state["shape"]),
            state["temperature"],
            updater=state["updater"],
            backend=backend,
            field=state["field"],
            block_shape=block_shape,
            fused=state.get("fused", "auto"),
            initial=state["lattice"],
        )
        return sim._resume(
            state.get("packed"),
            BatchedPhiloxStream.from_streams(
                [PhiloxStream.from_state(state["stream"])]
            ),
            state["sweeps_done"],
        )


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
