"""Lockstep SPMD execution of per-core programs in a single process.

TPU programs are SIMD: every core runs the same program, and collectives
are synchronisation points where all cores block until the exchange
completes.  We reproduce those semantics with generators: a per-core
program is a generator that ``yield``s :class:`PermuteRequest` objects
and receives the permuted tensor back from the runtime.  The runtime
advances every core to its next collective, checks that all cores issued
the *same* collective (a real SPMD program cannot diverge — violating
this raises :class:`LockstepError`), performs the data movement, and
charges the modeled communication time to each core's profiler.

Compute between collectives runs inside the generators, so any
TPUBackend charges land on the right core automatically.  An optional
:class:`~repro.telemetry.metrics.MetricsRegistry` additionally books
collective counts, bytes and modeled seconds for run reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

import numpy as np

from ..tpu.tensorcore import TensorCore
from .collectives import collective_permute
from .links import LinkModel
from .topology import Torus2D

__all__ = ["PermuteRequest", "LockstepError", "SPMDRuntime"]


@dataclass
class PermuteRequest:
    """A core's collective_permute call: its operand and the global pairs."""

    tensor: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    name: str = "collective_permute"


class LockstepError(RuntimeError):
    """Raised when per-core programs diverge at a collective."""


class SPMDRuntime:
    """Drives one generator program per core in lockstep.

    Parameters
    ----------
    torus:
        Core topology (defines the id space for permute pairs).
    link_model:
        Interconnect timing model for communication charges.
    cores:
        Optional simulated TensorCores (one per torus position) whose
        profilers receive communication time; pure-physics runs can omit
        them.
    metrics:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry`.  When
        attached, every collective books ``collectives_total``,
        ``collective_bytes_total`` (payload bytes per participating core)
        and the modeled ``collective_seconds`` histogram.  ``None`` (the
        default) keeps the lockstep loop free of metric calls.
    """

    def __init__(
        self,
        torus: Torus2D,
        link_model: LinkModel | None = None,
        cores: list[TensorCore] | None = None,
        metrics=None,
    ) -> None:
        self.torus = torus
        self.link_model = link_model if link_model is not None else LinkModel()
        if cores is not None and len(cores) != torus.num_cores:
            raise ValueError(
                f"{len(cores)} cores given for a {torus.num_cores}-core torus"
            )
        self.cores = cores
        self.metrics = metrics
        self.collectives_executed = 0

    def run(
        self, make_program: Callable[[int], Generator[PermuteRequest, np.ndarray, Any]]
    ) -> list[Any]:
        """Execute ``make_program(core_id)`` on every core; return results.

        Each program may yield any number of PermuteRequests; all cores
        must yield matching collectives (same pairs) and finish together.
        """
        n = self.torus.num_cores
        programs = [make_program(core_id) for core_id in range(n)]
        results: list[Any] = [None] * n

        # Advance every program to its first yield (or completion).
        pending: list[PermuteRequest | None] = [None] * n
        finished = [False] * n
        for cid, program in enumerate(programs):
            try:
                pending[cid] = next(program)
            except StopIteration as stop:
                finished[cid] = True
                results[cid] = stop.value

        while not all(finished):
            if any(finished):
                early = [c for c, f in enumerate(finished) if f]
                raise LockstepError(
                    f"cores {early} finished while others are blocked on a "
                    "collective — SPMD programs must not diverge"
                )
            requests = [req for req in pending if req is not None]
            pairs = requests[0].pairs
            for cid, req in enumerate(requests):
                if req.pairs != pairs:
                    raise LockstepError(
                        f"core {cid} issued pairs {req.pairs} while core 0 "
                        f"issued {pairs} — collective specs must be globally identical"
                    )
            received = self._execute_collective(requests)

            for cid, program in enumerate(programs):
                try:
                    pending[cid] = program.send(received[cid])
                except StopIteration as stop:
                    finished[cid] = True
                    pending[cid] = None
                    results[cid] = stop.value
        return results

    def _execute_collective(self, requests: list[PermuteRequest]) -> list[np.ndarray]:
        """Run one collective: permute, count, charge."""
        request = requests[0]
        received = collective_permute([req.tensor for req in requests], request.pairs)
        self.collectives_executed += 1
        self._charge_communication(request)
        return received

    def _charge_communication(self, request: PermuteRequest) -> None:
        bytes_per_edge = float(request.tensor.nbytes)
        if self.metrics is not None:
            self.metrics.counter("collectives_total").inc()
            self.metrics.counter("collective_bytes_total").inc(bytes_per_edge)
        if self.cores is None:
            return
        seconds = self.link_model.permute_time(self.torus.num_cores, bytes_per_edge)
        if self.metrics is not None:
            self.metrics.histogram("collective_seconds").observe(seconds)
        for core in self.cores:
            core.charge_communication(
                seconds, bytes_moved=bytes_per_edge, name=request.name
            )
