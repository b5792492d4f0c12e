"""Job specifications, results, and the job lifecycle state machine.

A :class:`JobSpec` is the immutable request a tenant submits: one
single-chain :class:`~repro.api.SimulationConfig` plus a sweep budget, a
priority and a tenant name.  The scheduler wraps each accepted spec in a
mutable :class:`Job` that walks the lifecycle::

    queued -> admitted -> running -> done
                 ^            |
                 |            +--> preempted -> queued   (snapshot + requeue)
                 |            +--> failed
                 +------------+

plus two shortcuts out of ``queued``: straight to ``done`` when the
content-addressed result cache (or an in-flight duplicate) already
serves the request, and straight to ``failed`` when the job's batch
cannot even be constructed.  Every transition is validated — an illegal
edge is a bug in the scheduler, not a state to limp through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["JobState", "JobSpec", "Job", "JobResult"]


class JobState:
    """The job lifecycle states (plain strings, compared by identity)."""

    QUEUED = "queued"
    ADMITTED = "admitted"
    RUNNING = "running"
    PREEMPTED = "preempted"
    DONE = "done"
    FAILED = "failed"


#: Legal lifecycle edges.  ``queued -> done`` is the cache/dedup shortcut,
#: ``queued -> failed`` the batch-construction failure shortcut;
#: ``admitted -> queued`` covers preemption of a batch that never advanced.
_TRANSITIONS: dict[str, tuple[str, ...]] = {
    JobState.QUEUED: (JobState.ADMITTED, JobState.DONE, JobState.FAILED),
    JobState.ADMITTED: (JobState.RUNNING, JobState.QUEUED),
    JobState.RUNNING: (JobState.PREEMPTED, JobState.DONE, JobState.FAILED),
    JobState.PREEMPTED: (JobState.QUEUED,),
    JobState.DONE: (),
    JobState.FAILED: (),
}

@dataclass(frozen=True)
class JobSpec:
    """One tenant's immutable simulation request.

    Parameters
    ----------
    config:
        A single-chain :class:`~repro.api.SimulationConfig`.  Distributed
        fields (``grid`` / ``record_trace``) and ``telemetry`` must be
        unset — the scheduler owns the device pool and the
        instrumentation.  ``backend`` must be ``None`` / ``"numpy"`` /
        ``"tpu"`` (a pre-built :class:`~repro.backend.base.Backend`
        instance cannot be content-addressed for the result cache).
    sweeps:
        Number of full lattice sweeps to run before measuring.
    priority:
        Larger runs earlier and may preempt smaller (default 0).
    tenant:
        Fair-share accounting bucket (default "default").
    """

    config: "object"
    sweeps: int
    priority: int = 0
    tenant: str = "default"

    def __post_init__(self) -> None:
        from ..api import SimulationConfig

        if not isinstance(self.config, SimulationConfig):
            raise TypeError(
                f"config must be a SimulationConfig, got "
                f"{type(self.config).__name__}"
            )
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.config.grid is not None:
            raise ValueError(
                "scheduler jobs must leave config.grid unset "
                f"(got {self.config.grid!r}); the scheduler owns the device "
                "pool and telemetry"
            )
        if getattr(self.config, "ladder", None) is not None:
            raise ValueError(
                "scheduler jobs must leave config.ladder unset; a "
                "replica-exchange ladder is one coupled simulation — "
                "run it with repro.tempering(config) instead"
            )
        if self.config.record_trace:
            raise ValueError(
                "scheduler jobs must leave config.record_trace unset; "
                "pass record_trace to the Scheduler instead"
            )
        if self.config.telemetry not in (None, False):
            raise ValueError(
                "scheduler jobs must leave config.telemetry unset; the "
                "scheduler owns instrumentation (pass telemetry= to the "
                "Scheduler)"
            )
        if not (
            self.config.backend is None
            or self.config.backend in ("numpy", "tpu")
        ):
            raise ValueError(
                "scheduler jobs need a nameable backend ('numpy', 'tpu' or "
                f"None), got {self.config.backend!r} — pre-built Backend "
                "instances cannot be content-addressed for the result cache"
            )


@dataclass
class JobResult:
    """Observables of one completed job.

    ``lattice`` is the final plain +/-1 state; ``magnetization`` and
    ``energy`` are the standard per-spin observables of that state.  A
    cached serving returns a fresh copy of the same arrays, so results
    are bit-identical however they were produced (batched, cached, or
    preempted-and-resumed).
    """

    magnetization: float
    energy: float
    sweeps: int
    lattice: np.ndarray

    def copy(self) -> "JobResult":
        """An aliasing-free copy (what the cache hands out)."""
        return JobResult(
            magnetization=self.magnetization,
            energy=self.energy,
            sweeps=self.sweeps,
            lattice=np.array(self.lattice, copy=True),
        )


class Job:
    """A submitted :class:`JobSpec` walking the lifecycle state machine.

    The scheduler mutates jobs through :meth:`transition` only, so every
    lifecycle edge is checked against the documented machine.  ``result``
    is set exactly when the job reaches ``done``; ``error`` when it
    reaches ``failed``.  ``from_cache`` marks results served without
    touching the device pool; ``preemptions`` counts how many times the
    job was snapshotted off a device.
    """

    def __init__(self, job_id: int, spec: JobSpec, cache_key: str) -> None:
        self.id = int(job_id)
        self.spec = spec
        self.cache_key = cache_key
        self.state = JobState.QUEUED
        self.sweeps_done = 0
        self.result: JobResult | None = None
        self.error: Exception | None = None
        self.from_cache = False
        self.preemptions = 0
        #: Continuation token: ``{"lattice", "stream", "sweeps_done"}``
        #: taken by a preemption snapshot, so the job resumes where it
        #: left its device (and a ``shutdown()``/``adopt()`` handoff
        #: carries it); None for a job that was never preempted.
        self.resume: dict | None = None
        self.submitted_tick: int | None = None
        self.finished_tick: int | None = None

    def __repr__(self) -> str:
        return (
            f"Job(id={self.id}, state={self.state!r}, "
            f"sweeps={self.sweeps_done}/{self.spec.sweeps}, "
            f"priority={self.spec.priority}, tenant={self.spec.tenant!r})"
        )

    @property
    def done(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED)

    @property
    def sweeps_remaining(self) -> int:
        return self.spec.sweeps - self.sweeps_done

    def transition(self, new_state: str) -> None:
        """Move to ``new_state``, enforcing the lifecycle machine."""
        if new_state not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal job transition {self.state!r} -> {new_state!r} "
                f"for job {self.id}"
            )
        self.state = new_state
