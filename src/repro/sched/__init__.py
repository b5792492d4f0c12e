"""repro.sched — a multi-tenant simulation service over the device pool.

Where :mod:`repro.api` runs one configuration at a time, this package
turns *many* users' :class:`~repro.api.SimulationConfig`-keyed requests
into batched, cached, schedulable work:

* :mod:`repro.sched.job` — the JobSpec / Job state machine
  (``queued -> admitted -> running -> preempted | done | failed``);
* :mod:`repro.sched.cache` — a content-addressed result cache keyed by
  the canonical hash of (config, seed, sweep count);
* :mod:`repro.sched.coalesce` — groups compatible jobs into one
  vectorized :class:`~repro.core.ensemble.EnsembleSimulation`;
* :mod:`repro.sched.pool` — simulated TensorCore leases;
* :mod:`repro.sched.scheduler` — continuous batching, weighted-fair
  admission, priority preemption via checkpoint/v2 snapshots;
* :mod:`repro.sched.client` — the ``Client`` / ``submit()`` front door
  re-exported through :mod:`repro.api`.

Every serving path — batched, cached, preempted-and-resumed — returns
observables bit-identical to a solo ``repro.simulate()`` run of the same
config and seed.  See ``docs/scheduler.md``.
"""

from .cache import ResultCache, canonical_cache_key
from .client import Client, submit
from .coalesce import BatchPlan, Coalescer, compat_key
from .job import Job, JobResult, JobSpec, JobState
from .pool import DeviceLease, DevicePool
from .scheduler import Scheduler, SchedulerDrainingError, SchedulerSaturatedError

__all__ = [
    "BatchPlan",
    "Client",
    "Coalescer",
    "DeviceLease",
    "DevicePool",
    "Job",
    "JobResult",
    "JobSpec",
    "JobState",
    "ResultCache",
    "Scheduler",
    "SchedulerDrainingError",
    "SchedulerSaturatedError",
    "canonical_cache_key",
    "compat_key",
    "submit",
]
