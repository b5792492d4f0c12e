"""The multi-tenant scheduler: continuous batching over leased devices.

One :class:`Scheduler` owns a :class:`~repro.sched.pool.DevicePool`, a
:class:`~repro.sched.cache.ResultCache` and a queue of
:class:`~repro.sched.job.Job` s, and serves them with three throughput
levers stacked on top of each other:

1. **Content-addressed caching** — a submit whose canonical key is
   already cached (or already in flight) never touches the pool; the
   duplicate is served bit-identically from the first computation.
2. **Continuous batching** — compatible jobs (same
   :func:`~repro.sched.coalesce.compat_key`) ride one vectorized
   :class:`~repro.core.ensemble.EnsembleSimulation`; jobs join and leave
   the batch at sweep boundaries while sibling chains' Philox streams
   advance undisturbed, so every chain stays bit-identical to its solo
   ``repro.simulate()`` run.
3. **Priority preemption + weighted-fair admission** — queued work is
   ordered by (priority desc, tenant fair-share, arrival); a
   higher-priority arrival snapshots the lowest-priority running batch
   through its ``checkpoint/v2`` envelope and requeues its jobs, which
   later resume bit-identically from their tokens.  A revoked device
   lease (:class:`~repro.sched.pool.CoreLostError`) requeues the same
   way, from the last consistent token.

Scheduling is cooperative and synchronous: :meth:`Scheduler.step` runs
one admission + advance round, :meth:`Scheduler.drain` runs rounds until
the system is idle.  All device time is the modeled cost-model clock
(see :mod:`repro.sched.pool`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..backend.numpy_backend import NumpyBackend
from ..backend.tpu_backend import TPUBackend
from ..core.couplings import BondCouplings, bond_energy_per_spin
from ..core.ensemble import EnsembleSimulation
from ..core.lattice import initial_lattice
from ..observables.energy import energy_per_spin
from ..observables.magnetization import magnetization
from ..rng.streams import PhiloxStream
from ..telemetry.report import RunReport, RunTelemetry
from ..tpu.dtypes import resolve_dtype
from .cache import ResultCache, _normalized_shape, canonical_cache_key
from .coalesce import Coalescer, compat_key
from .job import Job, JobResult, JobSpec, JobState
from .pool import CoreLostError, DevicePool

__all__ = ["Scheduler", "SchedulerSaturatedError", "SchedulerDrainingError"]

#: Bounds on the modeled :meth:`Scheduler.modeled_retry_after` hint, and
#: the fallback when no service history exists yet (modeled seconds).
_RETRY_AFTER_MIN_S = 1e-3
_RETRY_AFTER_MAX_S = 60.0
_RETRY_AFTER_DEFAULT_S = 0.05


class SchedulerSaturatedError(RuntimeError):
    """Backpressure: the admission queue is full; resubmit later.

    ``retry_after_s`` is the machine-readable hint derived from the
    modeled queue drain rate (see :meth:`Scheduler.modeled_retry_after`):
    how long, in modeled seconds, a caller should wait before its retry
    has a fair chance of finding a free queue slot.  The serve layer
    surfaces it as an HTTP 429 ``Retry-After``; the in-process
    :class:`~repro.sched.client.Client` honors it with capped
    exponential backoff.
    """

    def __init__(self, message: str, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class SchedulerDrainingError(SchedulerSaturatedError):
    """The scheduler is shutting down and admits no new work.

    Raised by :meth:`Scheduler.submit` after :meth:`Scheduler.shutdown`
    stopped admission.  A subclass of :class:`SchedulerSaturatedError`
    so shard routers treat both as "this shard cannot take the job" —
    but retrying the *same* scheduler is pointless, so the client's
    backoff loop re-raises it immediately instead of retrying.
    """


@dataclass
class _Batch:
    """One leased ensemble in flight; ``jobs`` is parallel to chain order."""

    key: tuple
    lease: "object"
    ensemble: EnsembleSimulation
    jobs: "list[Job]" = field(default_factory=list)

    @property
    def priority(self) -> int:
        return max(job.spec.priority for job in self.jobs)

    @property
    def n_chains(self) -> int:
        return len(self.jobs)


class Scheduler:
    """Serve SimulationConfig-keyed jobs with batching, caching, preemption.

    Parameters
    ----------
    pool:
        Device pool to lease from; built fresh (``n_devices``,
        ``record_trace``) when omitted.
    n_devices:
        Pool size when building the pool here.
    max_batch:
        Maximum chains per coalesced ensemble.
    quantum:
        Sweeps a batch advances per scheduling round — the preemption
        granularity (a preempting job waits at most one quantum).
    max_queue:
        Admission-queue bound; :meth:`submit` beyond it raises
        :class:`SchedulerSaturatedError` (backpressure, not silent drop).
    tenant_weights:
        ``{tenant: weight}`` for weighted-fair admission; unlisted
        tenants weigh 1.  Service is metered in sweeps x sites.
    cache:
        Result cache to consult/fill; a fresh 1024-entry LRU by default.
    telemetry:
        Optional :class:`~repro.telemetry.report.RunTelemetry`.  When
        None (default) the scheduling loop takes the uninstrumented
        path — plain counters only, no timing calls.
    record_trace:
        Record per-device op traces plus scheduler batch spans for
        Chrome-trace export (:func:`repro.telemetry.trace.chrome_trace`).
    """

    def __init__(
        self,
        pool: DevicePool | None = None,
        n_devices: int = 2,
        max_batch: int = 16,
        quantum: int = 8,
        max_queue: int = 256,
        tenant_weights: "dict[str, float] | None" = None,
        cache: ResultCache | None = None,
        telemetry: RunTelemetry | None = None,
        record_trace: bool = False,
    ) -> None:
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.pool = pool if pool is not None else DevicePool(
            n_devices, record_trace=record_trace
        )
        self.cache = cache if cache is not None else ResultCache()
        self.coalescer = Coalescer(max_batch)
        self.max_batch = int(max_batch)
        self.quantum = int(quantum)
        self.max_queue = int(max_queue)
        self.tenant_weights = dict(tenant_weights or {})
        for tenant, weight in self.tenant_weights.items():
            if weight <= 0:
                raise ValueError(
                    f"tenant weight must be positive, got {tenant!r}: {weight}"
                )
        self.telemetry = telemetry
        self._record_spans = bool(record_trace) or self.pool.record_trace

        self.jobs: "dict[int, Job]" = {}
        self._queue: "list[Job]" = []
        self._batches: "list[_Batch]" = []
        self._inflight: "dict[str, Job]" = {}
        self._followers: "dict[int, list[Job]]" = {}
        self._tenant_service: "dict[str, float]" = {}
        self._next_job_id = 0
        self._next_batch_id = 0

        self.ticks = 0
        self.service_done = 0.0
        self._admitting = True
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.preemptions = 0
        self.lease_revocations = 0
        self.batches_started = 0
        self.max_occupancy = 0
        #: Chrome-trace spans (one per batch advance) when tracing is on.
        self.sched_log: "list[dict]" = []
        #: The checkpoint/v2 envelope of the most recent preemption
        #: snapshot (introspection / tests).
        self.last_preemption_checkpoint: dict | None = None

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        config,
        sweeps: int,
        priority: int = 0,
        tenant: str = "default",
    ) -> Job:
        """Accept one job (or serve it straight from cache/in-flight dedup).

        Returns the :class:`~repro.sched.job.Job` handle — already
        ``done`` (``from_cache``) when the canonical key was cached.  An
        identical request currently queued or running is *deduplicated*:
        the new job becomes a follower of the in-flight primary and is
        served from the cache the moment the primary completes.  Raises
        :class:`SchedulerSaturatedError` when the queue is full.
        """
        if not self._admitting:
            raise SchedulerDrainingError(
                "scheduler is draining (shutdown() was called); submit to "
                "another shard",
                retry_after_s=self.modeled_retry_after(),
            )
        spec = JobSpec(
            config=config, sweeps=int(sweeps), priority=int(priority),
            tenant=str(tenant),
        )
        key = canonical_cache_key(spec.config, spec.sweeps)
        job = Job(self._next_job_id, spec, key)
        job.submitted_tick = self.ticks

        cached = self.cache.get(key)
        if cached is not None:
            self._register(job)
            job.result = cached
            job.from_cache = True
            self._finish(job)
            return job

        primary = self._inflight.get(key)
        if primary is not None and not primary.done:
            self._register(job)
            self._followers.setdefault(primary.id, []).append(job)
            return job

        if len(self._queue) >= self.max_queue:
            raise SchedulerSaturatedError(
                f"admission queue full ({self.max_queue} jobs); "
                "drain or resubmit later",
                retry_after_s=self.modeled_retry_after(),
            )
        self._register(job)
        self._inflight[key] = job
        self._queue.append(job)
        return job

    def _register(self, job: Job) -> None:
        self._next_job_id += 1
        self.jobs[job.id] = job
        self.jobs_submitted += 1

    def _finish(self, job: Job) -> None:
        job.transition(JobState.DONE)
        job.finished_tick = self.ticks
        self.jobs_completed += 1

    # -- the scheduling loop -------------------------------------------------

    def step(self) -> bool:
        """One scheduling round: admit, advance every batch one quantum,
        retire finished jobs.  Returns True while work remains."""
        self.ticks += 1
        self._admit()
        for batch in list(self._batches):
            self._advance(batch)
        telemetry = self.telemetry
        if telemetry is not None:
            registry = telemetry.registry
            registry.gauge("sched_queue_depth").set(len(self._queue))
            registry.gauge("sched_active_batches").set(len(self._batches))
        return bool(self._queue or self._batches)

    def drain(self, max_ticks: int = 100_000) -> None:
        """Run scheduling rounds until idle (all jobs done or failed)."""
        while self._queue or self._batches:
            if (
                self._queue
                and not self._batches
                and self.pool.n_lost == self.pool.n_devices
            ):
                raise RuntimeError(
                    "device pool exhausted: every lease was revoked and "
                    f"{len(self._queue)} job(s) remain queued"
                )
            if self.ticks >= max_ticks:
                raise RuntimeError(
                    f"scheduler did not drain within {max_ticks} ticks"
                )
            self.step()

    # -- serve-layer hooks: backpressure, drain/handoff, introspection -------

    @property
    def admitting(self) -> bool:
        """False once :meth:`shutdown` stopped admission."""
        return self._admitting

    @property
    def queue_depth(self) -> int:
        """Jobs waiting in the admission queue right now."""
        return len(self._queue)

    @property
    def running_chains(self) -> int:
        """Chains currently placed on leased devices."""
        return sum(batch.n_chains for batch in self._batches)

    @property
    def busy(self) -> bool:
        """True while any work is queued or running."""
        return bool(self._queue or self._batches)

    def is_duplicate(self, cache_key: str) -> bool:
        """Would a submit of ``cache_key`` be served without queue space?

        True when the key is already cached, or an identical primary is
        queued/running here (the duplicate would become a follower).
        Shard routers use this to keep duplicates on their affine shard
        even when its queue is full — dedup never costs a queue slot.
        """
        if cache_key in self.cache:
            return True
        primary = self._inflight.get(cache_key)
        return primary is not None and not primary.done

    def _sites_of(self, job: Job) -> int:
        rows, cols = _normalized_shape(job.spec.config.shape)
        return rows * cols

    def outstanding_service(self) -> float:
        """Unfinished service (sweeps x sites) across queued + running jobs."""
        total = 0.0
        for job in self._queue:
            total += job.sweeps_remaining * self._sites_of(job)
        for batch in self._batches:
            for job in batch.jobs:
                total += job.sweeps_remaining * self._sites_of(job)
        return total

    def modeled_retry_after(self) -> float:
        """Modeled seconds until a resubmit has a fair chance of admission.

        Derived from the modeled queue drain rate: the outstanding
        service (sweeps x sites still owed to queued and running jobs)
        divided by the observed service rate on the cost-model clock
        (service done so far over the pool makespan).  Before any
        history exists the hint falls back to a small constant.  The
        estimate is clamped to [1 ms, 60 s].
        """
        outstanding = self.outstanding_service()
        if outstanding <= 0:
            return _RETRY_AFTER_MIN_S
        makespan = self.pool.makespan()
        if self.service_done > 0 and makespan > 0:
            estimate = outstanding / (self.service_done / makespan)
        else:
            estimate = _RETRY_AFTER_DEFAULT_S
        return min(max(estimate, _RETRY_AFTER_MIN_S), _RETRY_AFTER_MAX_S)

    def shutdown(self, finish: bool = False) -> dict:
        """Graceful-shutdown path: stop admitting, then drain or hand off.

        With ``finish=True`` every accepted job runs to completion (or
        failure) before returning.  With ``finish=False`` (the serve
        layer's scale-down path) running batches are *checkpointed*
        through their ``checkpoint/v2`` snapshots — exactly the
        preemption machinery — and every unfinished job is returned as a
        handoff token another scheduler re-admits bit-identically via
        :meth:`adopt`.  Either way the content-addressed result cache is
        flushed into the return value so the routing layer can re-home
        hot entries and keep hit rates intact.

        Returns ``{"jobs": [token, ...], "cache": [(key, result), ...]}``;
        ``jobs`` is empty when ``finish=True`` succeeded.  Each token
        carries ``spec`` / ``cache_key`` / ``resume`` / ``sweeps_done``
        / ``priority`` plus the original ``job`` handle (so a front door
        can re-point its references after the move).
        """
        self._admitting = False
        if finish:
            self.drain()
        else:
            for batch in list(self._batches):
                self._preempt(batch)
        handoff = []
        for job in self._queue:
            handoff.append(self._handoff_token(job))
        for followers in self._followers.values():
            for job in followers:
                handoff.append(self._handoff_token(job))
        self._queue.clear()
        self._followers.clear()
        self._inflight.clear()
        return {"jobs": handoff, "cache": self.cache.export()}

    def _handoff_token(self, job: Job) -> dict:
        return {
            "spec": job.spec,
            "cache_key": job.cache_key,
            "resume": job.resume,
            "sweeps_done": int(job.sweeps_done),
            "preemptions": int(job.preemptions),
            "job": job,
        }

    def adopt(self, token: dict) -> Job:
        """Re-admit one handed-off job from another scheduler's shutdown.

        The token's ``resume`` snapshot (lattice + Philox state) makes
        the adopted job continue bit-identically from where the old
        shard checkpointed it.  Adoption deliberately bypasses the
        ``max_queue`` bound — scale-down must never lose an accepted job
        — but still dedups against this scheduler's cache and in-flight
        primaries.
        """
        if not self._admitting:
            raise SchedulerDrainingError(
                "cannot adopt into a draining scheduler",
                retry_after_s=self.modeled_retry_after(),
            )
        spec: JobSpec = token["spec"]
        key = token["cache_key"]
        job = Job(self._next_job_id, spec, key)
        job.submitted_tick = self.ticks
        cached = self.cache.get(key)
        if cached is not None:
            self._register(job)
            job.result = cached
            job.from_cache = True
            self._finish(job)
            return job
        primary = self._inflight.get(key)
        if primary is not None and not primary.done:
            self._register(job)
            self._followers.setdefault(primary.id, []).append(job)
            return job
        job.resume = token.get("resume")
        job.sweeps_done = int(token.get("sweeps_done", 0))
        job.preemptions = int(token.get("preemptions", 0))
        self._register(job)
        self._inflight[key] = job
        self._queue.append(job)
        return job

    def peek(self, job: Job) -> dict:
        """Incremental observables of a job without disturbing its run.

        Always reports ``state`` and ``sweeps_done``; when the job is
        running in a batch (or already done) the current lattice's
        ``magnetization`` and ``energy`` ride along — the serve layer
        streams these as progress frames.  Reading never touches the
        chain's RNG or state, so streamed runs stay bit-identical.
        """
        info: dict = {"state": job.state, "sweeps_done": int(job.sweeps_done)}
        if job.result is not None:
            info["magnetization"] = job.result.magnetization
            info["energy"] = job.result.energy
            return info
        for batch in self._batches:
            if job in batch.jobs:
                index = batch.jobs.index(job)
                lattice = np.asarray(
                    batch.ensemble.lattices[index], dtype=np.float32
                )
                couplings = batch.ensemble.couplings
                if couplings is not None:
                    energy = bond_energy_per_spin(lattice, couplings)
                else:
                    energy = energy_per_spin(lattice)
                info["magnetization"] = float(magnetization(lattice))
                info["energy"] = float(energy)
                break
        return info

    # -- admission -----------------------------------------------------------

    def _rank(self, job: Job) -> tuple:
        weight = self.tenant_weights.get(job.spec.tenant, 1.0)
        served = self._tenant_service.get(job.spec.tenant, 0.0)
        return (-job.spec.priority, served / weight, job.id)

    def _admit(self) -> None:
        if not self._queue:
            return
        ranked = sorted(self._queue, key=self._rank)
        # 1. Continuous batching: join running batches with spare capacity.
        for job in ranked:
            key = compat_key(job.spec.config)
            for batch in self._batches:
                if batch.key == key and batch.n_chains < self.max_batch:
                    self._join(batch, job)
                    break
        ranked = [job for job in ranked if job.state == JobState.QUEUED]
        # 2. Start new batches while the pool has free devices.
        while ranked and self.pool.n_available > 0:
            plan = self.coalescer.plan(ranked)[0]
            self._start(plan.key, plan.jobs)
            ranked = [job for job in ranked if job.state == JobState.QUEUED]
        # 3. Priority preemption: one victim per round, strictly lower
        #    priority than the best job still waiting.
        if ranked and self._batches:
            top = ranked[0]
            victim = min(self._batches, key=lambda b: b.priority)
            if victim.priority < top.spec.priority:
                self._preempt(victim)
                plan = self.coalescer.plan(ranked)[0]
                self._start(plan.key, plan.jobs)
        self._queue = [job for job in self._queue if job.state == JobState.QUEUED]

    def _chain_of(self, job: Job):
        """(temperature, stream, lattice) for (re)admitting one job.

        Fresh jobs derive their initial state exactly as a solo
        :class:`~repro.core.simulation.IsingSimulation` would — same
        stream, same hot-start draw — and record their admission token;
        preempted jobs resume from their snapshot token.
        """
        config = job.spec.config
        shape = _normalized_shape(config.shape)
        if job.resume is not None:
            stream = PhiloxStream.from_state(job.resume["stream"])
            lattice = np.asarray(job.resume["lattice"], dtype=np.float32)
            return config.resolved_temperature, stream, lattice
        stream = PhiloxStream(config.seed, 0)
        lattice = initial_lattice(shape, config.initial, stream)
        job.resume = {
            "lattice": np.array(lattice, copy=True),
            "stream": stream.state(),
            "sweeps_done": job.sweeps_done,
        }
        return config.resolved_temperature, stream, lattice

    def _backend_for(self, key: tuple, lease) -> "NumpyBackend | TPUBackend":
        _, _, dtype_name, backend_kind, _, _, _ = key
        dtype = resolve_dtype(dtype_name)
        if backend_kind == "tpu":
            return TPUBackend(lease.device.core, dtype)
        return NumpyBackend(dtype)

    def _fail_jobs(self, jobs: "list[Job]", exc: Exception) -> None:
        for job in jobs:
            job.error = exc
            job.transition(JobState.FAILED)
            job.finished_tick = self.ticks
            self.jobs_failed += 1
            self._inflight.pop(job.cache_key, None)
            self._promote_followers(job)

    def _join(self, batch: _Batch, job: Job) -> None:
        try:
            temperature, stream, lattice = self._chain_of(job)
            batch.ensemble.add_chain(temperature, stream, lattice)
        except Exception as exc:  # noqa: BLE001 — this job is unbuildable
            self._fail_jobs([job], exc)
            return
        batch.jobs.append(job)
        job.transition(JobState.ADMITTED)
        self.max_occupancy = max(self.max_occupancy, batch.n_chains)
        if self.telemetry is not None:
            self.telemetry.registry.counter("sched_batch_joins").inc()

    def _start(self, key: tuple, jobs: "list[Job]") -> None:
        lease = self.pool.acquire(f"batch-{self._next_batch_id}")
        if lease is None:
            raise RuntimeError("no free device (caller must check the pool)")
        self._next_batch_id += 1
        shape, updater, _, _, _, block_shape, fused = key
        try:
            chains = [self._chain_of(job) for job in jobs]
            # Equal compat keys guarantee equal model tokens, so the
            # first job's resolved model speaks for the whole batch.
            model = jobs[0].spec.config.resolved_model
            couplings = None
            if model.couplings != "ferro":
                couplings = BondCouplings.generate(
                    model.couplings, shape, model.disorder_seed
                )
            ensemble = EnsembleSimulation.from_chains(
                shape,
                chains,
                updater=updater,
                backend=self._backend_for(key, lease),
                block_shape=block_shape,
                field=model.field,
                couplings=couplings,
                fused=fused,
            )
        except Exception as exc:  # noqa: BLE001 — the plan is unbuildable
            self.pool.release(lease)
            self._fail_jobs(jobs, exc)
            return
        batch = _Batch(key=key, lease=lease, ensemble=ensemble, jobs=list(jobs))
        self._batches.append(batch)
        for job in jobs:
            job.transition(JobState.ADMITTED)
        self.batches_started += 1
        self.max_occupancy = max(self.max_occupancy, batch.n_chains)
        if self.telemetry is not None:
            self.telemetry.registry.histogram("sched_batch_occupancy").observe(
                batch.n_chains
            )

    # -- advancing, retiring, preempting -------------------------------------

    def _advance(self, batch: _Batch) -> None:
        n_sweeps = min(
            self.quantum, min(job.sweeps_remaining for job in batch.jobs)
        )
        telemetry = self.telemetry
        try:
            self.pool.check(batch.lease)
            for job in batch.jobs:
                if job.state == JobState.ADMITTED:
                    job.transition(JobState.RUNNING)
            clock0 = batch.lease.device.busy_seconds
            wall0 = perf_counter() if telemetry is not None else 0.0
            batch.ensemble.run(n_sweeps)
        except CoreLostError:
            self._requeue_lost(batch)
            return
        except Exception as exc:  # noqa: BLE001 — batch-wide failure
            self._fail(batch, exc)
            return
        clock1 = batch.lease.device.busy_seconds
        rows, cols = batch.ensemble.shape
        service = n_sweeps * rows * cols
        self.service_done += service * batch.n_chains
        for job in batch.jobs:
            job.sweeps_done += n_sweeps
            tenant = job.spec.tenant
            self._tenant_service[tenant] = (
                self._tenant_service.get(tenant, 0.0) + service
            )
        if self._record_spans:
            self.sched_log.append(
                {
                    "name": f"batch x{batch.n_chains} {batch.ensemble.updater_name}",
                    "start": clock0,
                    "duration": clock1 - clock0,
                    "tid_hint": batch.lease.device.core_id,
                    "args": {
                        "jobs": [job.id for job in batch.jobs],
                        "n_sweeps": n_sweeps,
                        "device": batch.lease.device.core_id,
                    },
                }
            )
        if telemetry is not None:
            registry = telemetry.registry
            registry.histogram("sched_advance_wall_seconds").observe(
                perf_counter() - wall0
            )
            registry.histogram("sched_batch_occupancy").observe(batch.n_chains)
            registry.counter("sched_sweeps_total").inc(
                n_sweeps * batch.n_chains
            )
        self._retire(batch)

    def _retire(self, batch: _Batch) -> None:
        finished = [
            (index, job)
            for index, job in enumerate(batch.jobs)
            if job.sweeps_remaining == 0
        ]
        if not finished:
            return
        plains = batch.ensemble.lattices
        couplings = batch.ensemble.couplings
        for index, job in finished:
            lattice = np.array(plains[index], copy=True)
            if couplings is not None:
                energy = bond_energy_per_spin(lattice, couplings)
            else:
                energy = energy_per_spin(lattice)
            job.result = JobResult(
                magnetization=float(magnetization(lattice)),
                energy=float(energy),
                sweeps=job.spec.sweeps,
                lattice=lattice,
            )
            self.cache.put(job.cache_key, job.result)
            self._inflight.pop(job.cache_key, None)
            self._finish(job)
            self._serve_followers(job)
        if len(finished) == batch.n_chains:
            # The whole batch retired at once (the common case when jobs
            # share a sweep budget): drop it wholesale instead of paying
            # one updater rebuild per leaving chain.
            batch.jobs.clear()
        else:
            for index, _ in sorted(finished, key=lambda pair: -pair[0]):
                batch.jobs.pop(index)
                batch.ensemble.remove_chain(index)
        if not batch.jobs:
            self.pool.release(batch.lease)
            self._batches.remove(batch)

    def _serve_followers(self, primary: Job) -> None:
        for follower in self._followers.pop(primary.id, []):
            follower.result = self.cache.get(follower.cache_key)
            follower.from_cache = True
            self._finish(follower)

    def _preempt(self, batch: _Batch) -> None:
        """Snapshot a batch through checkpoint/v2 and requeue its jobs."""
        snapshot = batch.ensemble.state_dict()
        self.last_preemption_checkpoint = snapshot
        stream_state = snapshot["stream"]
        lattices = np.asarray(snapshot["lattices"], dtype=np.float32)
        for index, job in enumerate(batch.jobs):
            job.resume = {
                "lattice": np.array(lattices[index], copy=True),
                "stream": {
                    "seed": stream_state["seeds"][index],
                    "stream_id": stream_state["stream_ids"][index],
                    "counter": stream_state["counters"][index],
                },
                "sweeps_done": job.sweeps_done,
            }
            if job.state == JobState.RUNNING:
                job.transition(JobState.PREEMPTED)
            job.transition(JobState.QUEUED)
            job.preemptions += 1
            self._queue.append(job)
        self.pool.release(batch.lease)
        self._batches.remove(batch)
        self.preemptions += 1
        if self.telemetry is not None:
            self.telemetry.registry.counter("sched_preemptions").inc()

    def _requeue_lost(self, batch: _Batch) -> None:
        """A revoked lease: roll jobs back to their last tokens, requeue."""
        self.pool.release(batch.lease)
        self._batches.remove(batch)
        for job in batch.jobs:
            job.sweeps_done = int(job.resume["sweeps_done"])
            if job.state == JobState.RUNNING:
                job.transition(JobState.PREEMPTED)
            job.transition(JobState.QUEUED)
            self._queue.append(job)
        self.lease_revocations += 1
        if self.telemetry is not None:
            self.telemetry.registry.counter("sched_lease_revocations").inc()

    def _fail(self, batch: _Batch, exc: Exception) -> None:
        self.pool.release(batch.lease)
        self._batches.remove(batch)
        self._fail_jobs(batch.jobs, exc)

    def _promote_followers(self, failed: Job) -> None:
        """A failed primary's duplicates are innocent: requeue the first
        as the new primary, keep the rest following it."""
        followers = self._followers.pop(failed.id, [])
        if not followers:
            return
        primary, rest = followers[0], followers[1:]
        self._inflight[primary.cache_key] = primary
        self._queue.append(primary)
        if rest:
            self._followers[primary.id] = rest

    # -- introspection -------------------------------------------------------

    @property
    def pod(self) -> DevicePool:
        """The device pool, under the Chrome-trace exporter's contract
        (:func:`repro.telemetry.trace.chrome_trace` reads ``source.pod``)."""
        return self.pool

    def stats(self) -> dict:
        """Machine-readable scheduler counters (always available)."""
        return {
            "ticks": self.ticks,
            "admitting": self._admitting,
            "outstanding_service": self.outstanding_service(),
            "service_done": self.service_done,
            "retry_after_s": self.modeled_retry_after(),
            "jobs": {
                "submitted": self.jobs_submitted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "queued": len(self._queue),
                "running": sum(batch.n_chains for batch in self._batches),
            },
            "cache": self.cache.stats(),
            "batches": {
                "started": self.batches_started,
                "active": len(self._batches),
                "max_occupancy": self.max_occupancy,
            },
            "preemptions": self.preemptions,
            "lease_revocations": self.lease_revocations,
            "tenants": dict(self._tenant_service),
            "pool": {
                "n_devices": self.pool.n_devices,
                "n_lost": self.pool.n_lost,
                "makespan_seconds": self.pool.makespan(),
                "total_busy_seconds": self.pool.total_busy(),
            },
        }

    def report(self) -> RunReport:
        """Build the scheduler's :class:`~repro.telemetry.report.RunReport`.

        Requires an attached telemetry recorder.  Queue depth, batch
        occupancy, cache hit rate and preemption counts land as gauges
        next to the histograms recorded during the run.
        """
        if self.telemetry is None:
            raise RuntimeError(
                "no telemetry attached; construct with "
                "Scheduler(..., telemetry=RunTelemetry())"
            )
        stats = self.stats()
        registry = self.telemetry.registry
        registry.gauge("sched_queue_depth").set(stats["jobs"]["queued"])
        registry.gauge("sched_jobs_submitted").set(self.jobs_submitted)
        registry.gauge("sched_jobs_completed").set(self.jobs_completed)
        registry.gauge("sched_jobs_failed").set(self.jobs_failed)
        registry.gauge("sched_cache_hits").set(self.cache.hits)
        registry.gauge("sched_cache_misses").set(self.cache.misses)
        registry.gauge("sched_preemptions_total").set(self.preemptions)
        registry.gauge("sched_lease_revocations_total").set(
            self.lease_revocations
        )
        registry.gauge("sched_batches_started").set(self.batches_started)
        registry.gauge("sched_max_occupancy").set(self.max_occupancy)
        registry.gauge("sched_makespan_modeled_seconds").set(
            stats["pool"]["makespan_seconds"]
        )
        return self.telemetry.build_report(
            kind="sched",
            run={
                "n_devices": self.pool.n_devices,
                "max_batch": self.max_batch,
                "quantum": self.quantum,
                "max_queue": self.max_queue,
                "tenant_weights": dict(self.tenant_weights),
                "tenants_served": stats["tenants"],
                "ticks": self.ticks,
            },
        )
