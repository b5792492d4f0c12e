"""Scheduler throughput vs the serial submit loop, on the cost-model clock.

The acceptance gate for the :mod:`repro.sched` service: a mixed-priority
mix of 64 jobs (three lattice sizes x two dtypes, duplicates included)
must finish at least **3x faster** through the scheduler than the same
submissions run as a serial loop of solo ``repro.simulate()`` runs on
one simulated core.  Both sides are measured on the *modeled* cost-model
clock — the serial baseline is the sum of each solo run's modeled
seconds, the scheduler side is the device-pool makespan — so the gate
judges scheduling quality (coalesced batching, multi-device packing,
cache dedup), not host timing noise.

Also gated here: at least one coalesced batch reaches 8 chains, every
duplicate submission is served from the content-addressed cache, and the
scheduling layer with telemetry *disabled* pays < 2% over driving the
same batched ensembles by hand (the fixed-repeat paired protocol of
``bench_telemetry.py``, with the sweeps both sides share subtracted).
Per-job bit-identity lives in ``tests/test_sched_scheduler.py``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.api import SimulationConfig
from repro.backend.tpu_backend import TPUBackend
from repro.core.ensemble import EnsembleSimulation
from repro.core.lattice import random_lattice
from repro.core.simulation import IsingSimulation
from repro.observables.energy import energy_per_spin
from repro.observables.magnetization import magnetization
from repro.rng import PhiloxStream
from repro.sched import Scheduler
from repro.telemetry import RunTelemetry
from repro.tpu.dtypes import resolve_dtype
from repro.tpu.profiler import Profiler
from repro.tpu.tensorcore import TensorCore

from .conftest import (
    OVERHEAD_REPEATS,
    format_overhead,
    method_clock,
    own_overhead_pct,
    time_rounds,
)

_SHAPES = (16, 24, 32)
_DTYPES = ("float32", "bfloat16")
_N_JOBS = 64
_N_UNIQUE = 48
_SWEEPS = 24
_N_DEVICES = 2
_MAX_BATCH = 16


def build_jobs() -> list[tuple[SimulationConfig, int, int]]:
    """The deterministic 64-job mix: (config, sweeps, priority) rows.

    48 unique jobs cycle through the 3 shapes x 2 dtypes grid with
    varying temperatures/seeds and priorities 0/1/5; the last 16 rows
    repeat earlier rows verbatim (the duplicate traffic a multi-tenant
    service sees).
    """
    rows = []
    for i in range(_N_UNIQUE):
        shape = _SHAPES[i % len(_SHAPES)]
        dtype = _DTYPES[(i // len(_SHAPES)) % len(_DTYPES)]
        config = SimulationConfig(
            shape=shape,
            temperature=1.6 + 0.05 * (i % 12),
            dtype=dtype,
            seed=100 + i,
            backend="tpu",
        )
        rows.append((config, _SWEEPS, (0, 1, 5)[i % 3]))
    for i in range(_N_JOBS - _N_UNIQUE):
        rows.append(rows[i * 3])
    return rows


def run_serial(jobs) -> float:
    """The baseline: each submission as a solo run on one fresh core.

    Returns the summed modeled seconds — what a naive one-job-at-a-time
    service would book on a single device, duplicates recomputed.
    """
    total = 0.0
    for index, (config, sweeps, _) in enumerate(jobs):
        core = TensorCore(core_id=index, profiler=Profiler())
        sim = IsingSimulation(
            config.shape,
            config.resolved_temperature,
            updater=config.updater,
            backend=TPUBackend(core, resolve_dtype(config.dtype)),
            seed=config.seed,
            initial=config.initial,
            field=config.field,
            fused=config.fused,
        )
        sim.run(sweeps)
        total += core.profiler.total_seconds
    return total


def run_scheduled(jobs, telemetry: RunTelemetry | None = None) -> tuple[Scheduler, float]:
    """All submissions through one scheduler; returns (scheduler, makespan)."""
    scheduler = Scheduler(
        n_devices=_N_DEVICES, max_batch=_MAX_BATCH, quantum=_SWEEPS,
        telemetry=telemetry,
    )
    for config, sweeps, priority in jobs:
        scheduler.submit(config, sweeps, priority=priority)
    scheduler.drain()
    return scheduler, scheduler.pool.makespan()


def measure() -> dict:
    """The modeled-clock comparison plus the scheduler's own stats."""
    jobs = build_jobs()
    serial_seconds = run_serial(jobs)
    scheduler, makespan = run_scheduled(jobs)
    stats = scheduler.stats()
    return {
        "n_jobs": len(jobs),
        "modeled_serial_seconds": serial_seconds,
        "modeled_sched_makespan_seconds": makespan,
        "modeled_speedup_x": serial_seconds / makespan,
        "max_batch_occupancy": stats["batches"]["max_occupancy"],
        "batches_started": stats["batches"]["started"],
        "cache_hits": stats["cache"]["hits"],
        "jobs_completed": stats["jobs"]["completed"],
    }


def test_scheduler_3x_on_modeled_clock():
    """Acceptance gate: >= 3x over the serial loop on the modeled clock."""
    numbers = measure()
    assert numbers["jobs_completed"] == _N_JOBS
    assert numbers["modeled_speedup_x"] >= 3.0, (
        f"scheduler makespan {numbers['modeled_sched_makespan_seconds']:.4f}s modeled "
        f"vs serial {numbers['modeled_serial_seconds']:.4f}s is only "
        f"{numbers['modeled_speedup_x']:.2f}x (need >= 3x)"
    )


def test_coalesces_at_least_eight_chains():
    """Acceptance gate: >= 1 coalesced batch reaches 8 chains."""
    scheduler, _ = run_scheduled(build_jobs())
    assert scheduler.stats()["batches"]["max_occupancy"] >= 8


def test_every_duplicate_served_from_cache():
    """Acceptance gate: all 16 duplicate submissions come from the cache."""
    jobs = build_jobs()
    scheduler = Scheduler(
        n_devices=_N_DEVICES, max_batch=_MAX_BATCH, quantum=_SWEEPS
    )
    handles = [
        scheduler.submit(config, sweeps, priority=priority)
        for config, sweeps, priority in jobs
    ]
    scheduler.drain()
    duplicates = handles[_N_UNIQUE:]
    assert len(duplicates) == _N_JOBS - _N_UNIQUE
    assert all(job.from_cache for job in duplicates), (
        f"{sum(not j.from_cache for j in duplicates)} duplicate(s) were "
        "recomputed instead of served from the cache"
    )
    assert all(job.state == "done" for job in handles)


# -- telemetry-off overhead ---------------------------------------------------

_OVH_SIDE = 128
_OVH_CHAINS = 8
_OVH_SWEEPS = 48


def _overhead_configs() -> list[SimulationConfig]:
    return [
        SimulationConfig(shape=_OVH_SIDE, temperature=1.8 + 0.05 * i, seed=i)
        for i in range(_OVH_CHAINS)
    ]


def _time_bare_ensemble() -> tuple[float, float]:
    """The floor: the scheduler's batch built, advanced and read out by hand.

    The hand driver derives each chain as the scheduler does (one solo
    stream per config and its hot-start draw), bundles the chains with
    ``EnsembleSimulation.from_chains`` and reads out each chain's
    lattice, magnetization and energy: the work ``_time_scheduled``
    times, minus the scheduling layer.  Both timers start before any
    chain is built.  Returns (seconds outside ``EnsembleSimulation.run``,
    total seconds): see ``method_clock``.
    """
    configs = _overhead_configs()
    shape = (_OVH_SIDE, _OVH_SIDE)
    with method_clock(EnsembleSimulation, "run") as sweeps:
        start = perf_counter()
        chains = []
        for config in configs:
            stream = PhiloxStream(config.seed, 0)
            lattice = random_lattice(shape, stream)
            chains.append((config.resolved_temperature, stream, lattice))
        ensemble = EnsembleSimulation.from_chains(shape, chains)
        ensemble.run(_OVH_SWEEPS)
        for plain in ensemble.lattices:
            lattice = np.array(plain, copy=True)
            float(magnetization(lattice)), float(energy_per_spin(lattice))
        total = perf_counter() - start
    return total - sweeps[0], total


def _time_scheduled(telemetry: RunTelemetry | None) -> tuple[float, float]:
    """The same 8 chains through the scheduler; same return as the floor."""
    scheduler = Scheduler(
        n_devices=1, max_batch=_OVH_CHAINS, quantum=_OVH_SWEEPS,
        telemetry=telemetry,
    )
    configs = _overhead_configs()
    with method_clock(EnsembleSimulation, "run") as sweeps:
        start = perf_counter()
        for config in configs:
            scheduler.submit(config, _OVH_SWEEPS)
        scheduler.drain()
        total = perf_counter() - start
    return total - sweeps[0], total


def measure_overhead() -> dict[str, float]:
    """Fixed-repeat timings: bare ensemble vs scheduler with telemetry off/on.

    ``OVERHEAD_REPEATS`` rounds time all three variants back to back in
    a rotating order (see ``time_rounds``).  A round's overhead is the
    scheduled side's time outside the sweeps minus the floor's, as a
    share of the floor's total (see ``own_overhead_pct``); overheads are
    the median, IQR and order effect over rounds.  The workload is
    one quantum-sized batch, so the comparison isolates the scheduling
    layer itself, not batching differences.
    """
    _time_bare_ensemble()  # warm-up
    seconds = time_rounds({
        "bare": _time_bare_ensemble,
        "disabled": lambda: _time_scheduled(None),
        "enabled": lambda: _time_scheduled(RunTelemetry()),
    })
    timings = {
        f"{name}_seconds": float(np.median(t[:, 1])) for name, t in seconds.items()
    }
    for name in ("disabled", "enabled"):
        pct, iqr, order = own_overhead_pct(seconds, "bare", name)
        timings[f"{name}_overhead_pct"] = pct
        timings[f"{name}_overhead_iqr_pct"] = iqr
        timings[f"{name}_overhead_order_pct"] = order
    return timings


def test_disabled_telemetry_under_two_percent():
    """Acceptance gate: the scheduler with telemetry off pays < 2% over
    driving the same batch by hand.

    The off path is plain counters and ``is None`` branches; judged on
    the median of a fixed number of paired rounds, measured once, with
    the sweeps both sides share subtracted (see ``measure_overhead``).
    """
    t = measure_overhead()
    summary = (
        "telemetry-off scheduler overhead "
        + format_overhead(
            t["disabled_overhead_pct"],
            t["disabled_overhead_iqr_pct"],
            t["disabled_overhead_order_pct"],
        )
        + f" (bare {t['bare_seconds']:.4f}s vs scheduled "
        f"{t['disabled_seconds']:.4f}s)"
    )
    print(summary)
    assert t["disabled_overhead_pct"] < 2.0, f"{summary} exceeds the 2% budget"


def test_sched_throughput(benchmark):
    benchmark.group = "sched-64-job-mix"
    jobs = build_jobs()
    benchmark(lambda: run_scheduled(jobs))


def bench_payload() -> tuple[dict, dict]:
    """Machine-readable summary: modeled speedup + telemetry-off overhead."""
    numbers = measure()
    numbers.update(measure_overhead())
    return (
        numbers,
        {
            "n_jobs": _N_JOBS,
            "n_unique": _N_UNIQUE,
            "shapes": list(_SHAPES),
            "dtypes": list(_DTYPES),
            "sweeps": _SWEEPS,
            "n_devices": _N_DEVICES,
            "max_batch": _MAX_BATCH,
            "overhead_repeats": OVERHEAD_REPEATS,
        },
    )


def main() -> None:
    numbers = measure()
    print(f"{_N_JOBS}-job mix ({_N_UNIQUE} unique), {_SWEEPS} sweeps/job, "
          f"{_N_DEVICES} devices, max_batch={_MAX_BATCH}")
    print(f"serial modeled   {numbers['modeled_serial_seconds'] * 1e3:10.2f} ms")
    print(f"sched makespan   {numbers['modeled_sched_makespan_seconds'] * 1e3:10.2f} ms")
    print(f"modeled speedup  {numbers['modeled_speedup_x']:10.1f} x")
    print(f"max occupancy    {numbers['max_batch_occupancy']:10d} chains")
    print(f"cache hits       {numbers['cache_hits']:10d}")
    overhead = measure_overhead()
    print("telemetry-off overhead " + format_overhead(
        overhead["disabled_overhead_pct"],
        overhead["disabled_overhead_iqr_pct"],
        overhead["disabled_overhead_order_pct"],
    ) + f"; enabled {overhead['enabled_overhead_pct']:.2f} %")


if __name__ == "__main__":
    main()
