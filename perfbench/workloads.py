"""The five perfbench workloads and the inputs each one draws from a seed.

Sweep workloads time one solo chain built through ``repro.api``; serve
workloads drive a default ``repro.serve.ServeApp`` over loopback HTTP.
Every workload does its work in fixed-size units: a ``sim.run(chunk)``
call, or one scan / one job.  A sweep workload runs at least
``check_units`` of them and then keeps going until the time budget is
spent.  A serve workload runs a fixed number of units sized from the
budget by ``units_per_s``, a nominal rate measured on a 2-vCPU container:
the server keeps every job it served, so a fixed window would tie its
peak memory to its throughput.  The digest covers the first
``check_units`` units only, so it is the same whatever the budget.
Each workload names the reference kernel that its unit times are
measured against (``reference.py``).
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from .reference import ARRAYS, CALLS, Kernel

#: Near the critical temperature, the regime the paper times.
TEMPERATURE = 2.269

#: Sweeps per served job, and the tenants the load generator rotates over
#: (64 tenants keep every tenant far below the default 64 jobs/s quota).
SERVE_SWEEPS = 64
N_TENANTS = 64

#: serve-scan draws scan ids Zipf(0.8) over 1024 ids from this fixed
#: generator, so every seed repeats the same scans: a third of the 300
#: scans of a 15 s run are repeats, and about a quarter of its jobs are
#: served from the result cache (the rest were evicted).  The seed only
#: sets the chain seeds, so all seeds cost the same.
ZIPF_EXPONENT = 0.8
N_SCAN_IDS = 1024
ZIPF_DRAW_SEED = 3
#: A chain seed is ``seed * SEED_STRIDE + id``; the warm-up scan uses the
#: last id, which the Zipf draw never reaches.
SEED_STRIDE = 4096
WARMUP_ID = SEED_STRIDE - 1


@dataclass(frozen=True)
class SweepWorkload:
    """One solo chain timed in calls of ``sim.run(chunk)``."""

    name: str
    side: int
    dtype: str
    chunk: int
    check_units: int
    reference: Kernel
    why: str

    kind = "sweep"

    def config_kwargs(self, seed: int) -> dict:
        return {
            "shape": self.side,
            "temperature": TEMPERATURE,
            "seed": seed,
            "dtype": self.dtype,
        }

    @property
    def sites(self) -> int:
        return self.side * self.side


@dataclass(frozen=True)
class ServeWorkload:
    """A closed loop of HTTP jobs: ``scan`` batches or single ``hot`` jobs."""

    name: str
    mode: str
    n_temps: int
    sweeps: int
    check_units: int
    units_per_s: float
    #: Units timed against one run of the reference kernel.
    units_per_block: int
    why: str

    kind = "serve"
    reference = CALLS

    def n_units(self, seconds: float) -> int:
        """Units in a run budgeted ``seconds``."""
        return max(self.check_units, round(seconds * self.units_per_s))

    @property
    def jobs_per_unit(self) -> int:
        return self.n_temps if self.mode == "scan" else 1

    def temperatures(self) -> "list[float]":
        return [1.5 + 0.1 * k for k in range(self.n_temps)]

    def _job(self, shape: int, temperature: float, chain_seed: int) -> dict:
        return {
            "config": {
                "shape": shape,
                "temperature": temperature,
                "seed": chain_seed,
            },
            "sweeps": self.sweeps,
        }

    def _scan(self, seed: int, scan_id: int) -> "list[dict]":
        shape = 16 if scan_id % 2 == 0 else 32
        return [
            self._job(shape, t, seed * SEED_STRIDE + scan_id)
            for t in self.temperatures()
        ]

    def warmup(self, seed: int) -> "list[dict]":
        """Untimed jobs sent before the window: lazy set-up, and for
        ``hot`` the cache fill."""
        if self.mode == "scan":
            return self._scan(seed, WARMUP_ID)
        return [self._hot_job(seed, k) for k in range(self.n_temps)]

    def _hot_job(self, seed: int, k: int) -> dict:
        return self._job(16, self.temperatures()[k], seed * SEED_STRIDE + k)

    def units(self, seed: int):
        """Endless deterministic stream of units (lists of job payloads)."""
        if self.mode == "scan":
            for scan_id in zipf_ids():
                yield self._scan(seed, scan_id)
        else:
            for j in itertools.count():
                yield [self._hot_job(seed, j % self.n_temps)]


def zipf_ids():
    """The fixed serve-scan id sequence (Zipf over ``N_SCAN_IDS`` ids)."""
    weights = [1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(N_SCAN_IDS)]
    cumulative = list(itertools.accumulate(weights))
    rng = random.Random(ZIPF_DRAW_SEED)
    while True:
        yield bisect.bisect(cumulative, rng.random() * cumulative[-1])


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "solo-512", 512, "float32", chunk=5, check_units=10, reference=ARRAYS,
            why="paper's per-core regime: Philox, acceptance take and band "
            "sums dominate, dispatch is negligible",
        ),
        SweepWorkload(
            "solo-32", 32, "float32", chunk=30, check_units=10, reference=CALLS,
            why="scheduler-sized lattice: per-call dispatch and Philox call "
            "overhead dominate, which solo-512 hides",
        ),
        SweepWorkload(
            "packed-1024", 1024, "packed", chunk=4, check_units=10, reference=ARRAYS,
            why="multi-spin engine with its own kernels: the control that "
            "float-path changes should not move",
        ),
        ServeWorkload(
            "serve-scan", "scan", n_temps=16, sweeps=SERVE_SWEEPS,
            check_units=4, units_per_s=20.0, units_per_block=1,
            why="whole service on its hot path: coalescing, continuous "
            "batching and batched small-lattice sweeps, some cache hits",
        ),
        ServeWorkload(
            "serve-hot", "hot", n_temps=16, sweeps=SERVE_SWEEPS,
            check_units=256, units_per_s=2400.0, units_per_block=48,
            why="warm result cache, no sweeps: only the front door runs "
            "(HTTP, JSON, limiter, router, cache key and lookup)",
        ),
    )
}

#: Reduced sizes for the self-test: same code paths, a fraction of the work.
SMOKE = {
    "solo-512": SweepWorkload("solo-512", 64, "float32", 4, 2, ARRAYS, ""),
    "solo-32": SweepWorkload("solo-32", 32, "float32", 20, 2, CALLS, ""),
    "packed-1024": SweepWorkload("packed-1024", 128, "packed", 2, 2, ARRAYS, ""),
    "serve-scan": ServeWorkload("serve-scan", "scan", 4, 8, 2, 20.0, 1, ""),
    "serve-hot": ServeWorkload("serve-hot", "hot", 4, 8, 16, 2400.0, 8, ""),
}


def get(name: str, smoke: bool = False):
    """The workload called ``name`` (its smoke size when ``smoke``)."""
    if name not in WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        )
    return SMOKE[name] if smoke else WORKLOADS[name]
