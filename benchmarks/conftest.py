"""Shared helpers for the benchmark suite.

Every ``bench_table*.py`` / ``bench_figure*.py`` module pairs

* **measured** host-side benchmarks of the real kernels (pytest-benchmark
  timings of actual numpy sweeps at laptop scale), with
* **modeled** paper-scale reproductions from the calibrated TPU cost
  model, asserted against the paper's published rows.

Run ``pytest benchmarks/ --benchmark-only`` for timings; the shape checks
run in either mode.
"""

from __future__ import annotations

import gc
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.core.compact import CompactUpdater
from repro.core.lattice import random_lattice
from repro.rng import PhiloxStream

#: Inverse critical temperature — the hardest (most correlated) regime.
BETA_C = 0.4406868


def make_compact_runner(side: int, nn_method: str = "matmul", dtype: str = "float32"):
    """A zero-argument callable running one compact sweep on a side^2 lattice."""
    updater = CompactUpdater(
        BETA_C, NumpyBackend(dtype), block_shape=(128, 128), nn_method=nn_method
    )
    state = updater.to_state(random_lattice((side, side), PhiloxStream(0, 7)))
    stream = PhiloxStream(1, 7)
    holder = {"state": state}

    def run():
        holder["state"] = updater.sweep(holder["state"], stream)

    return run


#: Rounds every overhead gate times: a fixed count, never extended until
#: a reading passes.  A multiple of 6, so two or three variants each
#: take every run-order position equally often.
OVERHEAD_REPEATS = 12

#: Timings per variant per round; a round keeps the fastest.  Host
#: contention only ever adds time, so the fastest of a few back-to-back
#: timings sheds most of it before rounds are compared.
OVERHEAD_BEST_OF = 3


def time_rounds(variants: dict[str, Callable[[], object]]) -> dict[str, np.ndarray]:
    """Time every variant in ``OVERHEAD_REPEATS`` rounds.

    Each callable returns the seconds it measured (a float, or a tuple
    of readings kept element-wise).  A round times every variant
    ``OVERHEAD_BEST_OF`` times, interleaved, and keeps each one's
    fastest reading.  Round ``r`` runs the variants rotated left by
    ``r``, so every variant takes each position equally often: an effect
    of run order (the first timing paying for the previous one's cache
    misses, say) cancels across rounds instead of biasing every ratio
    the same way.  Each timing starts from a collected heap, so no
    variant pays for collecting another's garbage.
    """
    names = list(variants)
    rounds: dict[str, list[np.ndarray]] = {name: [] for name in names}
    for r in range(OVERHEAD_REPEATS):
        k = r % len(names)
        best: dict[str, np.ndarray] = {}
        for _ in range(OVERHEAD_BEST_OF):
            for name in names[k:] + names[:k]:
                gc.collect()
                reading = np.asarray(variants[name](), dtype=float)
                best[name] = np.minimum(best.get(name, reading), reading)
        for name in names:
            rounds[name].append(best[name])
    return {name: np.asarray(t) for name, t in rounds.items()}


def overhead_stats(pct: np.ndarray, n_orders: int) -> tuple[float, float, float]:
    """Median, IQR and order effect of per-round overheads ``pct``.

    The gates judge the median, and the IQR says how far a single round
    could be trusted.  The order effect is half the spread of the median
    overhead between the ``n_orders`` run orders of :func:`time_rounds`:
    how far order alone moves a reading, which the rotation cancels from
    the overall median only to first order.
    """
    q1, median, q3 = np.percentile(pct, [25, 50, 75])
    by_order = [np.median(pct[k::n_orders]) for k in range(n_orders)]
    order = (max(by_order) - min(by_order)) / 2.0
    return float(median), float(q3 - q1), float(order)


@contextmanager
def one_cpu():
    """Pin this process to one of its CPUs, then restore its CPU set.

    A Philox draw splits across two threads only when the process may
    run on two CPUs, so inside this block no draw splits.
    """
    pid = os.getpid()
    cpus = os.sched_getaffinity(pid)
    os.sched_setaffinity(pid, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(pid, cpus)


@contextmanager
def method_clock(owner: type, name: str):
    """Accumulate the seconds spent inside ``owner.name`` while active.

    Yields a one-element list holding the running total.  An overhead
    gate whose floor and variant run the same engine subtracts the
    engine's time from both sides: that shared work spreads from round
    to round (host contention, where an instance's buffers landed) by
    several times a 2% budget, and what remains is each side's own time.
    """
    spent = [0.0]
    method = getattr(owner, name)

    def timed(self, *args, **kwargs):
        start = perf_counter()
        try:
            return method(self, *args, **kwargs)
        finally:
            spent[0] += perf_counter() - start

    setattr(owner, name, timed)
    try:
        yield spent
    finally:
        setattr(owner, name, method)


def own_overhead_pct(
    seconds: dict[str, np.ndarray], floor: str, variant: str
) -> tuple[float, float, float]:
    """:func:`overhead_stats` of the variant's own extra time, in %.

    ``seconds`` rows are ``(seconds outside the shared engine, total
    seconds)`` per round (see :func:`method_clock`).  A round's overhead
    is the variant's outside time minus the floor's, as a share of the
    floor's total: the paired ratio ``variant / floor - 1`` with the
    identical engine work taken out of both sides.
    """
    floor_outside, floor_total = seconds[floor].T
    pct = 100.0 * (seconds[variant][:, 0] - floor_outside) / floor_total
    return overhead_stats(pct, len(seconds))


def format_overhead(median: float, iqr: float, order: float) -> str:
    """The one-line reading every overhead gate prints and fails with."""
    return (
        f"median {median:.2f}% (IQR {iqr:.2f}%, order effect "
        f"±{order:.2f}%) over {OVERHEAD_REPEATS} rounds, best of "
        f"{OVERHEAD_BEST_OF} each"
    )


def flips_per_ns(side: int, mean_seconds: float) -> float:
    """Host throughput of one whole-lattice sweep."""
    return side * side / (mean_seconds * 1e9)
