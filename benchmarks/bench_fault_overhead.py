"""Fault-injection overhead: the hooks must be free when no plan is set.

The acceptance gate for the fault-tolerant runtime: a
:class:`~repro.core.distributed.DistributedIsing` built without a
:class:`~repro.mesh.faults.FaultPlan` must pay < 2% over the pre-hook
sweep path — the only additions on the hot path are one ``is None``
branch per sweep (the ``begin_sweep`` guard) and one per collective
(inside ``_execute_collective``).  Measured with the same fixed-repeat
paired protocol as ``bench_telemetry.py``, plus the
attached-but-empty-plan cost for reference and a bit-identity smoke
(the full fault matrix lives in ``tests/test_faults.py``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.distributed import DistributedIsing
from repro.mesh.faults import FaultPlan

from .conftest import (
    BETA_C,
    OVERHEAD_REPEATS,
    format_overhead,
    overhead_pct,
    time_rounds,
)

_SIDE = 64
_GRID = (2, 2)
_SWEEPS = 6


def _build(fault_plan: FaultPlan | None) -> DistributedIsing:
    return DistributedIsing(
        _SIDE, 1.0 / BETA_C, core_grid=_GRID, seed=5, fault_plan=fault_plan
    )


def _time_sweeps(sim: DistributedIsing) -> float:
    start = perf_counter()
    sim.sweep(_SWEEPS)
    return perf_counter() - start


def measure_overhead() -> dict[str, float]:
    """Fixed-repeat timings: no plan vs an attached empty plan.

    Both variants are built once and re-timed over the same instances
    (construction and first-sweep allocation costs are not what the gate
    measures).  ``OVERHEAD_REPEATS`` rounds time both back to back,
    alternating which goes first (see ``time_rounds``), so slow machine
    phases hit a round's variants alike and run order cancels; the
    overhead is the median, IQR and order effect of the per-round ratios.
    """
    bare = _build(None)
    hooked = _build(FaultPlan())
    _time_sweeps(bare)  # warm-up (first sweeps pay numpy allocation costs)
    _time_sweeps(hooked)
    seconds = time_rounds({
        "no_plan": lambda: _time_sweeps(bare),
        "empty_plan": lambda: _time_sweeps(hooked),
    })
    pct, iqr, order = overhead_pct(seconds, "no_plan", "empty_plan")
    return {
        "no_plan_seconds": float(np.median(seconds["no_plan"])),
        "empty_plan_seconds": float(np.median(seconds["empty_plan"])),
        "empty_plan_overhead_pct": pct,
        "empty_plan_overhead_iqr_pct": iqr,
        "empty_plan_overhead_order_pct": order,
    }


def test_no_plan_hooks_under_two_percent():
    """Acceptance gate: runs without a FaultPlan pay < 2% for the hooks.

    The true overhead is a handful of ``is None`` branches (~0%); judged
    on the median of a fixed number of paired rounds, measured once.
    Note the comparison here is plan-free vs *empty plan attached*; the
    plan-free path itself is the pre-hook fast path (no injector
    consulted at all).
    """
    t = measure_overhead()
    summary = (
        "fault-hook overhead "
        + format_overhead(
            t["empty_plan_overhead_pct"],
            t["empty_plan_overhead_iqr_pct"],
            t["empty_plan_overhead_order_pct"],
        )
        + f" (no plan {t['no_plan_seconds']:.4f}s vs empty plan "
        f"{t['empty_plan_seconds']:.4f}s)"
    )
    print(summary)
    assert t["empty_plan_overhead_pct"] < 2.0, f"{summary} exceeds the 2% budget"


def test_empty_plan_is_bit_identical():
    plain = _build(None)
    hooked = _build(FaultPlan())
    plain.sweep(4)
    hooked.sweep(4)
    np.testing.assert_array_equal(plain.gather_lattice(), hooked.gather_lattice())
    assert [s.state() for s in plain._streams] == [
        s.state() for s in hooked._streams
    ]


def test_sweep_no_fault_plan(benchmark):
    benchmark.group = "fault-overhead"
    sim = _build(None)
    benchmark(lambda: sim.sweep(1))


def test_sweep_empty_fault_plan(benchmark):
    benchmark.group = "fault-overhead"
    sim = _build(FaultPlan())
    benchmark(lambda: sim.sweep(1))


def bench_payload() -> tuple[dict, dict]:
    """Machine-readable summary: measured fault-hook overhead."""
    timings = measure_overhead()
    return (
        dict(timings),
        {
            "side": _SIDE,
            "core_grid": list(_GRID),
            "n_sweeps": _SWEEPS,
            "repeats": OVERHEAD_REPEATS,
        },
    )
