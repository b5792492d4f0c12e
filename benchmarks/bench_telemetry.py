"""Telemetry overhead: instrumentation must be free when disabled.

The acceptance gate for the observability layer: a simulation built
without a :class:`~repro.telemetry.report.RunTelemetry` must pay no
measurable cost over the bare sweep engine (the run path's only
addition is one ``is None`` branch).  Measured on the numpy backend with
a fixed number of paired rounds judged on their median, plus the
enabled-telemetry cost for reference and a bit-identity smoke (the full
per-updater matrix lives in ``tests/test_telemetry.py``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.ensemble import EnsembleSimulation
from repro.core.simulation import IsingSimulation
from repro.telemetry import RunTelemetry

from .conftest import (
    BETA_C,
    OVERHEAD_REPEATS,
    format_overhead,
    method_clock,
    own_overhead_pct,
    time_rounds,
)

_SIDE = 256
_SWEEPS = 8


def _time_raw_loop() -> tuple[float, float]:
    """The engine ``run`` dispatches to, without the wrapper: the floor.

    Without telemetry ``run`` hands the whole batch to ``_advance``, the
    engine boundary: on this fused numpy chain it warms, records and
    replays the sweep.  Timing ``_advance`` directly leaves only the
    wrapper's ``is None`` branch in the gap, and both sides record and
    replay the same trace.  The solo inherits ``_advance`` from
    :class:`EnsembleSimulation`, so that is where the clock goes.
    Returns (seconds outside ``_advance``, total seconds): see
    ``method_clock``.
    """
    sim = IsingSimulation(_SIDE, 1.0 / BETA_C, seed=5)
    with method_clock(EnsembleSimulation, "_advance") as engine:
        start = perf_counter()
        sim._advance(_SWEEPS)
        total = perf_counter() - start
    return total - engine[0], total


def _time_sim(telemetry: RunTelemetry | None) -> tuple[float, float]:
    sim = IsingSimulation(_SIDE, 1.0 / BETA_C, seed=5, telemetry=telemetry)
    with method_clock(EnsembleSimulation, "_advance") as engine:
        start = perf_counter()
        sim.run(_SWEEPS)
        total = perf_counter() - start
    return total - engine[0], total


def measure_overhead() -> dict[str, float]:
    """Fixed-repeat timings: raw engine, disabled and enabled telemetry.

    ``OVERHEAD_REPEATS`` rounds time all three variants back to back in
    a rotating order (see ``time_rounds``).  A round's overhead is the
    variant's time outside the sweep engine minus the floor's, as a
    share of the floor's total (see ``own_overhead_pct``): with
    telemetry off that is the ``run`` wrapper, with it on the per-sweep
    timing and recording.  Overheads are the median, IQR and order
    effect over rounds, and the seconds are per-variant median totals.
    """
    _time_raw_loop()  # warm-up (first sweep pays numpy allocation costs)
    seconds = time_rounds({
        "raw": _time_raw_loop,
        "disabled": lambda: _time_sim(None),
        "enabled": lambda: _time_sim(RunTelemetry(physics_interval=0)),
    })
    timings = {
        f"{name}_seconds": float(np.median(t[:, 1])) for name, t in seconds.items()
    }
    for name in ("disabled", "enabled"):
        pct, iqr, order = own_overhead_pct(seconds, "raw", name)
        timings[f"{name}_overhead_pct"] = pct
        timings[f"{name}_overhead_iqr_pct"] = iqr
        timings[f"{name}_overhead_order_pct"] = order
    return timings


def test_disabled_telemetry_under_two_percent():
    """Acceptance gate: un-instrumented runs pay < 2% over the bare engine.

    The true overhead is one attribute load and one ``is None`` branch
    per ``run`` call (~0%).  Judged on the median of a fixed number of
    paired rounds, measured once.
    """
    t = measure_overhead()
    summary = (
        "disabled-telemetry overhead "
        + format_overhead(
            t["disabled_overhead_pct"],
            t["disabled_overhead_iqr_pct"],
            t["disabled_overhead_order_pct"],
        )
        + f" (raw {t['raw_seconds']:.4f}s vs disabled "
        f"{t['disabled_seconds']:.4f}s)"
    )
    print(summary)
    assert t["disabled_overhead_pct"] < 2.0, f"{summary} exceeds the 2% budget"


def test_enabled_telemetry_smoke_is_bit_identical():
    plain = IsingSimulation(64, 1.0 / BETA_C, seed=2)
    instrumented = IsingSimulation(
        64, 1.0 / BETA_C, seed=2, telemetry=RunTelemetry(physics_interval=2)
    )
    plain.run(6)
    instrumented.run(6)
    np.testing.assert_array_equal(plain.lattice, instrumented.lattice)
    assert plain.stream.counters == instrumented.stream.counters


def test_sweep_disabled_telemetry(benchmark):
    benchmark.group = "telemetry-overhead"
    sim = IsingSimulation(_SIDE, 1.0 / BETA_C, seed=5)
    benchmark(lambda: sim.run(1))


def test_sweep_enabled_telemetry(benchmark):
    benchmark.group = "telemetry-overhead"
    sim = IsingSimulation(
        _SIDE, 1.0 / BETA_C, seed=5, telemetry=RunTelemetry(physics_interval=0)
    )
    benchmark(lambda: sim.run(1))


def bench_payload() -> tuple[dict, dict]:
    """Machine-readable summary: measured telemetry overhead."""
    timings = measure_overhead()
    return (
        dict(timings),
        {"side": _SIDE, "n_sweeps": _SWEEPS, "repeats": OVERHEAD_REPEATS},
    )
