"""Fused sweep engine vs the elementwise path — the 1.5x gate.

The fused engine (``repro.core.accept`` + ``repro.core.fused``) replaces
the per-site ``exp`` with a precomputed-table gather and lands every
intermediate in a reusable :class:`~repro.core.fused.SweepWorkspace`, so
steady-state sweeps perform zero heap allocation.  This module measures
what that buys in host wall-clock on a 512^2 lattice, per updater, and
**asserts** the headline speedup.

The gate is pinned to the *checkerboard* updater: Algorithm 1 runs the
full elementwise flip rule over every site each phase, so it is exactly
the loop the acceptance table and workspace target, and its measured
margin (>= 2x on a single-core runner) keeps the 1.5x assertion robust
to CI timing noise.  The compact and conv updaters draw uniforms for
only half the sites per phase, which pushes them toward the Philox
throughput floor; their speedups are recorded in the payload but not
gated.

Both sides are built and timed on one CPU: the process pins itself to
one of its CPUs (``os.sched_setaffinity``) for the measurement and
restores its CPU set afterwards.  Both sides draw through the in-place
generator, whose draws of at least ``2 * BLOCK_COUNTERS`` counters would
otherwise split across two host cores (``repro.rng.philox``), and the
sides split different shares of their draws (a fused compact sweep's
one draw splits, the elementwise path's per-quarter draws do not),
tying the ratio to the host's core count.  A draw that split anyway,
hot starts included, raises.  CI also runs it on one BLAS thread, as
the packed gate does.

Run as a module for the CI check (it imports ``one_cpu`` from
``benchmarks/conftest.py``)::

    PYTHONPATH=src python -m benchmarks.bench_fused_sweep            # 512, gated
    PYTHONPATH=src python -m benchmarks.bench_fused_sweep 128        # quick look

or emit the machine-readable snapshot::

    PYTHONPATH=src python -m benchmarks.emit fused_sweep --out-dir bench-artifacts
"""

from __future__ import annotations

import time

from repro.core.simulation import IsingSimulation

from .conftest import one_cpu

#: Updaters measured; the first is the gated headline.
UPDATERS = ("checkerboard", "compact", "conv", "masked_conv")

#: The CI assertion: fused checkerboard sweeps at least this much faster.
GATE_UPDATER = "checkerboard"
GATE_SPEEDUP = 1.5

#: Near-critical temperature — the regime the paper simulates.
TEMPERATURE = 2.2


def _sweep_seconds(
    updater: str, fused: bool, side: int, n_sweeps: int, reps: int
) -> float:
    """Min-of-reps seconds per sweep for one (updater, fused) variant."""
    sim = IsingSimulation(
        (side, side), TEMPERATURE, updater=updater, seed=1, fused=fused
    )
    sim.run(2)  # warm caches, tables and the workspace
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        sim.run(n_sweeps)
        best = min(best, (time.perf_counter() - t0) / n_sweeps)
    if sim.stream.split_draws:
        raise AssertionError(f"{updater}: a Philox draw split across two cores")
    return best


def measure(side: int = 512, n_sweeps: int = 4, reps: int = 3) -> dict:
    """``{updater: {"elementwise_s", "fused_s", "speedup"}}`` on side^2,
    both sides timed on one CPU."""
    results = {}
    with one_cpu():
        for updater in UPDATERS:
            elementwise = _sweep_seconds(updater, False, side, n_sweeps, reps)
            fused = _sweep_seconds(updater, True, side, n_sweeps, reps)
            results[updater] = {
                "elementwise_s": elementwise,
                "fused_s": fused,
                "speedup": elementwise / fused,
            }
    return results


def bench_payload() -> tuple[dict, dict]:
    """Machine-readable summary: per-updater fused-vs-elementwise timings."""
    results = measure()
    metrics = {}
    for updater, row in results.items():
        metrics[f"measured_{updater}_elementwise_seconds"] = row["elementwise_s"]
        metrics[f"measured_{updater}_fused_seconds"] = row["fused_s"]
        metrics[f"measured_{updater}_speedup_x"] = row["speedup"]
    metrics["measured_gate_speedup_x"] = results[GATE_UPDATER]["speedup"]
    meta = {
        "side": 512,
        "temperature": TEMPERATURE,
        "backend": "numpy",
        "dtype": "float32",
        "timed_cpus": 1,
        "gate_updater": GATE_UPDATER,
        "gate_threshold_x": GATE_SPEEDUP,
    }
    return metrics, meta


def main(argv: "list[str] | None" = None) -> None:
    import sys

    raw = argv if argv is not None else sys.argv[1:]
    try:
        side = int(raw[0]) if raw else 512
    except ValueError:
        sys.exit(
            "usage: python -m benchmarks.bench_fused_sweep [side] — side must "
            f"be an integer, got {raw}"
        )
    gated = not raw  # the default 512 run is the CI gate
    print(f"fused vs elementwise sweep, {side}^2 lattice (numpy float32, one CPU)")
    print(f"{'updater':>12} {'elementwise [ms]':>17} {'fused [ms]':>11} {'speedup':>9}")
    results = measure(side=side)
    for updater, row in results.items():
        print(
            f"{updater:>12} {row['elementwise_s'] * 1e3:>17.2f} "
            f"{row['fused_s'] * 1e3:>11.2f} {row['speedup']:>8.2f}x"
        )
    if gated:
        speedup = results[GATE_UPDATER]["speedup"]
        if speedup < GATE_SPEEDUP:
            sys.exit(
                f"FAIL: fused {GATE_UPDATER} speedup {speedup:.2f}x is below "
                f"the {GATE_SPEEDUP}x gate on the {side}^2 lattice"
            )
        print(f"gate OK: fused {GATE_UPDATER} {speedup:.2f}x >= {GATE_SPEEDUP}x")


if __name__ == "__main__":
    main()
