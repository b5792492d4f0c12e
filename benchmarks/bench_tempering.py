"""Tempering ladder overhead, batching and replay gates.

Three properties make :class:`~repro.core.tempering.TemperingEnsemble`
cheap enough to leave on:

1. **Swap bookkeeping is nearly free.**  A swap round costs one
   vectorized energy evaluation, a handful of host-side scalar
   accept/reject tests, and — on rounds that accept a swap — a
   ten-entry-per-chain acceptance-table refill in place (``retemper``
   keeps the sweep workspace and the recorded sweep).  The refill runs
   inside ``attempt_swaps``, so it falls in the swap round the gate
   times, not in the next sweep.  Amortized over a realistic
   ``swap_interval`` this must stay **under 5%** of sweep time on a
   16-beta ladder.
2. **The ladder rides the batched ensemble.**  All
   ``n_replicas x n_temperatures`` chains advance as one rank-3
   batched state, so a ladder must beat the serial loop-of-chains
   baseline by **>= 3x** — the same replica-batching lever as
   ``bench_ensemble.py``, now applied across ladder slots.  Both are
   timed in the paired rounds of :func:`benchmarks.conftest.time_rounds`
   and the gate reads the median per-round ratio.
3. **Swap rounds keep the recorded sweep.**  A fixed-count gate: a
   16-beta 16^2 ladder swapping after every sweep runs 40 sweeps as 2
   eager ones (warm-up and recording) and 38 replays, with swaps
   accepted along the way.

Run as a module for a quick table and the gates (it imports
``time_rounds`` from ``benchmarks/conftest.py``)::

    PYTHONPATH=src python -m benchmarks.bench_tempering
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.simulation import IsingSimulation
from repro.core.tempering import TemperingEnsemble

from .conftest import OVERHEAD_BEST_OF, OVERHEAD_REPEATS, time_rounds

N_TEMPS = 16
N_SWEEPS = 80
#: Standard production cadence — tempering literature swaps every
#: ~10-100 sweeps; the amortized bookkeeping budget is gated at this
#: cadence on a production-sized lattice.  (Measured: a swap round
#: costs ~2ms against a ~5ms 16-chain 128^2 sweep — one batched energy
#: einsum, one Philox draw, a vectorized accept test and, on accepted
#: rounds, a ten-entry-per-chain table rebuild.)
SWAP_INTERVAL = 20
#: Overhead gate runs sweep-dominated (the swap round's fixed costs —
#: one batched Philox draw, the host accept loop — amortize away); the
#: batching gate runs dispatch-bound, where serial-vs-batched is what's
#: probed.
OVERHEAD_SIDE = 128
BATCH_SIDE = 16

#: Tight ladder bracketing beta_c — adjacent-slot energy distributions
#: overlap, so swap rounds exercise the accepted-swap (retemper) path.
BETA_LO, BETA_HI = 0.40, 0.46


def ladder_betas(n_temps: int = N_TEMPS) -> np.ndarray:
    return np.linspace(BETA_LO, BETA_HI, n_temps)


def run_ladder(
    side: int,
    n_sweeps: int,
    swaps_enabled: bool,
    swap_interval: int = SWAP_INTERVAL,
    n_temps: int = N_TEMPS,
) -> TemperingEnsemble:
    """One replica of an n_temps ladder, with or without swap rounds."""
    sim = TemperingEnsemble(
        side,
        ladder_betas(n_temps),
        n_replicas=1,
        swap_interval=swap_interval,
        seed=0,
        swaps_enabled=swaps_enabled,
    )
    sim.run(n_sweeps)
    return sim


def run_serial_replicas(side: int, n_sweeps: int, n_temps: int = N_TEMPS) -> None:
    """The serial baseline: one single-chain simulation per ladder slot."""
    for idx, beta in enumerate(ladder_betas(n_temps)):
        sim = IsingSimulation(side, 1.0 / float(beta), seed=0, stream_id=idx)
        sim.run(n_sweeps)


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_overhead(
    side: int = OVERHEAD_SIDE, n_sweeps: int = N_SWEEPS, repeats: int = 3
) -> tuple[float, float]:
    """(sweep seconds, swap-bookkeeping seconds) for one swaps-on ladder.

    Swap time comes straight from the per-round ``swap_log`` spans the
    ladder records (the same spans the "tempering swaps" Chrome track
    renders), sweep time is the run's remaining wall clock.  Both sides
    of the ratio come from the *same* run, so container noise hits them
    together instead of biasing a two-run subtraction; of ``repeats``
    runs the one with the lowest swap/sweep ratio wins (contention only
    ever inflates the ratio).
    """
    run_ladder(side, 2, swaps_enabled=True)
    best: "tuple[float, float] | None" = None
    for _ in range(repeats):
        start = time.perf_counter()
        sim = run_ladder(side, n_sweeps, swaps_enabled=True)
        total = time.perf_counter() - start
        t_swap = sum(span["duration"] for span in sim.swap_log)
        t_sweep = total - t_swap
        if best is None or t_swap / t_sweep < best[1] / best[0]:
            best = (t_sweep, t_swap)
    return best


def measure_batching(side: int = BATCH_SIDE, n_sweeps: int = N_SWEEPS) -> dict:
    """Serial loop vs batched ladder, in the paired rounds of ``time_rounds``.

    Each round times both (best of ``OVERHEAD_BEST_OF`` interleaved
    timings each), so host load that slows one side of a round slows
    the other too.  ``speedup`` is the median of the per-round
    serial / batched ratios and ``speedup_iqr`` their interquartile
    range; the seconds are each side's median over rounds.
    """
    run_serial_replicas(side, 2)
    run_ladder(side, 2, swaps_enabled=True)
    seconds = time_rounds({
        "serial": lambda: _time(lambda: run_serial_replicas(side, n_sweeps)),
        "batched": lambda: _time(
            lambda: run_ladder(side, n_sweeps, swaps_enabled=True)
        ),
    })
    q1, speedup, q3 = np.percentile(
        seconds["serial"] / seconds["batched"], [25, 50, 75]
    )
    return {
        "serial_s": float(np.median(seconds["serial"])),
        "batched_s": float(np.median(seconds["batched"])),
        "speedup": float(speedup),
        "speedup_iqr": float(q3 - q1),
    }


def test_swap_rounds_fire_and_accept():
    """The overhead measurement must actually exercise swap rounds —
    a ladder this tight that never proposes (or never accepts) a swap
    would gate on a no-op."""
    sim = run_ladder(OVERHEAD_SIDE, N_SWEEPS, swaps_enabled=True)
    assert sim.swap_rounds == N_SWEEPS // SWAP_INTERVAL
    assert sim.swap_accepts > 0, "tight ladder should accept some swaps"


def gate_swap_overhead(t_sweep: float, t_swap: float) -> None:
    """Gate: swap bookkeeping < 5% of sweep time on the 16-beta
    ladder.  ``retemper`` preserving the sweep workspace is what keeps
    accepted swaps from forcing full updater rebuilds."""
    overhead = t_swap / t_sweep
    assert overhead < 0.05, (
        f"swap bookkeeping overhead {overhead:.1%} (sweeps {t_sweep:.3f}s, "
        f"swap rounds {t_swap:.3f}s) must stay under 5%"
    )


def gate_batched_beats_serial(batching: dict) -> None:
    """Gate: the batched ladder >= 3x over the serial loop-of-chains at
    host scale, as the median of paired rounds (:func:`measure_batching`)."""
    assert batching["speedup"] >= 3.0, (
        f"batched ladder {batching['speedup']:.2f}x over the serial replica "
        f"loop (median of {OVERHEAD_REPEATS} paired rounds, IQR "
        f"{batching['speedup_iqr']:.2f}x) should be >= 3x"
    )


#: The replay gate's ladder: a swap round after every sweep.
REPLAY_SIDE = 16
REPLAY_SWEEPS = 40


def test_ladder_replays_across_swap_rounds():
    """Gate: accepted swap rounds re-temper the recorded sweep in place,
    so only the warm-up and recording sweeps run eagerly."""
    sim = run_ladder(REPLAY_SIDE, REPLAY_SWEEPS, swaps_enabled=True, swap_interval=1)
    executor = sim.ensemble._executor
    assert sim.swap_accepts > 0, "the ladder should accept some swaps"
    counts = (executor.sweeps_eager, executor.sweeps_replayed)
    assert counts == (2, REPLAY_SWEEPS - 2), (
        f"(eager, replayed) sweeps {counts} of {REPLAY_SWEEPS}: swap "
        "rounds must keep the recorded sweep"
    )


def test_swap_overhead_under_5pct():
    gate_swap_overhead(*measure_overhead())


def test_batched_ladder_beats_serial_replicas():
    gate_batched_beats_serial(measure_batching())


def bench_payload() -> tuple[dict, dict]:
    """Machine-readable summary for ``benchmarks.emit``."""
    t_sweep, t_swap = measure_overhead()
    batching = measure_batching()
    return (
        {
            "measured_sweep_seconds": t_sweep,
            "measured_swap_seconds": t_swap,
            "measured_swap_overhead_fraction": t_swap / t_sweep,
            "measured_serial_seconds": batching["serial_s"],
            "measured_batched_seconds": batching["batched_s"],
            "measured_batching_speedup_x": batching["speedup"],
            "measured_batching_speedup_iqr_x": batching["speedup_iqr"],
        },
        {
            "overhead_side": OVERHEAD_SIDE,
            "batch_side": BATCH_SIDE,
            "n_temps": N_TEMPS,
            "n_sweeps": N_SWEEPS,
            "swap_interval": SWAP_INTERVAL,
            "beta_range": [BETA_LO, BETA_HI],
            "backend": "numpy",
            "batching_timing": (
                f"median of {OVERHEAD_REPEATS} paired rounds, each the best "
                f"of {OVERHEAD_BEST_OF} interleaved timings per side"
            ),
        },
    )


def main(argv: list[str] | None = None) -> None:
    import sys

    raw = argv if argv is not None else sys.argv[1:]
    try:
        extra_sides = [int(s) for s in raw]
    except ValueError:
        sys.exit(
            "usage: python -m benchmarks.bench_tempering [side ...] — sides "
            f"must be integers, got {raw}"
        )
    print(
        f"{N_TEMPS}-beta ladder [{BETA_LO}, {BETA_HI}], {N_SWEEPS} sweeps, "
        f"swap every {SWAP_INTERVAL} (numpy backend); serial and batched "
        f"are medians of {OVERHEAD_REPEATS} paired rounds"
    )
    header = (
        f"{'side':>6} {'sweeps [s]':>11} {'swaps [s]':>10} {'overhead':>9} "
        f"{'serial [s]':>11} {'batched [s]':>12} {'speedup':>8} {'IQR':>6}"
    )
    print(header)

    def row(label, t_sweep: float, t_swap: float, batching: dict) -> None:
        print(
            f"{label:>6} {t_sweep:>11.3f} {t_swap:>10.3f} "
            f"{t_swap / t_sweep:>8.1%} {batching['serial_s']:>11.3f} "
            f"{batching['batched_s']:>12.3f} {batching['speedup']:>7.2f}x "
            f"{batching['speedup_iqr']:>5.2f}x"
        )

    for side in extra_sides:
        row(side, *measure_overhead(side), measure_batching(side))
    # One measurement at each gate's own geometry, shared by the table
    # row and the gate — a second independent measurement would only
    # add another chance for container noise to fire a false alarm.
    t_sweep, t_swap = measure_overhead()
    batching = measure_batching()
    row("gate", t_sweep, t_swap, batching)
    failures = 0
    for gate, gate_args in (
        (test_swap_rounds_fire_and_accept, ()),
        (test_ladder_replays_across_swap_rounds, ()),
        (gate_swap_overhead, (t_sweep, t_swap)),
        (gate_batched_beats_serial, (batching,)),
    ):
        try:
            gate(*gate_args)
        except AssertionError as exc:
            failures += 1
            print(f"GATE FAIL {gate.__name__}: {exc}")
    if failures:
        sys.exit(failures)
    print(
        "gates: OK (swap overhead < 5%, batched >= 3x serial as the median "
        "of paired rounds, "
        f"{REPLAY_SWEEPS - 2}/{REPLAY_SWEEPS} ladder sweeps replayed)"
    )


if __name__ == "__main__":
    main()
