"""Packed multi-spin engine vs the elementwise checkerboard — the 8x gate.

The packed engine (``repro.core.packed`` over the ``packed_*`` backend
kernels) stores 64 spins per uint64 word and collapses the Metropolis
rule to three bitwise cases, so one vector op advances 64 sites and the
Philox generator feeds two sites per word (16-bit lanes).  This module
measures the resulting flips/sec jump on a 512^2 lattice against the
*elementwise* checkerboard updater — the same baseline the multi-spin
GPU literature quotes — and **asserts** the headline factor.  Both
chains are timed in the paired rounds of
:func:`benchmarks.conftest.time_rounds`, so each round's ratio compares
timings taken under the same host load, and the gate reads the median
ratio over rounds.  Both are built and timed on one CPU
(:func:`benchmarks.conftest.one_cpu`): the elementwise reference's
512^2 phase draws (65,536 Philox counters) would otherwise split across
two threads while the packed chain's 8,192-counter draws never do, and
a draw that split anyway, hot starts included, raises.

Correctness is asserted before any timing: the packed engine fed the
same per-site float32 uniforms must reproduce the unpacked
checkerboard-order multi-spin baseline bit-for-bit, the timed default
mode (16-bit Philox lanes against integer thresholds) must match the
same baseline fed those lanes as uniforms, and a short stream-mode run
must land in the Onsager-ordered phase.  A benchmark that got faster by
drifting off the float chains' trajectory contract would fail here, not
in a physics plot three PRs later.

Run as a module for the CI check::

    PYTHONPATH=src python -m benchmarks.bench_packed            # 512, gated
    PYTHONPATH=src python -m benchmarks.bench_packed 256        # quick look

or emit the machine-readable snapshot::

    PYTHONPATH=src python -m benchmarks.emit packed --out-dir bench-artifacts
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend.numpy_backend import NumpyBackend
from repro.core.simulation import IsingSimulation
from repro.tpu.dtypes import PACKED

from .conftest import OVERHEAD_BEST_OF, OVERHEAD_REPEATS, one_cpu, time_rounds

#: The CI assertion: packed flips/sec at least this multiple of the
#: elementwise checkerboard updater's on the same lattice, as the median
#: of the per-round ratios.
GATE_SPEEDUP = 8.0

#: Near-critical temperature — the regime the paper simulates.
TEMPERATURE = 2.2


def check_bit_identity(side: int = 128, n_sweeps: int = 8) -> None:
    """Assert the packed engine matches the unpacked multi-spin baseline.

    Feeds both engines identical per-site float32 uniforms (the explicit
    ``probs`` path — the CI-gated invariant of ``docs/packed_engine.md``)
    and requires bit-equal lattices after every sweep.
    """
    from repro.baselines.multispin import MultispinUpdater
    from repro.core.packed import PackedUpdater

    rng = np.random.default_rng(7)
    plain = np.where(rng.random((side, side)) < 0.5, 1.0, -1.0).astype(
        np.float32
    )
    baseline = MultispinUpdater(1.0 / TEMPERATURE)
    packed = PackedUpdater(1.0 / TEMPERATURE)
    b_state = baseline.to_state(plain)
    p_state = packed.to_state(plain)
    quarter = (side // 2, side // 2)
    for _ in range(n_sweeps):
        probs = [
            rng.random(quarter, dtype=np.float32) for _ in range(4)
        ]
        b_state = baseline.sweep(
            b_state, probs_black=tuple(probs[:2]), probs_white=tuple(probs[2:])
        )
        p_state = packed.sweep(
            p_state, probs_black=tuple(probs[:2]), probs_white=tuple(probs[2:])
        )
        if not np.array_equal(baseline.to_plain(b_state), packed.to_plain(p_state)):
            raise AssertionError(
                "packed engine diverged from the unpacked multi-spin "
                "baseline on identical uniforms — refusing to time a "
                "broken engine"
            )


def check_stream16_identity(side: int = 128, n_sweeps: int = 8) -> None:
    """Assert the timed 16-bit stream mode matches an independent twin.

    The probs check never runs the lane compare the timed sweeps run.
    Here the twin is the unpacked multi-spin baseline fed ``lanes *
    2**-16``, with the lanes split arithmetically (``w & 0xFFFF``, then
    ``w >> 16``) from the chain's Philox words, drawn through the
    allocating oracle, in Algorithm 2's draw order.  ``lanes * 2**-16 <
    t`` holds exactly when ``lanes < ceil(t * 2**16)``, so the lattices
    must agree after every sweep.
    """
    from repro.baselines.multispin import MultispinUpdater
    from repro.rng import philox_uniform_bits, split_key

    rng = np.random.default_rng(11)
    plain = np.where(rng.random((side, side)) < 0.5, 1.0, -1.0).astype(
        np.float32
    )
    # An explicit lattice leaves the chain's stream at counter 0.
    sim = IsingSimulation(
        (side, side), TEMPERATURE, backend=NumpyBackend(PACKED), seed=5,
        initial=plain,
    )
    twin = MultispinUpdater(1.0 / TEMPERATURE)
    state, key, counter = twin.to_state(plain), split_key(5, 0), [0]
    quarter = (side // 2, side // 2)

    def lane_probs() -> np.ndarray:
        n_words = quarter[0] * quarter[1] // 2
        words = philox_uniform_bits(counter[0], n_words, key)
        counter[0] += -(-n_words // 4)
        lanes = np.stack([words & 0xFFFF, words >> 16], axis=-1)
        return lanes.reshape(quarter).astype(np.float32) * np.float32(2.0**-16)

    for _ in range(n_sweeps):
        sim.run(1)
        black = (lane_probs(), lane_probs())
        white = (lane_probs(), lane_probs())
        state = twin.sweep(state, probs_black=black, probs_white=white)
        if not np.array_equal(sim.lattice, twin.to_plain(state)):
            raise AssertionError(
                "16-bit stream-mode packed chain diverged from the "
                "multi-spin baseline fed the same Philox lanes — refusing "
                "to time a broken engine"
            )


def check_physics(side: int = 128, n_sweeps: int = 300) -> None:
    """Assert a stream-mode packed chain orders at T = 1.5 (Onsager)."""
    sim = IsingSimulation(
        (side, side), 1.5, backend=NumpyBackend(PACKED), seed=3, initial="cold"
    )
    sim.run(n_sweeps)
    m = abs(sim.magnetization())
    if not 0.95 < m <= 1.0:
        raise AssertionError(
            f"packed chain at T=1.5 has |m| = {m:.4f}, outside the "
            "Onsager-ordered band (0.95, 1.0] — engine physics is broken"
        )


def _sweep_timer(sim: IsingSimulation, n_sweeps: int):
    """Warm ``sim``; return a callable timing ``n_sweeps`` sweeps, in
    seconds per sweep."""
    sim.run(2)  # warm caches, tables and the workspace

    def timed() -> float:
        t0 = time.perf_counter()
        sim.run(n_sweeps)
        return (time.perf_counter() - t0) / n_sweeps

    return timed


def measure(side: int = 512, n_sweeps: int = 8) -> dict:
    """Packed vs elementwise-checkerboard seconds per sweep on side^2.

    ``time_rounds`` times both chains in ``OVERHEAD_REPEATS`` rotated
    rounds, each keeping the best of ``OVERHEAD_BEST_OF`` interleaved
    timings, so host load that slows one side of a round slows the
    other too.  Both sides are built, warmed and timed on one CPU, so
    no Philox draw splits, hot starts included.  ``speedup`` is the
    median of the per-round ratios and ``speedup_iqr`` their
    interquartile range; the seconds are each side's median over rounds.
    """
    sweeps = {"elementwise": max(2, n_sweeps // 2), "packed": n_sweeps}
    with one_cpu():
        sims = {
            "elementwise": IsingSimulation(
                (side, side), TEMPERATURE, updater="checkerboard", seed=1,
                fused=False,
            ),
            "packed": IsingSimulation(
                (side, side), TEMPERATURE, backend=NumpyBackend(PACKED), seed=1
            ),
        }
        seconds = time_rounds(
            {name: _sweep_timer(sim, sweeps[name]) for name, sim in sims.items()}
        )
    for name, sim in sims.items():
        if sim.stream.split_draws:
            raise AssertionError(f"{name}: a Philox draw split across two cores")
    q1, speedup, q3 = np.percentile(
        seconds["elementwise"] / seconds["packed"], [25, 50, 75]
    )
    elementwise = float(np.median(seconds["elementwise"]))
    packed = float(np.median(seconds["packed"]))
    n_sites = side * side
    return {
        "elementwise_s": elementwise,
        "packed_s": packed,
        "speedup": float(speedup),
        "speedup_iqr": float(q3 - q1),
        "elementwise_flips_per_s": n_sites / elementwise,
        "packed_flips_per_s": n_sites / packed,
    }


def bench_payload() -> tuple[dict, dict]:
    """Machine-readable summary: packed vs elementwise checkerboard."""
    check_bit_identity()
    check_stream16_identity()
    check_physics()
    row = measure()
    metrics = {
        "measured_elementwise_seconds": row["elementwise_s"],
        "measured_packed_seconds": row["packed_s"],
        "measured_speedup_x": row["speedup"],
        "measured_speedup_iqr_x": row["speedup_iqr"],
        "measured_elementwise_flips_per_second": row["elementwise_flips_per_s"],
        "measured_packed_flips_per_second": row["packed_flips_per_s"],
    }
    meta = {
        "side": 512,
        "temperature": TEMPERATURE,
        "backend": "numpy",
        "dtype": "packed",
        "rng_bits": 16,
        "baseline": "elementwise checkerboard (fused=False)",
        "timed_cpus": 1,
        "gate_threshold_x": GATE_SPEEDUP,
        "timing": (
            f"median of {OVERHEAD_REPEATS} paired rounds, each the best of "
            f"{OVERHEAD_BEST_OF} interleaved timings per chain"
        ),
        "bit_identity": (
            "asserted vs repro.baselines.multispin on shared uniforms "
            "(probs path) and on the timed path's 16-bit Philox lanes "
            "(stream mode, 128^2, 8 sweeps, T=2.2)"
        ),
    }
    return metrics, meta


def main(argv: "list[str] | None" = None) -> None:
    import sys

    raw = argv if argv is not None else sys.argv[1:]
    try:
        side = int(raw[0]) if raw else 512
    except ValueError:
        sys.exit(
            "usage: python -m benchmarks.bench_packed [side] — side must be "
            f"an integer, got {raw}"
        )
    if side % 128:
        sys.exit(f"side must be a multiple of 128 for the packed engine, got {side}")
    gated = not raw  # the default 512 run is the CI gate
    check_bit_identity()
    print("bit-identity vs unpacked multi-spin baseline OK")
    check_stream16_identity()
    print("16-bit stream bit-identity vs multi-spin twin OK")
    check_physics()
    print("Onsager physics check OK")
    row = measure(side=side)
    print(f"packed vs elementwise checkerboard, {side}^2 lattice (numpy, one CPU)")
    print(
        f"elementwise {row['elementwise_s'] * 1e3:8.2f} ms/sweep "
        f"({row['elementwise_flips_per_s'] / 1e6:7.1f} Mflips/s)"
    )
    print(
        f"packed      {row['packed_s'] * 1e3:8.2f} ms/sweep "
        f"({row['packed_flips_per_s'] / 1e6:7.1f} Mflips/s)"
    )
    print(
        f"speedup     {row['speedup']:8.2f}x "
        f"(median of {OVERHEAD_REPEATS} paired rounds, IQR "
        f"{row['speedup_iqr']:.2f}x)"
    )
    if gated:
        if row["speedup"] < GATE_SPEEDUP:
            sys.exit(
                f"FAIL: median packed speedup {row['speedup']:.2f}x is below "
                f"the {GATE_SPEEDUP}x gate on the {side}^2 lattice"
            )
        print(f"gate OK: median packed {row['speedup']:.2f}x >= {GATE_SPEEDUP}x")


if __name__ == "__main__":
    main()
