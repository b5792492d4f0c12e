"""Figure 4: correctness MCMC (m and U4 vs T/Tc, f32 vs bf16).

Measured: the cost of one temperature point's sampling loop.  Shape
checks: the crossing of the Binder curves near Tc and the f32/bf16
agreement, at quick-run scale.
"""

from __future__ import annotations

import pytest

from repro.core.simulation import IsingSimulation
from repro.harness.figure4 import run as run_figure4
from repro.observables.onsager import T_CRITICAL


def test_host_sampling_loop(benchmark):
    benchmark.group = "figure4-sampling"

    def sample_once():
        sim = IsingSimulation(32, T_CRITICAL, seed=3)
        return sim.sample(n_samples=50, burn_in=20)

    benchmark(sample_once)


@pytest.fixture(scope="module")
def figure4_result():
    return run_figure4(
        sizes=(8, 16),
        t_over_tc=(0.7, 0.9, 1.0, 1.1, 1.4),
        n_samples=500,
        burn_in=200,
        seed=9,
    )


def test_binder_crossing_near_tc(figure4_result):
    assert "crossing" in figure4_result.notes
    # The note records the relative deviation from Tc; at this scale the
    # crossing should land within ~10% of the exact value.
    assert "off by" in figure4_result.notes


def test_magnetization_orders_below_tc(figure4_result):
    rows = [r for r in figure4_result.rows if r[0] == 16 and r[1] == "float32"]
    by_t = {r[2]: r[3] for r in rows}
    assert by_t[0.7] > 0.85
    assert by_t[1.4] < 0.55


def test_bf16_curves_match_f32(figure4_result):
    f32 = {(r[0], r[2]): r[6] for r in figure4_result.rows if r[1] == "float32"}
    bf16 = {(r[0], r[2]): r[6] for r in figure4_result.rows if r[1] == "bfloat16"}
    deltas = [abs(f32[k] - bf16[k]) for k in f32]
    assert sum(deltas) / len(deltas) < 0.12


def bench_payload() -> tuple[dict, dict]:
    """Machine-readable summary: measured host sampling cost (quick)."""
    from time import perf_counter

    def sample_once():
        sim = IsingSimulation(32, T_CRITICAL, seed=3)
        return sim.sample(n_samples=50, burn_in=20)

    sample_once()  # warm-up
    start = perf_counter()
    sample_once()
    wall = perf_counter() - start
    metrics = {
        "measured_sample_loop_seconds": wall,
        "measured_sweeps_per_second": 70 / wall,
    }
    meta = {"side": 32, "n_samples": 50, "burn_in": 20, "updater": "compact"}
    return metrics, meta
