"""Traced replay vs eager fused dispatch — the 2x modeled-clock gate.

The traced executor (``repro.core.traced``) records one fused sweep as a
flat op program and replays it with zero Python re-interpretation; the
solo and ensemble drivers run every fused chain that way.  The eager
side here is the updater's own ``sweep`` loop on the same chain.  On
real hardware the win is pure host-side: the device executes the same
kernels either way, so what tracing removes is the per-sweep Python
dispatch that would otherwise stall the device queue.  A host-wall-clock
gate cannot see that on this runner — numpy *is* the device here, and
arithmetic dominates — so this module gates on the **modeled clock**:

- *dispatch seconds* are measured on a :class:`NumpyBackend` subclass
  whose steady-state kernels are no-ops, leaving exactly the Python
  overhead tracing targets (engine bookkeeping, argument marshalling,
  method lookups);
- *device seconds* are the cost model's per-sweep charge for a 512^2
  sweep on one simulated TensorCore (:class:`TPUBackend`), read from
  the elementwise program the cost tables are calibrated to (the TPU
  cost model runs no other engine);
- the modeled deployment is the multi-tenant slice the scheduler
  (``repro.sched``) exists for: one host process drives
  :data:`SLICE_CORES` independent jobs, one per core.  Device sweeps
  run in parallel across cores, but the host's dispatch serializes —
  so the host keeps at most ``device_s / dispatch_s`` cores fed, and
  modeled slice throughput is proportional to
  ``min(SLICE_CORES, device_s / dispatch_s)``.

The gate asserts traced replay buys at least ``2x`` modeled slice
throughput over eager fused dispatch for the masked_conv and conv
updaters at 512^2 (the per-updater ratios for all four are in the
payload).  Before timing anything, the module asserts replay is
**bit-identical** to the eager fused engine for all four updaters in
both dtypes on the real numpy backend; a fast trace that drifts is
worthless.

Run as a script for the CI check::

    PYTHONPATH=src python benchmarks/bench_traced_sweep.py            # 512, gated
    PYTHONPATH=src python benchmarks/bench_traced_sweep.py 128        # quick look

or emit the machine-readable snapshot::

    PYTHONPATH=src python -m benchmarks.emit traced_sweep --out-dir bench-artifacts
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend.numpy_backend import NumpyBackend
from repro.backend.tpu_backend import TPUBackend
from repro.core.simulation import IsingSimulation
from repro.core.traced import REPLAYABLE_OPS
from repro.tpu.dtypes import BFLOAT16, FLOAT32
from repro.tpu.tensorcore import TensorCore

#: Updaters measured; the gated pair leads.
UPDATERS = ("masked_conv", "conv", "compact", "checkerboard")

#: The CI assertion: replay beats eager dispatch on the modeled clock.
GATE_UPDATERS = ("masked_conv", "conv")
GATE_SPEEDUP = 2.0

#: Near-critical temperature — the regime the paper simulates.
TEMPERATURE = 2.2

#: Cores in the modeled pod slice (the paper's smallest is a v3-32);
#: one independent tenant job per core, all dispatched by one host.
SLICE_CORES = 32

#: Ops whose result buffer is not the last positional argument.
_RETURN_ARG = {
    "acceptance_index_into": 2,
    "conv2d_neighbors_into": 1,
}


def _null_op(name: str):
    ret = _RETURN_ARG.get(name, -1)

    def _null(self, *args, **kwargs):
        return args[ret]

    _null.__name__ = name
    return _null


class DispatchOnlyBackend(NumpyBackend):
    """NumpyBackend with every steady-state kernel stubbed to a no-op.

    Buffer shapes, dtypes and the op *sequence* are untouched — only the
    arithmetic is dropped — so a sweep on this backend costs exactly the
    Python dispatch overhead the traced executor eliminates.  Values are
    garbage, which is fine: the fused sweep is data-independent (that is
    the property that makes it traceable at all).
    """


for _name in sorted(REPLAYABLE_OPS):
    setattr(DispatchOnlyBackend, _name, _null_op(_name))


def _advance(sim: IsingSimulation, traced: bool):
    """``sim``'s sweep entry point: replaying ``run``, or the eager loop
    over the updater's own ``sweep`` that replay must reproduce."""
    if traced:
        return sim.run

    def eager(n_sweeps: int) -> None:
        updater, stream = sim._updater, sim.stream
        state = sim._state
        for _ in range(n_sweeps):
            state = updater.sweep(state, stream)
        sim._state = state

    return eager


def verify_bit_identity(side: int = 64, n_sweeps: int = 8) -> int:
    """Assert replay == eager fused, all four updaters, both dtypes.

    Returns the number of (updater, dtype) pairs checked.
    """
    checked = 0
    for updater in UPDATERS:
        for dtype in (FLOAT32, BFLOAT16):
            pair = []
            for traced in (True, False):
                sim = IsingSimulation(
                    (side, side),
                    TEMPERATURE,
                    updater=updater,
                    backend=NumpyBackend(dtype),
                    seed=3,
                    fused=True,
                )
                _advance(sim, traced)(n_sweeps)
                pair.append(sim.lattice)
            if not np.array_equal(pair[0], pair[1]):
                raise AssertionError(
                    f"traced replay drifted from eager fused: "
                    f"{updater} / {dtype.name}"
                )
            checked += 1
    return checked


def _dispatch_seconds(
    updater: str, traced: bool, side: int, n_sweeps: int, reps: int
) -> float:
    """Min-of-reps host seconds per sweep with the kernels stubbed out."""
    sim = IsingSimulation(
        (side, side),
        TEMPERATURE,
        updater=updater,
        backend=DispatchOnlyBackend(FLOAT32),
        seed=1,
        fused=True,
    )
    advance = _advance(sim, traced)
    advance(3)  # warm-up sweep, recording sweep, first replay
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        advance(n_sweeps)
        best = min(best, (time.perf_counter() - t0) / n_sweeps)
    return best


def _device_seconds(updater: str, side: int) -> float:
    """Cost-model seconds per sweep of side^2 on one simulated core.

    The same for eager and replayed dispatch: how the host issues a
    sweep does not change the device program, which is the calibrated
    elementwise op sequence.
    """
    core = TensorCore(core_id=0)
    sim = IsingSimulation(
        (side, side),
        TEMPERATURE,
        updater=updater,
        backend=TPUBackend(core, dtype=FLOAT32),
        seed=1,
        fused=False,
    )
    sim.run(1)  # cache device scalars and masks off the clock
    before = core.profiler.total_seconds
    sim.run(2)
    return (core.profiler.total_seconds - before) / 2


def measure(side: int = 512, n_sweeps: int = 10, reps: int = 3) -> dict:
    """Per-updater dispatch/device/modeled timings and speedups on side^2."""
    results = {}
    for updater in UPDATERS:
        eager = _dispatch_seconds(updater, False, side, n_sweeps, reps)
        traced = _dispatch_seconds(updater, True, side, n_sweeps, reps)
        device = _device_seconds(updater, side)
        fed_eager = min(float(SLICE_CORES), device / eager)
        fed_traced = min(float(SLICE_CORES), device / traced)
        results[updater] = {
            "dispatch_eager_s": eager,
            "dispatch_traced_s": traced,
            "device_s": device,
            "cores_fed_eager": fed_eager,
            "cores_fed_traced": fed_traced,
            "dispatch_speedup": eager / traced,
            "modeled_speedup": fed_traced / fed_eager,
        }
    return results


def bench_payload() -> tuple[dict, dict]:
    """Machine-readable summary: per-updater replay-vs-eager dispatch."""
    pairs_checked = verify_bit_identity()
    results = measure()
    metrics = {"bit_identical_pairs": float(pairs_checked)}
    for updater, row in results.items():
        metrics[f"measured_{updater}_dispatch_eager_seconds"] = row[
            "dispatch_eager_s"
        ]
        metrics[f"measured_{updater}_dispatch_traced_seconds"] = row[
            "dispatch_traced_s"
        ]
        metrics[f"modeled_{updater}_device_seconds"] = row["device_s"]
        metrics[f"modeled_{updater}_cores_fed_eager"] = row["cores_fed_eager"]
        metrics[f"modeled_{updater}_cores_fed_traced"] = row[
            "cores_fed_traced"
        ]
        metrics[f"measured_{updater}_dispatch_speedup_x"] = row[
            "dispatch_speedup"
        ]
        metrics[f"modeled_{updater}_speedup_x"] = row["modeled_speedup"]
    metrics["modeled_gate_speedup_x"] = min(
        results[u]["modeled_speedup"] for u in GATE_UPDATERS
    )
    meta = {
        "side": 512,
        "temperature": TEMPERATURE,
        "backend": "numpy (dispatch-only) + tpu cost model",
        "dtype": "float32",
        "clock": (
            "modeled multi-tenant slice throughput ~ "
            "min(SLICE_CORES, device_s / dispatch_s)"
        ),
        "slice_cores": SLICE_CORES,
        "gate_updaters": list(GATE_UPDATERS),
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
            f"usage: bench_traced_sweep.py [side] — side must be an integer, got {raw}"
        )
    gated = not raw  # the default 512 run is the CI gate
    pairs = verify_bit_identity()
    print(f"bit-identity OK: {pairs} (updater, dtype) pairs replay exactly")
    print(
        f"traced replay vs eager fused dispatch, {side}^2 lattice, "
        f"{SLICE_CORES}-core slice"
    )
    print(
        f"{'updater':>12} {'eager [us]':>11} {'traced [us]':>12} "
        f"{'device [us]':>12} {'cores fed':>12} {'modeled':>8}"
    )
    results = measure(side=side)
    for updater, row in results.items():
        fed = f"{row['cores_fed_eager']:.1f}->{row['cores_fed_traced']:.1f}"
        print(
            f"{updater:>12} {row['dispatch_eager_s'] * 1e6:>11.1f} "
            f"{row['dispatch_traced_s'] * 1e6:>12.1f} "
            f"{row['device_s'] * 1e6:>12.1f} {fed:>12} "
            f"{row['modeled_speedup']:>7.2f}x"
        )
    if gated:
        for updater in GATE_UPDATERS:
            speedup = results[updater]["modeled_speedup"]
            if speedup < GATE_SPEEDUP:
                sys.exit(
                    f"FAIL: traced {updater} modeled slice-throughput "
                    f"speedup {speedup:.2f}x is below the {GATE_SPEEDUP}x "
                    f"gate on the {side}^2 lattice"
                )
        gate = min(results[u]["modeled_speedup"] for u in GATE_UPDATERS)
        print(
            f"gate OK: traced {'/'.join(GATE_UPDATERS)} {gate:.2f}x "
            f">= {GATE_SPEEDUP}x modeled slice throughput"
        )


if __name__ == "__main__":
    main()
