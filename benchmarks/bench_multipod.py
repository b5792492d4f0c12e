"""Hierarchical multi-pod mesh: overlap speedup + weak-scaling gates.

The split-phase halo schedule (``overlap=True`` on
:class:`~repro.core.distributed.DistributedIsing`) issues each colour
phase's four halo permutes into an overlap window, updates interior
sites while they are notionally in flight, and charges only
``max(0, comm - interior_compute)`` as exposed communication.  The
executed op stream is identical to the blocking schedule — same sites,
same Philox draws — so before timing anything this module asserts
**bit-identity**: overlapped vs blocking produce identical lattices and
identical Philox counters for both distributed updaters, float32 and
bfloat16, solo and under transient fault injection.

Two modeled-clock gates then hold:

- *comm-bound speedup*: on a 2x2-pod hierarchical 8x8 mesh with a small
  (64 x 64) per-core lattice — the regime where the inter-pod tier
  dominates the blocking step — the overlapped schedule must beat the
  blocking one by at least :data:`GATE_SPEEDUP` x modeled slice
  throughput, measured on *real* lockstep runs (same chain, two clocks).
- *weak scaling*: with the paper-scale per-core lattice
  (:data:`PER_CORE`), modeled step times from
  :func:`~repro.harness.perf.model_pod_step` over concrete topologies
  must keep weak-scaling efficiency >= :data:`GATE_EFFICIENCY` at
  2048 modeled cores (a 2x2 grid of 1024-core pods) under overlap —
  the appendix's full-pod point, extended across the pod boundary.

Run as a script for the CI check::

    PYTHONPATH=src python benchmarks/bench_multipod.py

or emit the machine-readable snapshot::

    PYTHONPATH=src python -m benchmarks.emit multipod --out-dir bench-artifacts
"""

from __future__ import annotations

import numpy as np

from repro.api import SimulationConfig, distributed
from repro.harness.perf import model_pod_step
from repro.mesh.faults import FaultEvent, FaultPlan
from repro.mesh.topology import HierarchicalTorus, Torus2D

#: Updaters exercised by the bit-identity sweep: the two the distributed
#: driver runs (the compact engine with its matmul or conv neighbour
#: kernel); configs naming any other updater are rejected when built.
UPDATERS = ("compact", "conv")

#: The CI assertions.
GATE_SPEEDUP = 1.3
GATE_EFFICIENCY = 0.9

#: Near-critical temperature — the regime the paper simulates.
TEMPERATURE = 2.2

#: Comm-bound gate configuration: 64 cores in a 2x2 pod grid, small
#: per-core lattice so the inter-pod halo tier dominates the blocking
#: step.
COMM_BOUND = {
    "shape": (512, 512),
    "grid": (8, 8),
    "pod_grid": (2, 2),
    "sweeps": 3,
}

#: Paper-scale per-core lattice for the weak-scaling curve (bfloat16
#: superdense regime; compute thick enough that overlap can hide the
#: inter-pod tier).
PER_CORE = (4096, 2048)

#: Weak-scaling points: (modeled cores, topology).  2048 is the paper
#: appendix's full pod, here split 2x2 across pods; 4096 extends one
#: step beyond it.
def _weak_scaling_points() -> list[tuple[int, "Torus2D"]]:
    return [
        (16, Torus2D(4, 4)),
        (64, Torus2D(8, 8)),
        (256, Torus2D(16, 16)),
        (512, HierarchicalTorus(16, 32, 1, 1)),
        (2048, HierarchicalTorus(32, 64, 2, 2)),
        (4096, HierarchicalTorus(64, 64, 2, 2)),
    ]


def _transient_plan() -> FaultPlan:
    """Transient-only faults (drops, delays, stalls) — never a kill."""
    return FaultPlan(
        events=(
            FaultEvent("drop", collective=3, count=1),
            FaultEvent("delay", collective=9, seconds=20e-6),
            FaultEvent("stall", collective=13, core=1, seconds=40e-6),
        )
    )


def verify_bit_identity(side: int = 16, n_sweeps: int = 3) -> int:
    """Assert overlapped == blocking, all updaters/dtypes, solo + faults.

    Identical lattices *and* identical per-core Philox counters — the
    overlap schedule may only move the modeled clock.  Returns the
    number of (updater, dtype, faulted) triples checked.
    """
    checked = 0
    for updater in UPDATERS:
        for dtype in ("float32", "bfloat16"):
            for faulted in (False, True):
                lattices, counters = [], []
                for overlap in (False, True):
                    sim = distributed(
                        SimulationConfig(
                            shape=side,
                            temperature=TEMPERATURE,
                            updater=updater,
                            dtype=dtype,
                            grid=(2, 2),
                            pod_grid=(2, 2),
                            overlap=overlap,
                            seed=7,
                            fault_plan=_transient_plan() if faulted else None,
                        )
                    )
                    sim.sweep(n_sweeps)
                    lattices.append(sim.gather_lattice())
                    counters.append([s.state() for s in sim._streams])
                if not np.array_equal(lattices[0], lattices[1]):
                    raise AssertionError(
                        f"overlap drifted from blocking: {updater} / {dtype}"
                        f"{' / faulted' if faulted else ''}"
                    )
                if counters[0] != counters[1]:
                    raise AssertionError(
                        f"overlap moved Philox counters: {updater} / {dtype}"
                        f"{' / faulted' if faulted else ''}"
                    )
                checked += 1
    return checked


def measure_comm_bound() -> dict:
    """Real lockstep runs at the comm-bound size, both schedules."""
    rows = {}
    for overlap in (False, True):
        sim = distributed(
            SimulationConfig(
                shape=COMM_BOUND["shape"],
                temperature=TEMPERATURE,
                grid=COMM_BOUND["grid"],
                pod_grid=COMM_BOUND["pod_grid"],
                overlap=overlap,
                seed=1,
            )
        )
        sim.sweep(COMM_BOUND["sweeps"])
        rows["overlap" if overlap else "blocking"] = {
            "step_seconds": sim.step_time(),
            "flips_per_ns": sim.throughput_flips_per_ns(),
            "hidden_seconds": sim.runtime.overlap_hidden_seconds,
            "exposed_seconds": sim.runtime.overlap_exposed_seconds,
        }
    rows["speedup"] = (
        rows["blocking"]["step_seconds"] / rows["overlap"]["step_seconds"]
    )
    return rows


def measure_weak_scaling() -> dict:
    """Modeled weak-scaling curve at the paper-scale per-core lattice."""
    points = {}
    base_overlap = base_blocking = None
    for n_cores, topology in _weak_scaling_points():
        over = model_pod_step(
            PER_CORE, n_cores, topology=topology, overlap=True
        )
        blocking = model_pod_step(
            PER_CORE, n_cores, topology=topology, overlap=False
        )
        if base_overlap is None:
            base_overlap = over.step_time
            base_blocking = blocking.step_time
        multi_pod = (
            isinstance(topology, HierarchicalTorus) and topology.num_pods > 1
        )
        points[n_cores] = {
            "overlap_step_seconds": over.step_time,
            "blocking_step_seconds": blocking.step_time,
            "overlap_efficiency": base_overlap / over.step_time,
            "blocking_efficiency": base_blocking / blocking.step_time,
            "hidden_comm_seconds": over.hidden_comm_seconds,
            "multi_pod": multi_pod,
        }
    return points


def bench_payload() -> tuple[dict, dict]:
    """Machine-readable summary: bit-identity, comm-bound gate, scaling."""
    pairs = verify_bit_identity()
    comm = measure_comm_bound()
    scaling = measure_weak_scaling()
    metrics = {
        "bit_identical_triples": float(pairs),
        "modeled_comm_bound_blocking_step_seconds": comm["blocking"][
            "step_seconds"
        ],
        "modeled_comm_bound_overlap_step_seconds": comm["overlap"][
            "step_seconds"
        ],
        "modeled_comm_bound_speedup_x": comm["speedup"],
        "modeled_comm_bound_hidden_seconds": comm["overlap"]["hidden_seconds"],
        "modeled_comm_bound_exposed_seconds": comm["overlap"][
            "exposed_seconds"
        ],
    }
    for n_cores, row in scaling.items():
        metrics[f"modeled_weak_{n_cores}_overlap_step_seconds"] = row[
            "overlap_step_seconds"
        ]
        metrics[f"modeled_weak_{n_cores}_overlap_efficiency"] = row[
            "overlap_efficiency"
        ]
        metrics[f"modeled_weak_{n_cores}_blocking_efficiency"] = row[
            "blocking_efficiency"
        ]
    metrics["modeled_weak_2048_gate_efficiency"] = scaling[2048][
        "overlap_efficiency"
    ]
    meta = {
        "temperature": TEMPERATURE,
        "comm_bound": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in COMM_BOUND.items()
        },
        "per_core_shape": list(PER_CORE),
        "weak_scaling_cores": [n for n, _ in _weak_scaling_points()],
        "gate_speedup_x": GATE_SPEEDUP,
        "gate_efficiency": GATE_EFFICIENCY,
        "clock": "modeled TPU seconds (two-tier link model; real lockstep "
        "runs for the comm-bound gate, op-stream extrapolation for weak "
        "scaling)",
    }
    return metrics, meta


def main() -> None:
    import sys

    pairs = verify_bit_identity()
    print(
        f"bit-identity OK: {pairs} (updater, dtype, faulted) triples match "
        "exactly across schedules"
    )

    comm = measure_comm_bound()
    print(
        f"comm-bound {COMM_BOUND['shape']} on {COMM_BOUND['grid']} cores, "
        f"pods {COMM_BOUND['pod_grid']}: "
        f"blocking {comm['blocking']['step_seconds'] * 1e6:.1f} us, "
        f"overlap {comm['overlap']['step_seconds'] * 1e6:.1f} us "
        f"-> {comm['speedup']:.2f}x"
    )
    if comm["speedup"] < GATE_SPEEDUP:
        sys.exit(
            f"FAIL: overlapped schedule speedup {comm['speedup']:.2f}x is "
            f"below the {GATE_SPEEDUP}x gate at the comm-bound size"
        )

    scaling = measure_weak_scaling()
    print(f"weak scaling, per-core {PER_CORE} bfloat16 compact:")
    print(
        f"{'cores':>6} {'overlap [ms]':>13} {'blocking [ms]':>14} "
        f"{'eff(ovl)':>9} {'eff(blk)':>9} {'multi-pod':>10}"
    )
    for n_cores, row in scaling.items():
        print(
            f"{n_cores:>6} {row['overlap_step_seconds'] * 1e3:>13.3f} "
            f"{row['blocking_step_seconds'] * 1e3:>14.3f} "
            f"{row['overlap_efficiency']:>9.3f} "
            f"{row['blocking_efficiency']:>9.3f} "
            f"{'yes' if row['multi_pod'] else 'no':>10}"
        )
    eff = scaling[2048]["overlap_efficiency"]
    if eff < GATE_EFFICIENCY:
        sys.exit(
            f"FAIL: weak-scaling efficiency {eff:.3f} at 2048 modeled cores "
            f"is below the {GATE_EFFICIENCY} gate"
        )
    print(
        f"gate OK: {comm['speedup']:.2f}x >= {GATE_SPEEDUP}x comm-bound, "
        f"efficiency {eff:.3f} >= {GATE_EFFICIENCY} at 2048 cores"
    )


if __name__ == "__main__":
    main()
