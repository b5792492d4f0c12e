"""Distributed Ising simulation on a simulated TPU pod slice.

Spreads a lattice over a 2 x 4 grid of simulated TensorCores, runs
lockstep SPMD sweeps with halo exchange over the toroidal mesh, and
prints the per-category time breakdown (the paper's Table 3 quantities)
plus a slice of the op-level trace (the paper's Fig. 6 trace viewer).
Built through the unified ``repro.api`` surface.

Usage::

    python examples/tpu_pod_simulation.py
"""

from __future__ import annotations

import repro


def main() -> None:
    config = repro.SimulationConfig(
        shape=(256, 512),
        temperature=2.1,
        grid=(2, 4),
        dtype="bfloat16",
        seed=7,
        record_trace=True,
    )
    sim = repro.distributed(config)
    print(f"{sim.num_cores} cores, {sim.local_shape} sites per core, "
          f"{sim.n_sites} sites total")

    sim.sweep(10)
    print(f"magnetization after 10 sweeps: {sim.magnetization():+.4f}")
    print(f"energy per spin:               {sim.energy_per_spin():+.4f}")
    print(f"modeled step time:             {sim.step_time() * 1e3:.3f} ms")
    print(f"modeled throughput:            {sim.throughput_flips_per_ns():.4f} flips/ns")

    print("\nper-category breakdown (cf. paper Table 3):")
    for category, fraction in sim.breakdown().items():
        print(f"  {category:14s} {100 * fraction:7.3f} %")

    print("\nfirst trace events on core 0 (cf. paper Fig. 6):")
    for event in sim.pod.cores[0].profiler.trace[:12]:
        print(
            f"  t={event.start * 1e6:9.3f} us  {event.category:12s} "
            f"{event.name:22s} {event.duration * 1e6:8.3f} us"
        )


if __name__ == "__main__":
    main()
