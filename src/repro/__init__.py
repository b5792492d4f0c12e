"""repro — a reproduction of "High Performance Monte Carlo Simulation of
Ising Model on TPU Clusters" (Yang et al., SC 2019) on a simulated TPU
substrate.

The package implements the paper's checkerboard Metropolis algorithms
(naive, compact, conv), a software TPU v3 (bfloat16 numerics, MXU/VPU/HBM
cost model, profiler), a 2D toroidal mesh with ``collective_permute`` and
a lockstep SPMD runtime, counter-based Philox RNG, exact physics oracles,
the GPU-style baselines, and a harness that regenerates every table and
figure of the paper's evaluation.

Quickstart::

    import repro
    cfg = repro.SimulationConfig(shape=128, temperature=2.0, seed=0)
    sim = repro.simulate(cfg)
    result = sim.sample(n_samples=1000, burn_in=200)
    print(result.abs_m, result.u4)

The :mod:`repro.api` surface (``SimulationConfig`` + ``simulate`` /
``ensemble`` / ``distributed`` / ``load``) is the stable entry point; the
underlying classes remain importable for power users.
"""

from .api import (
    Client,
    LadderSpec,
    ModelSpec,
    SimulationConfig,
    distributed,
    ensemble,
    load,
    simulate,
    submit,
    tempering,
)
from .core import (
    BondCouplings,
    CheckerboardUpdater,
    CompactLattice,
    CompactUpdater,
    ConvUpdater,
    DistributedIsing,
    EnsembleSimulation,
    IsingSimulation,
    MaskedConvUpdater,
    TemperingEnsemble,
    run_temperature_scan,
)
from .backend import Backend, NumpyBackend
from .observables import (
    T_CRITICAL,
    binder_cumulant,
    critical_temperature,
    energy_per_spin,
    magnetization,
    replica_overlap,
    spin_glass_binder,
    spontaneous_magnetization,
)
from .rng import PhiloxStream
from .sched import Scheduler
from .telemetry import (
    MetricsRegistry,
    RunReport,
    RunTelemetry,
    chrome_trace,
    write_chrome_trace,
)
from .tpu import BFLOAT16, FLOAT32, PACKED, PodSlice, TPU_V3, TensorCore
from .version import __version__

__all__ = [
    "ModelSpec",
    "LadderSpec",
    "SimulationConfig",
    "simulate",
    "ensemble",
    "tempering",
    "distributed",
    "load",
    "submit",
    "Client",
    "Scheduler",
    "BondCouplings",
    "CheckerboardUpdater",
    "CompactLattice",
    "CompactUpdater",
    "ConvUpdater",
    "DistributedIsing",
    "EnsembleSimulation",
    "IsingSimulation",
    "MaskedConvUpdater",
    "TemperingEnsemble",
    "run_temperature_scan",
    "Backend",
    "NumpyBackend",
    "T_CRITICAL",
    "binder_cumulant",
    "critical_temperature",
    "energy_per_spin",
    "magnetization",
    "replica_overlap",
    "spin_glass_binder",
    "spontaneous_magnetization",
    "PhiloxStream",
    "MetricsRegistry",
    "RunReport",
    "RunTelemetry",
    "chrome_trace",
    "write_chrome_trace",
    "BFLOAT16",
    "FLOAT32",
    "PACKED",
    "PodSlice",
    "TPU_V3",
    "TensorCore",
    "__version__",
]
