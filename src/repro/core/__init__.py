"""The paper's primary contribution: checkerboard Ising MCMC updaters.

* :class:`CheckerboardUpdater` — Algorithm 1 (naive, masked).
* :class:`CompactUpdater` — Algorithm 2 (compact sub-lattices; the
  production updater).
* :class:`ConvUpdater` — the appendix-7.2 convolution variant.
* :class:`IsingSimulation` — single-core chain driver.
* :class:`EnsembleSimulation` — many independent chains advanced as one
  batched rank-5 state (in :mod:`repro.core.ensemble`).
* :class:`DistributedIsing` — the multi-core pod simulation (in
  :mod:`repro.core.distributed`).

All three drivers accept an optional
:class:`~repro.telemetry.report.RunTelemetry` recorder and expose
``report()``; telemetry observes without perturbing — instrumented
chains stay bit-identical to bare ones.
"""

from .checkerboard import CheckerboardUpdater
from .compact import CompactUpdater
from .distributed import DistributedIsing
from .conv import ConvUpdater, MaskedConvUpdater
from .kernels import (
    PhaseHalos,
    compact_neighbor_sums,
    kernel_K,
    kernel_K_hat,
    neighbor_sum_grid,
    neighbor_sum_roll,
)
from .lattice import (
    CompactLattice,
    checkerboard_mask,
    cold_lattice,
    grid_to_plain,
    plain_to_grid,
    plain_to_quarters,
    quarters_to_plain,
    random_lattice,
    validate_spins,
)
from .couplings import BondCouplings
from .ensemble import EnsembleSimulation
from .tempering import TemperingEnsemble, swap_acceptance_probability
from .packed import PackedState, PackedUpdater
from .wolff import WolffUpdater
from .simulation import ChainResult, IsingSimulation, run_temperature_scan, summarize_chain
from .update import acceptance_ratio, metropolis_flip

__all__ = [
    "CheckerboardUpdater",
    "CompactUpdater",
    "DistributedIsing",
    "ConvUpdater",
    "MaskedConvUpdater",
    "PhaseHalos",
    "compact_neighbor_sums",
    "kernel_K",
    "kernel_K_hat",
    "neighbor_sum_grid",
    "neighbor_sum_roll",
    "CompactLattice",
    "checkerboard_mask",
    "cold_lattice",
    "grid_to_plain",
    "plain_to_grid",
    "plain_to_quarters",
    "quarters_to_plain",
    "random_lattice",
    "validate_spins",
    "PackedState",
    "PackedUpdater",
    "WolffUpdater",
    "BondCouplings",
    "ChainResult",
    "EnsembleSimulation",
    "TemperingEnsemble",
    "swap_acceptance_probability",
    "IsingSimulation",
    "run_temperature_scan",
    "summarize_chain",
    "acceptance_ratio",
    "metropolis_flip",
]
