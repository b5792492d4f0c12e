"""Physics observables, exact references and MCMC error analysis."""

from .binder import (
    binder_cumulant,
    binder_from_moments,
    replica_overlap,
    spin_glass_binder,
)
from .correlation import correlation_function, correlation_length, susceptibility
from .energy import energy_per_spin, specific_heat, total_energy
from .exact import (
    boltzmann_distribution,
    bond_energies,
    checkerboard_phase_matrix,
    checkerboard_sweep_matrix,
    enumerate_states,
    exact_observables,
)
from .magnetization import abs_magnetization, magnetization
from .onsager import (
    BETA_CRITICAL,
    T_CRITICAL,
    critical_temperature,
    internal_energy,
    spontaneous_magnetization,
)
from .stats import (
    binder_jackknife,
    blocking_error,
    effective_sample_size,
    integrated_autocorrelation_time,
    jackknife,
)

__all__ = [
    "binder_cumulant",
    "binder_from_moments",
    "replica_overlap",
    "spin_glass_binder",
    "correlation_function",
    "correlation_length",
    "susceptibility",
    "energy_per_spin",
    "specific_heat",
    "total_energy",
    "boltzmann_distribution",
    "bond_energies",
    "checkerboard_phase_matrix",
    "checkerboard_sweep_matrix",
    "enumerate_states",
    "exact_observables",
    "abs_magnetization",
    "magnetization",
    "BETA_CRITICAL",
    "T_CRITICAL",
    "critical_temperature",
    "internal_energy",
    "spontaneous_magnetization",
    "binder_jackknife",
    "blocking_error",
    "effective_sample_size",
    "integrated_autocorrelation_time",
    "jackknife",
]
