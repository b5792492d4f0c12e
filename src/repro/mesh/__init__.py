"""Simulated TPU pod interconnect: topology, collectives and the lockstep
SPMD runtime."""

from .collectives import collective_permute, validate_pairs
from .links import LinkModel
from .runtime import LockstepError, PermuteRequest, SPMDRuntime
from .topology import DIRECTIONS, Torus2D

__all__ = [
    "collective_permute",
    "validate_pairs",
    "LinkModel",
    "LockstepError",
    "PermuteRequest",
    "SPMDRuntime",
    "DIRECTIONS",
    "Torus2D",
]
