"""Timing model of the pod's inter-chip interconnect.

The paper's measurements (Tables 3-4) show ``collective_permute`` time is
*latency dominated*, not bandwidth bound: it grows with the number of
participating cores (lockstep synchronisation across a mesh whose
diameter grows like sqrt(N)) and only mildly with the edge size (the
largest edge, 229 KiB, would take ~0.023 ms at a moderate 10 GB/s —
comparable to the observed totals).  The model is therefore

``t = base_latency + sync_per_sqrt_core * sqrt(n_cores) + bytes * serialization``

*per permute op*.  One compact sweep issues eight permutes (four halo
directions x two colour phases), so the constants are fit such that the
eight-permute per-sweep total matches the paper's Table 4 grid:
c0 = 2.9 us, c1 = 2.06 us, and an effective serialization of ~2.7 GB/s
per edge.  Within the table's range the modeled per-sweep totals
reproduce the measured 0.18-0.65 ms to ~25%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LinkModel"]


@dataclass(frozen=True)
class LinkModel:
    """Calibrated collective_permute timing on the 2D toroidal mesh."""

    base_latency: float = 2.9e-6
    sync_per_sqrt_core: float = 2.06e-6
    serialization_s_per_byte: float = 3.68e-10

    def permute_time(self, n_cores: int, bytes_per_edge: float) -> float:
        """Modeled seconds for one collective_permute across the slice."""
        if n_cores <= 0:
            raise ValueError(f"n_cores must be positive, got {n_cores}")
        if bytes_per_edge < 0:
            raise ValueError(f"bytes_per_edge must be >= 0, got {bytes_per_edge}")
        return (
            self.base_latency
            + self.sync_per_sqrt_core * math.sqrt(n_cores)
            + self.serialization_s_per_byte * bytes_per_edge
        )
