"""Data semantics of the XLA collective used by the paper.

``collective_permute`` forwards each source core's tensor to its target
core according to a globally identical list of (source, target) pairs;
cores that are not the target of any pair receive zeros (XLA semantics).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["collective_permute", "validate_pairs"]


def validate_pairs(pairs: Sequence[tuple[int, int]], n_cores: int) -> None:
    """Check XLA's constraints: ids in range, each target at most once."""
    seen_targets: set[int] = set()
    for src, dst in pairs:
        if not (0 <= src < n_cores and 0 <= dst < n_cores):
            raise ValueError(
                f"pair ({src}, {dst}) outside core range 0..{n_cores - 1}"
            )
        if dst in seen_targets:
            raise ValueError(f"target core {dst} appears in more than one pair")
        seen_targets.add(dst)


def collective_permute(
    values: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]]
) -> list[np.ndarray]:
    """Permute per-core tensors according to source-target pairs.

    ``values[i]`` is core i's contribution; the result's entry i is what
    core i receives (zeros if it is not a target).
    """
    n_cores = len(values)
    validate_pairs(pairs, n_cores)
    shape = values[0].shape
    for i, v in enumerate(values):
        if v.shape != shape:
            raise ValueError(
                f"core {i} tensor shape {v.shape} != core 0 shape {shape} "
                "(collective operands must agree across cores)"
            )
    received = [np.zeros_like(values[0]) for _ in range(n_cores)]
    for src, dst in pairs:
        received[dst] = values[src].copy()
    return received

