"""Pure-numpy backend: the base op vocabulary with no cost accounting."""

from __future__ import annotations

from .base import Backend

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Executes ops in numpy with no core bound; the physics fast path.

    It runs the same op bodies as
    :class:`~repro.backend.tpu_backend.TPUBackend`, so numerics are
    identical for the same dtype, which is what lets the test suite
    verify chain equivalence between the two.  With no core, no op
    computes its flops or byte counts.
    """
