"""Backend that executes ops in numpy and charges a simulated TensorCore.

This is the accounting twin of :class:`NumpyBackend`: numerics are
bit-identical for the same dtype (the equivalence tests rely on it).  It
only binds :attr:`~repro.backend.base.Backend.core`; the shared op bodies
of the elementwise engine then book every op's modeled time into that
core's profiler through the calibrated cost model — which is how the
performance tables of the paper are regenerated without TPU hardware.
Chains on it run the elementwise engine only: the fused and packed
engines' ``*_into`` ops book nothing, and
:func:`~repro.core.config.check_config` refuses both engines here.
"""

from __future__ import annotations

from ..tpu.dtypes import DType, BFLOAT16, FLOAT32
from ..tpu.tensorcore import TensorCore
from .base import Backend

__all__ = ["TPUBackend", "float32_tpu_backend"]


class TPUBackend(Backend):
    """Numpy execution + per-op cost charging on a TensorCore.

    Parameters
    ----------
    core:
        The simulated TensorCore receiving the charges.
    dtype:
        Storage format; ``BFLOAT16`` halves all byte accounting and
        applies round-to-nearest-even on every op result, exactly like
        the hardware's bfloat16 stores.
    """

    def __init__(self, core: TensorCore, dtype: DType | str = BFLOAT16) -> None:
        super().__init__(dtype)
        self.core = core


def float32_tpu_backend(core: TensorCore) -> TPUBackend:
    """Convenience constructor for the float32 ablation runs."""
    return TPUBackend(core, dtype=FLOAT32)
