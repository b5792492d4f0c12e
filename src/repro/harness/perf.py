"""Paper-scale performance modeling by exact op-stream extrapolation.

The paper's benchmark lattices (up to (14336 x 128)^2 sites across 512
cores) cannot be materialised on a host, but they do not need to be: with
the block size fixed at 128 x 128, *every* op in a compact sweep — the
batched band matmuls, the uniforms, the acceptance arithmetic, and even
the boundary-slab formatting (whose tensors are (m, n, c) grids) — has
flops, bytes and matmul batch exactly proportional to the number of grid
blocks ``m * n``.  So the harness:

1. executes one *real* sweep at a proxy grid size, recording every op's
   raw (category, flops, bytes, batch) descriptor from the TensorCore;
2. multiplies each descriptor by the exact area ratio to the target
   lattice and re-prices it through the calibrated cost model (per-op
   dispatch overhead is per *op* and therefore unscaled);
3. adds the analytic collective_permute times from the link model for
   distributed configurations.

This gives modeled step times whose op mix comes from the actual
implementation, not from hand-derived formulas, while only touching a few
hundred thousand sites on the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..backend.tpu_backend import TPUBackend
from ..core.compact import CompactUpdater
from ..core.conv import MaskedConvUpdater
from ..core.lattice import random_lattice
from ..mesh.links import LinkModel
from ..rng.streams import PhiloxStream
from ..tpu.cost_model import TPUCostModel, TPU_V3
from ..tpu.dtypes import DType, BFLOAT16, resolve_dtype
from ..tpu.power import TPU_V3_CORE_WATTS, energy_per_flip_nj
from ..tpu.profiler import CATEGORIES
from ..tpu.tensorcore import TensorCore

__all__ = ["BLOCK", "StepModel", "model_single_core_step", "model_pod_step"]

#: TPU block edge (MXU register / HBM tile dimension).
BLOCK = 128

#: Proxy grid (blocks per quarter) at which the real op stream is recorded.
_PROXY_GRID = (4, 2)
#: Proxy plain-lattice shape for the conv updater (site-proportional ops).
_PROXY_CONV_SHAPE = (8 * BLOCK, 4 * BLOCK)


@dataclass
class StepModel:
    """Modeled cost of one whole-lattice update (sweep)."""

    per_core_shape: tuple[int, int]
    n_cores: int
    updater: str
    dtype: str
    #: Modeled seconds per category for one sweep (per core; communication
    #: is identical on every core, so these are also the pod step's).
    seconds: dict[str, float] = field(default_factory=dict)
    flops: float = 0.0
    bytes: float = 0.0

    @property
    def step_time(self) -> float:
        """Whole-lattice update time in seconds (cores run in lockstep)."""
        return sum(self.seconds.values())

    @property
    def sites(self) -> int:
        """Total lattice sites across all cores."""
        rows, cols = self.per_core_shape
        return rows * cols * self.n_cores

    @property
    def flips_per_ns(self) -> float:
        """Whole-lattice throughput in spin flips per nanosecond."""
        return self.sites / (self.step_time * 1e9)

    @property
    def energy_nj_per_flip(self) -> float:
        """Upper-bound energy estimate at 100 W per TPU v3 core."""
        per_core_flips = self.flips_per_ns / self.n_cores
        return energy_per_flip_nj(TPU_V3_CORE_WATTS, per_core_flips)

    def breakdown(self) -> dict[str, float]:
        """Per-category fractions of the step (Table 3 row)."""
        total = self.step_time
        merged = dict(self.seconds)
        merged["mxu"] = merged.get("mxu", 0.0) + merged.pop("conv", 0.0)
        return {c: merged.get(c, 0.0) / total for c in ("mxu", "vpu", "formatting", "communication")}

    @property
    def achieved_flops_rate(self) -> float:
        """Program FLOPS (charged flops over the compute-only step time)."""
        compute = sum(s for c, s in self.seconds.items() if c != "communication")
        return self.flops / compute

    @property
    def arithmetic_intensity(self) -> float:
        return self.flops / self.bytes


def _quarter_grid(per_core_shape: tuple[int, int]) -> tuple[int, int]:
    rows, cols = per_core_shape
    if rows % (2 * BLOCK) or cols % (2 * BLOCK):
        raise ValueError(
            f"per-core shape {per_core_shape} must be a multiple of "
            f"{2 * BLOCK} in both dimensions (compact 128-blocks)"
        )
    return rows // (2 * BLOCK), cols // (2 * BLOCK)


@lru_cache(maxsize=64)
def _recorded_sweep(updater: str, dtype_name: str) -> tuple[tuple, int]:
    """One real proxy-sized sweep's op log and its block (or site) count."""
    dtype = resolve_dtype(dtype_name)
    core = TensorCore(core_id=0, op_log=[])
    backend = TPUBackend(core, dtype)
    stream = PhiloxStream(1234, 0)

    if updater in ("compact", "conv"):
        m, n = _PROXY_GRID
        shape = (2 * m * BLOCK, 2 * n * BLOCK)
        plain = random_lattice(shape, stream)
        driver = CompactUpdater(
            0.44,
            backend,
            block_shape=(BLOCK, BLOCK),
            nn_method="conv" if updater == "conv" else "matmul",
        )
        state = driver.to_state(plain)
        driver.sweep(state, stream)
        units = m * n
    elif updater == "masked_conv":
        shape = _PROXY_CONV_SHAPE
        plain = random_lattice(shape, stream)
        driver = MaskedConvUpdater(0.44, backend)
        driver.sweep(backend.array(plain), stream)
        units = shape[0] * shape[1]
    else:
        raise ValueError(
            f"unknown updater {updater!r}; expected compact/conv/masked_conv"
        )
    return tuple(core.op_log), units


def _scaled_step_seconds(
    updater: str,
    dtype: DType,
    target_units: float,
    cost_model: TPUCostModel,
) -> tuple[dict[str, float], float, float]:
    """Re-price the recorded proxy op stream at the target size."""
    op_log, proxy_units = _recorded_sweep(updater, dtype.name)
    factor = target_units / proxy_units
    seconds = {c: 0.0 for c in CATEGORIES}
    total_flops = 0.0
    total_bytes = 0.0
    for category, flops, bytes_moved, batch in op_log:
        flops *= factor
        bytes_moved *= factor
        scaled_batch = batch * factor if batch is not None else None
        for cat, t in cost_model.op_times(
            category, flops, bytes_moved, scaled_batch
        ).items():
            seconds[cat] += t
        total_flops += flops
        total_bytes += bytes_moved
    return seconds, total_flops, total_bytes


def model_single_core_step(
    per_core_shape: tuple[int, int],
    updater: str = "compact",
    dtype: DType | str = BFLOAT16,
    cost_model: TPUCostModel = TPU_V3,
) -> StepModel:
    """Modeled sweep cost of one core holding ``per_core_shape`` sites."""
    dtype = resolve_dtype(dtype)
    rows, cols = per_core_shape
    if updater in ("compact", "conv"):
        m, n = _quarter_grid(per_core_shape)
        target_units: float = m * n
    else:
        target_units = rows * cols
    seconds, flops, bytes_moved = _scaled_step_seconds(
        updater, dtype, target_units, cost_model
    )
    return StepModel(
        per_core_shape=(rows, cols),
        n_cores=1,
        updater=updater,
        dtype=dtype.name,
        seconds={c: s for c, s in seconds.items() if s > 0.0},
        flops=flops,
        bytes=bytes_moved,
    )


def model_pod_step(
    per_core_shape: tuple[int, int],
    n_cores: int,
    updater: str = "compact",
    dtype: DType | str = BFLOAT16,
    cost_model: TPUCostModel = TPU_V3,
    link_model: LinkModel | None = None,
) -> StepModel:
    """Modeled sweep cost of an SPMD pod slice (compute + halo exchange).

    One sweep exchanges eight boundary slabs per core: the two row edges
    (quarter width each) and two column edges (quarter height) per colour
    phase.
    """
    if n_cores <= 0:
        raise ValueError(f"n_cores must be positive, got {n_cores}")
    link = link_model if link_model is not None else LinkModel()
    dtype = resolve_dtype(dtype)
    base = model_single_core_step(per_core_shape, updater, dtype, cost_model)
    rows, cols = per_core_shape
    row_edge_bytes = (cols // 2) * dtype.itemsize
    col_edge_bytes = (rows // 2) * dtype.itemsize
    # South, north, east, west halos of one colour phase.
    edges = (row_edge_bytes, row_edge_bytes, col_edge_bytes, col_edge_bytes)
    comm_phase = sum(link.permute_time(n_cores, b) for b in edges)
    seconds = dict(base.seconds)
    seconds["communication"] = comm_phase * 2.0  # two colour phases
    return StepModel(
        per_core_shape=base.per_core_shape,
        n_cores=n_cores,
        updater=updater,
        dtype=dtype.name,
        seconds=seconds,
        flops=base.flops,
        bytes=base.bytes,
    )
