"""Grouping compatible jobs into one vectorized ensemble batch.

Chains of an :class:`~repro.core.ensemble.EnsembleSimulation` share one
geometry, one updater, one backend (and dtype), one field and one block
decomposition — per-chain freedom is exactly (temperature, seed, stream,
lattice).  :func:`compat_key` captures that contract: jobs with equal
keys can ride one batched sweep; everything per-chain stays per-job.

The GPU Ising literature (Romero et al.) gets its throughput from
batching many independent lattices per update; :class:`Coalescer` is the
admission-side half of that here — it takes the ready queue in scheduling
order and cuts it into :class:`BatchPlan` groups of at most ``max_batch``
compatible jobs, preserving the scheduler's priority/fairness order
within and across groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import resolve_fused
from ..tpu.dtypes import resolve_dtype
from .cache import _model_token, _normalized_shape, _resolved_block_shape
from .job import Job

__all__ = ["compat_key", "BatchPlan", "Coalescer"]


def compat_key(config) -> tuple:
    """The batching-compatibility key of a config.

    Two jobs coalesce into one ensemble iff their keys are equal:
    (shape, updater, dtype, backend kind, model token, resolved block
    decomposition, resolved fused flag).  The model token folds
    couplings kind, disorder seed and field bits through
    :attr:`~repro.api.SimulationConfig.resolved_model`, so a flat
    ``field=`` and its ``ModelSpec`` spelling coalesce; distinct
    disorder realisations never share a batch (chains of one ensemble
    share one bond configuration).  Temperature and seed are
    deliberately absent — they are per-chain inside a batch.  Batched
    jobs on the fused engine all ride one recorded sweep program per
    engine key.
    """
    shape = _normalized_shape(config.shape)
    backend = "tpu" if config.backend == "tpu" else "numpy"
    dtype = resolve_dtype(config.dtype).name
    return (
        shape,
        config.updater,
        dtype,
        backend,
        _model_token(config),
        _resolved_block_shape(config, shape, dtype),
        resolve_fused(config.fused, backend, dtype),
    )


@dataclass
class BatchPlan:
    """One planned ensemble: a compat key and the jobs riding it."""

    key: tuple
    jobs: "list[Job]"

    @property
    def n_chains(self) -> int:
        return len(self.jobs)


class Coalescer:
    """Cuts a scheduling-ordered job list into compatible batch plans."""

    def __init__(self, max_batch: int = 16) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)

    def plan(self, jobs: "list[Job]") -> "list[BatchPlan]":
        """Group ``jobs`` by compat key into plans of <= ``max_batch``.

        Input order is the scheduler's admission order; output plans are
        ordered by their highest-ranked member, and jobs inside a plan
        keep their relative order.  A job joins the first open plan with
        its key; full plans are closed and a new one opened, so one hot
        key can produce several plans.
        """
        plans: "list[BatchPlan]" = []
        open_by_key: dict = {}
        for job in jobs:
            key = compat_key(job.spec.config)
            plan = open_by_key.get(key)
            if plan is None:
                plan = BatchPlan(key=key, jobs=[])
                plans.append(plan)
                open_by_key[key] = plan
            plan.jobs.append(job)
            if len(plan.jobs) >= self.max_batch:
                del open_by_key[key]
        return plans
