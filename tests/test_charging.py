"""Cost accounting: plain backends build no charges, the ``*_into`` ops
book nothing on a core, TPU op logs and the distributed modeled clock
are pinned."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.backend.base import Backend
from repro.backend.tpu_backend import TPUBackend
from repro.core.config import default_block_shape
from repro.core.distributed import DistributedIsing
from repro.core.ensemble import EnsembleSimulation, _make_updater
from repro.core.simulation import IsingSimulation
from repro.rng import PhiloxStream
from repro.tpu.tensorcore import TensorCore

from .conftest import eager_sweeps

SHAPE = (32, 32)
TEMPERATURE = 2.269
TEMPERATURES = [1.8, 2.269, 3.0]


@pytest.fixture
def charge_calls(monkeypatch) -> dict:
    """Count every call of the charging helpers, at class level."""
    calls = {"_charge": 0, "_nbytes": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        raw = Backend.__dict__[name]
        if isinstance(raw, staticmethod):
            monkeypatch.setattr(
                Backend, name, staticmethod(counting(name, raw.__func__))
            )
        else:
            monkeypatch.setattr(Backend, name, counting(name, raw))
    return calls


class TestPlainBackendBooksNothing:
    @pytest.mark.parametrize("chain", ["solo", "batched", "packed"])
    def test_eager_and_replayed_sweeps_build_no_charges(self, chain, charge_calls):
        if chain == "solo":
            sim = IsingSimulation(SHAPE, TEMPERATURE, backend=NumpyBackend(), seed=1)
        elif chain == "batched":
            sim = EnsembleSimulation(
                SHAPE, TEMPERATURES, backend=NumpyBackend(), seed=1
            )
        else:
            sim = IsingSimulation(
                (32, 128), TEMPERATURE, backend=NumpyBackend("packed"), seed=1
            )
        sim.run(4)  # eager warm-up, recording sweep, two replays
        eager_sweeps(sim, 2)
        assert sim._executor.sweeps_replayed == 2
        assert charge_calls == {"_charge": 0, "_nbytes": 0}


class TestIntoOpsBookNothing:
    @pytest.mark.parametrize(
        "updater, dtype",
        [
            ("compact", "float32"),
            ("conv", "float32"),
            ("checkerboard", "float32"),
            ("masked_conv", "float32"),
            ("compact", "packed"),
        ],
    )
    def test_steady_fused_sweep_on_a_core_books_nothing(self, updater, dtype):
        # check_config keeps the fused and packed engines off the TPU
        # cost model; their *_into vocabulary books nothing even when an
        # updater is handed a core directly.
        core = TensorCore(core_id=0, op_log=[])
        shape = (32, 128) if dtype == "packed" else SHAPE
        chain = _make_updater(
            updater, 1 / TEMPERATURE, TPUBackend(core, dtype),
            default_block_shape(updater, shape, dtype), 0.0, fused=True,
        )
        state = chain.to_state(np.ones(shape, dtype=np.float32))
        stream = PhiloxStream(1, 0)
        state = chain.sweep(state, stream)  # builds the acceptance table
        core.op_log.clear()
        chain.sweep(state, stream)
        assert core.op_log == []


# Per-category (ops, flops, bytes) of one 32^2 sweep on a TPUBackend.
# The TPU cost model runs the elementwise engine only; the paper harness
# drives it solo, and nothing else pins the batched op stream.  "first"
# is a fresh chain's first sweep, "steady" every later one.
PINNED = {
    "batched-elementwise": {
        "first": {
            "formatting": (24, 384, 9216),
            "mxu": (8, 196608, 57344),
            "vpu": (36, 107520, 270400),
        },
        "steady": {
            "formatting": (24, 384, 9216),
            "mxu": (8, 196608, 57344),
            "vpu": (36, 107520, 270400),
        },
    },
    "elementwise": {
        "first": {
            "formatting": (24, 128, 3072),
            "mxu": (8, 65536, 24576),
            "vpu": (36, 35840, 90144),
        },
        "steady": {
            "formatting": (24, 128, 3072),
            "mxu": (8, 65536, 24576),
            "vpu": (36, 35840, 90144),
        },
    },
}


def _pinned_sim(kind: str, core: TensorCore):
    if kind == "batched-elementwise":
        return EnsembleSimulation(
            SHAPE, TEMPERATURES, backend=TPUBackend(core, "float32"), seed=1, fused=False
        )
    return IsingSimulation(
        SHAPE, TEMPERATURE, backend=TPUBackend(core, "float32"), seed=1, fused=False
    )


def _category_totals(op_log: list) -> dict:
    totals: dict = {}
    for category, flops, bytes_moved, _batch in op_log:
        ops, f, b = totals.get(category, (0, 0.0, 0.0))
        totals[category] = (ops + 1, f + flops, b + bytes_moved)
    return totals


class TestModeledClockPinned:
    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_op_log_matches_pinned_totals(self, kind):
        core = TensorCore(core_id=0, op_log=[])
        sim = _pinned_sim(kind, core)
        for phase in ("first", "steady", "steady"):
            sim.run(1)
            assert _category_totals(core.op_log) == PINNED[kind][phase]
            core.op_log.clear()
        assert sim._executor is None


# Every core's profiler after two sweeps of a 32^2 lattice on a 2x2 pod:
# (seconds, bytes, op_counts) per category.  Nothing else pins the
# distributed driver's modeled clock (the paper tables use
# model_pod_step), so this guards the SPMD runtime's per-collective
# charge and the per-core op stream.  All four cores book alike.
_POD_COMMON_SECONDS = {
    "mxu": 3.2028334486266524e-05,
    "conv": 0.0,
    "communication": 1.1250841599999996e-04,
}
PINNED_POD = {
    "elementwise": (
        {
            **_POD_COMMON_SECONDS,
            "vpu": 1.4400536526946095e-04,
            "formatting": 1.2803134151111092e-04,
        },
        {
            "mxu": 12288.0,
            "conv": 0.0,
            "vpu": 45120.0,
            "formatting": 4096.0,
            "communication": 512.0,
        },
        {"mxu": 16, "conv": 0, "vpu": 72, "formatting": 152, "communication": 16},
    ),
}


class TestDistributedClockPinned:
    @pytest.mark.parametrize("kind", sorted(PINNED_POD))
    def test_every_core_matches_pinned_profile(self, kind):
        seconds, bytes_moved, op_counts = PINNED_POD[kind]
        sim = DistributedIsing((32, 32), 2.0, core_grid=(2, 2), seed=1)
        sim.sweep(2)
        for core in sim.pod.cores:
            profiler = core.profiler
            assert profiler.seconds == pytest.approx(seconds, rel=1e-12, abs=0.0)
            assert profiler.bytes == pytest.approx(bytes_moved, rel=1e-12, abs=0.0)
            assert profiler.op_counts == op_counts
