"""Traced sweep executor: record once, replay N, stay bit-identical.

The contract under test (see ``docs/traced_executor.md``): the solo and
ensemble drivers replay every fused chain, and replayed sweeps are
bit-identical to the updater's own eager sweeps (which are themselves
bit-identical to the elementwise path), across all four updaters, both
dtypes, field on and off; traces invalidate on any binding change
(restored checkpoints, roster rebuilds, new streams); checkpoints taken
mid-replay round-trip, including ones that still carry the removed
``traced`` setting; and the ``traced_*``, fused and packed gauges count
replayed sweeps like eager ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SimulationConfig, load, simulate
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.tpu_backend import TPUBackend
from repro.core.config import default_block_shape
from repro.core.distributed import DistributedIsing
from repro.core.ensemble import EnsembleSimulation
from repro.core.fused import record_fused_metrics
from repro.core.packed import record_packed_metrics
from repro.core.simulation import IsingSimulation
from repro.core.tempering import TemperingEnsemble
from repro.core.traced import (
    ALLOCATING_OPS,
    REPLAYABLE_OPS,
    SweepTrace,
    TracedExecutor,
    record_traced_metrics,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry.report import RunTelemetry
from repro.tpu.dtypes import BFLOAT16, PACKED
from repro.tpu.tensorcore import TensorCore

from .conftest import eager_sweeps

UPDATERS = ("compact", "conv", "checkerboard", "masked_conv")


def _solo(updater="compact", dtype=None, field=0.0, seed=11, side=16):
    backend = NumpyBackend(dtype) if dtype is not None else None
    return IsingSimulation(
        side, 2.2, updater=updater, backend=backend, seed=seed,
        field=field, fused=True,
    )


class TestResolve:
    def test_auto_follows_fused(self):
        assert _solo()._executor is not None
        assert IsingSimulation(16, 2.2, fused=False)._executor is None
        assert EnsembleSimulation(16, [2.0, 2.2])._executor is not None
        assert EnsembleSimulation(16, [2.0, 2.2], fused=False)._executor is None

    def test_off_by_default_on_tpu_cost_model(self):
        sim = IsingSimulation(16, 2.2, backend=TPUBackend(TensorCore(core_id=0)))
        assert sim.fused is False
        assert sim._executor is None
        dist = DistributedIsing(16, 2.2, core_grid=(1, 1), fused=True)
        assert not hasattr(dist, "_executors")

    def test_rejects_junk(self):
        # Replay is how the fused engine runs, not an option.
        with pytest.raises(TypeError, match="traced"):
            SimulationConfig(shape=16, traced=False)
        for build in (
            lambda: IsingSimulation(16, 2.2, traced=False),
            lambda: EnsembleSimulation(16, [2.0], traced=False),
            lambda: DistributedIsing(16, 2.2, core_grid=(1, 1), traced=False),
            lambda: TemperingEnsemble(16, [0.4, 0.5], traced=False),
        ):
            with pytest.raises(TypeError, match="traced"):
                build()

    def test_op_sets_are_disjoint(self):
        assert not (REPLAYABLE_OPS & ALLOCATING_OPS)


class TestSoloBitIdentity:
    @pytest.mark.parametrize("updater", UPDATERS)
    @pytest.mark.parametrize("dtype", [None, BFLOAT16])
    def test_traced_matches_eager_fused(self, updater, dtype):
        traced = _solo(updater=updater, dtype=dtype)
        eager = _solo(updater=updater, dtype=dtype)
        traced.run(9)
        eager_sweeps(eager, 9)
        assert np.array_equal(traced.lattice, eager.lattice)
        assert traced.stream.counters == eager.stream.counters
        ex = traced._executor
        assert ex.traces_recorded == 1
        assert ex.fallbacks == 0
        assert ex.sweeps_replayed == 7  # 1 warm-up + 1 recording + 7 replays

    @pytest.mark.parametrize("updater", UPDATERS)
    def test_traced_matches_elementwise(self, updater):
        traced = _solo(updater=updater)
        elementwise = IsingSimulation(
            16, 2.2, updater=updater, seed=11, fused=False
        )
        traced.run(8)
        elementwise.run(8)
        assert np.array_equal(traced.lattice, elementwise.lattice)

    @pytest.mark.parametrize("updater", ["compact", "masked_conv"])
    def test_with_external_field(self, updater):
        traced = _solo(updater=updater, field=0.3)
        eager = _solo(updater=updater, field=0.3)
        traced.run(8)
        eager_sweeps(eager, 8)
        assert np.array_equal(traced.lattice, eager.lattice)

    def test_split_runs_match_one_run(self):
        whole = _solo()
        split = _solo()
        whole.run(10)
        for _ in range(10):
            split.run(1)
        assert np.array_equal(whole.lattice, split.lattice)

    def test_per_sweep_calls_still_reach_replay(self):
        # Telemetry-attached drivers advance one sweep per call; warm-up
        # state must persist across calls or tracing never engages.
        sim = IsingSimulation(
            16, 2.2, seed=4, fused=True,
            telemetry=RunTelemetry(physics_interval=0),
        )
        sim.run(6)
        assert sim._executor.sweeps_replayed == 4
        bare = _solo(seed=4)
        eager_sweeps(bare, 6)
        assert np.array_equal(sim.lattice, bare.lattice)


class TestEnsembleBitIdentity:
    @pytest.mark.parametrize("updater", UPDATERS)
    def test_replay_matches_eager(self, updater):
        def build():
            return EnsembleSimulation(
                16, [1.8, 2.2, 2.6], updater=updater, seed=6, fused=True
            )

        traced, eager = build(), build()
        traced.run(7)
        eager_sweeps(eager, 7)
        assert traced._executor.sweeps_replayed == 5
        assert np.array_equal(traced.lattices, eager.lattices)
        assert traced.stream.counters == eager.stream.counters


class TestInvalidation:
    def test_new_stream_invalidates(self):
        sim = _solo()
        sim.run(5)
        ex = sim._executor
        assert ex.traces_recorded == 1
        sim.stream = type(sim.stream)(sim.stream.seeds, sim.stream.stream_ids)
        sim.run(5)
        assert ex.invalidations == 1
        assert ex.traces_recorded == 2

    def test_ensemble_roster_change_invalidates(self):
        ens = EnsembleSimulation(16, [2.0, 2.2], seed=2)
        ens.run(5)
        ex = ens._executor
        assert ex.traces_recorded == 1
        lattice, stream = ens.remove_chain(1)
        ens.run(5)
        assert ex.invalidations == 1
        assert ex.traces_recorded == 2
        # The rejoined roster stays bit-identical to an undisturbed solo.
        ens.add_chain(2.2, stream, lattice)
        ens.run(3)

    def test_unsound_trace_falls_back_eagerly(self):
        sim = _solo()
        ex = sim._executor
        trace = SweepTrace()
        trace.mark_unsound("array")
        assert not trace.sound
        with pytest.raises(RuntimeError, match="unsound"):
            trace.compile()
        # An executor over a non-fused updater records nothing and
        # permanently falls back rather than replaying garbage.
        eager = IsingSimulation(16, 2.2, seed=11, fused=False)
        bad = TracedExecutor(eager._updater)
        state = eager._updater.to_state(eager.lattice)
        state = bad.run(state, eager.stream, 4)
        assert bad.fallbacks == 1
        assert bad.sweeps_replayed == 0
        assert bad.sweeps_eager == 4
        assert ex.fallbacks == 0


class TestCheckpointRoundTrip:
    def test_solo_checkpoint_mid_replay(self):
        sim = _solo()
        sim.run(6)  # well into replay territory
        state = sim.state_dict()
        assert "traced" not in state
        resumed = IsingSimulation.from_state_dict(state)
        assert resumed._executor is not None
        baseline = _solo()
        eager_sweeps(baseline, 13)
        sim.run(7)
        resumed.run(7)
        assert np.array_equal(sim.lattice, baseline.lattice)
        assert np.array_equal(resumed.lattice, baseline.lattice)

    def test_explicit_traced_flag_round_trips(self):
        # Checkpoints written while traced= existed carry the flag; it
        # is ignored on load and the resumed fused chain replays.
        sim = _solo()
        sim.run(3)
        resumed = IsingSimulation.from_state_dict(
            {**sim.state_dict(), "traced": False}
        )
        sim.run(5)
        resumed.run(5)
        assert resumed._executor.sweeps_replayed == 3
        assert np.array_equal(resumed.lattice, sim.lattice)
        assert "traced" not in resumed.state_dict()

    def test_ensemble_checkpoint_mid_replay(self):
        ens = EnsembleSimulation(16, [2.0, 2.4], seed=5)
        ens.run(6)
        resumed = load(ens.state_dict())
        ens.run(6)
        resumed.run(6)
        assert np.array_equal(ens.lattices, resumed.lattices)

    def test_distributed_checkpoint_mid_replay(self):
        # A fused distributed run used to replay per colour phase; its
        # checkpoints carry "traced": True and resume on eager phases.
        sim = DistributedIsing(16, 2.2, core_grid=(2, 2), seed=3, fused=True)
        sim.sweep(5)
        state = {**sim.state_dict(), "traced": True}
        resumed = load(state)
        assert "traced" not in resumed.state_dict()
        sim.sweep(5)
        resumed.sweep(5)
        assert np.array_equal(sim.gather_lattice(), resumed.gather_lattice())


class TestDistributed:
    @pytest.mark.parametrize("dtype", ["float32", "bfloat16"])
    def test_matches_eager_fused_and_elementwise(self, dtype):
        kw = dict(core_grid=(2, 2), seed=7, dtype=dtype)
        fused = DistributedIsing(16, 2.2, fused=True, **kw)
        elementwise = DistributedIsing(16, 2.2, fused=False, **kw)
        fused.sweep(6)
        elementwise.sweep(6)
        assert np.array_equal(
            fused.gather_lattice(), elementwise.gather_lattice()
        )


class TestTelemetryAndApi:
    def test_gauges(self):
        sim = IsingSimulation(
            16, 2.2, seed=9, fused=True,
            telemetry=RunTelemetry(physics_interval=0),
        )
        sim.run(6)
        report = sim.report()
        assert "traced" not in report.run
        metrics = report.metrics
        assert metrics["traced_sweeps_replayed"]["value"] == 4
        assert metrics["traced_sweeps_eager"]["value"] == 2
        assert metrics["traced_traces_recorded"]["value"] == 1
        assert metrics["traced_fallbacks"]["value"] == 0
        assert metrics["traced_program_ops"]["value"] > 0

    def test_gauges_zero_when_off(self):
        registry = RunTelemetry().registry
        record_traced_metrics(registry, None)
        assert registry.gauge("traced_sweeps_replayed").value == 0

    def test_config_passes_traced_through(self):
        # Replay follows the config's engine choice through the factory.
        cfg = SimulationConfig(shape=16, temperature=2.2, fused=False)
        assert simulate(cfg)._executor is None
        assert simulate(cfg.evolve(fused="auto"))._executor is not None

    @pytest.mark.parametrize(
        "side, dtype, counts",
        [
            # 16^2 sites gather a table entry each per sweep.
            (16, None, {"fused_table_hits": 2560, "fused_bytes_saved": None}),
            # A 128^2 packed lattice is 256 words per sweep.
            (128, PACKED, {"packed_sweeps": 10, "packed_words_updated": 2560}),
        ],
        ids=["float32", "packed"],
    )
    def test_replayed_sweeps_count_in_engine_gauges(self, side, dtype, counts):
        sim = _solo(dtype=dtype, side=side)
        sim.telemetry = RunTelemetry(physics_interval=0)
        sim.run(10)
        assert sim._executor.sweeps_replayed == 8
        eager = _solo(dtype=dtype, side=side)
        eager_sweeps(eager, 10)
        expected = MetricsRegistry()
        record_fused_metrics(expected, eager._updater)
        record_packed_metrics(expected, eager._updater)
        metrics = sim.report().metrics
        for name, count in counts.items():
            assert metrics[name]["value"] == expected.gauge(name).value, name
            if count is not None:
                assert metrics[name]["value"] == count, name


class TestDefaultBlockShape:
    @pytest.mark.parametrize(
        "updater, expected",
        [
            ("masked_conv", None),
            ("checkerboard", (16, 20)),
            ("compact", (8, 10)),
            ("conv", (8, 10)),
        ],
    )
    def test_matches_driver_defaults(self, updater, expected):
        assert default_block_shape(updater, (16, 20)) == expected

    @pytest.mark.parametrize("updater", ["compact", "conv", "checkerboard"])
    def test_driver_consumes_helper(self, updater):
        implicit = IsingSimulation(16, 2.2, updater=updater)
        assert implicit.block_shape == default_block_shape(updater, (16, 16))
