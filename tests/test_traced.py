"""Traced sweep executor: record once, replay N, stay bit-identical.

The contract under test (see ``docs/traced_executor.md``): the solo and
ensemble drivers replay every fused chain, and replayed sweeps are
bit-identical to the updater's own eager sweeps (which are themselves
bit-identical to the elementwise path), across all four updaters, both
dtypes, field on and off; traces invalidate on any binding change
(restored checkpoints, roster rebuilds, new streams); checkpoints taken
mid-replay round-trip, including ones that still carry the removed
``traced`` setting; the ``traced_*`` gauges count replayed sweeps; and
replay that draws Philox several sweeps ahead leaves lattices and
counters where eager sweeps leave them after every call.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.api import SimulationConfig, load, simulate
from repro.backend.base import Backend
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.tpu_backend import TPUBackend
from repro.core.config import default_block_shape
from repro.core.distributed import DistributedIsing
from repro.core.ensemble import EnsembleSimulation
from repro.core.simulation import IsingSimulation
from repro.core.tempering import TemperingEnsemble
from repro.rng.philox import BLOCK_COUNTERS
from repro.core.traced import (
    ALLOCATING_OPS,
    REPLAYABLE_OPS,
    SweepTrace,
    TracedExecutor,
    record_traced_metrics,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry.report import RunTelemetry
from repro.tpu.dtypes import BFLOAT16
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
        dist = DistributedIsing(16, 2.2, core_grid=(1, 1))
        assert dist.fused is False
        assert not hasattr(dist, "_executor")

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

    def test_op_classes_follow_the_into_naming(self):
        # Every public backend op is replayable (its name ends in _into)
        # or allocating, never both and never neither.
        public = {
            name
            for name, op in vars(Backend).items()
            if callable(op) and not name.startswith("_")
        }
        assert REPLAYABLE_OPS == {
            "add_into", "multiply_into", "exp_into", "less_into",
            "take_into", "uniform_into", "band_cross_matmul_into",
            "band_pair_matmul_into", "acceptance_index_into", "roll_into",
            "slice_copy_into", "add_at_slice_into", "conv2d_neighbors_into",
            "packed_bits_into", "packed_xor_into", "packed_shift_cols_into",
            "packed_compare_pack_into", "packed_full_adder_into",
            "packed_flip_select_into",
        }
        assert ALLOCATING_OPS == {
            "array", "matmul", "add", "subtract", "multiply", "exp", "less",
            "add_at_slice", "shifted_pair_sum", "conv2d_neighbors",
            "random_uniform", "roll", "slice_copy",
        }
        assert REPLAYABLE_OPS | ALLOCATING_OPS == public


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
        sim = DistributedIsing(16, 2.2, core_grid=(2, 2), seed=3)
        sim.sweep(5)
        state = {**sim.state_dict(), "traced": True}
        resumed = load(state)
        assert "traced" not in resumed.state_dict()
        sim.sweep(5)
        resumed.sweep(5)
        assert np.array_equal(sim.gather_lattice(), resumed.gather_lattice())


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
        assert registry.gauge("traced_replay_draws").value == 0

    @pytest.mark.parametrize(
        "chain, n, replayed, draws",
        [("solo-32", 30, 28, 1), ("solo-512", 5, 3, 3)],
    )
    def test_replay_draws_gauge(self, chain, n, replayed, draws):
        # sweeps replayed / replay draws reads as sweeps per Philox call:
        # 28 for a drawn-ahead 32^2 chain, 1 where draw-ahead is off.
        sim = IsingSimulation(int(chain[5:]), 2.2, seed=1)
        sim.run(n)  # without telemetry, so run(n) is one call
        registry = MetricsRegistry()
        record_traced_metrics(registry, sim._executor)
        assert registry.gauge("traced_sweeps_replayed").value == replayed
        assert registry.gauge("traced_replay_draws").value == draws

    @pytest.mark.parametrize(
        "side, n_chains, warm, added",
        [(512, 1, 3, 5), (32, 1, 0, 0), (32, 16, 0, 0)],
        ids=["solo-512", "solo-32", "16x32"],
    )
    def test_split_draws_gauge(self, two_cpus, side, n_chains, warm, added):
        # One split draw per 512^2 sweep; 32^2 draws never split, drawn
        # ahead or batched.
        telemetry = RunTelemetry(physics_interval=0)
        if n_chains == 1:
            sim = IsingSimulation(side, 2.2, seed=1, telemetry=telemetry)
        else:
            sim = EnsembleSimulation(
                side, [2.2] * n_chains, seed=1, telemetry=telemetry
            )
        sim.run(3)
        assert sim.stream.split_draws == warm
        sim.run(5)
        metrics = sim.report().metrics
        assert metrics["rng_split_draws"]["value"] == warm + added

    def test_config_passes_traced_through(self):
        # Replay follows the config's engine choice through the factory.
        cfg = SimulationConfig(shape=16, temperature=2.2, fused=False)
        assert simulate(cfg)._executor is None
        assert simulate(cfg.evolve(fused="auto"))._executor is not None


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


def _ensemble(n_chains: int, side: int, **kw):
    temps = list(np.linspace(1.8, 2.8, n_chains))
    return EnsembleSimulation(side, temps, seed=6, fused=True, **kw)


def _check(sim, ref, n: int) -> None:
    """``sim.run(n)`` must leave what ``n`` eager sweeps of ``ref`` leave."""
    sim.run(n)
    eager_sweeps(ref, n)
    assert np.array_equal(sim.lattices, ref.lattices), n
    assert sim.stream.counters == ref.stream.counters, n


class TestDrawAhead:
    """Replay draws up to k sweeps of uniforms with one Philox call."""

    RUNS = (1, 2, 5, 30, 64, 65, 100, 3)

    @pytest.mark.parametrize(
        "chains, side, cap",
        [(1, 32, 64), (3, 16, 85), (16, 32, 4)],
        ids=["solo-32", "3x16", "16x32"],
    )
    def test_run_lengths_match_eager(self, chains, side, cap):
        sim, ref = _ensemble(chains, side), _ensemble(chains, side)
        for n in self.RUNS:
            _check(sim, ref, n)
        ex = sim._executor
        assert ex._ahead.cap == cap
        # Each call draws ceil(replayed / cap) times; the first call
        # warms and the second records.
        replayed = [0, 1, 5, 30, 64, 65, 100, 3]
        assert ex.replay_draws == sum(-(-r // cap) for r in replayed)

    @pytest.mark.parametrize("updater", UPDATERS)
    @pytest.mark.parametrize("dtype", [None, BFLOAT16])
    def test_updaters_and_dtypes(self, updater, dtype):
        sim = _solo(updater=updater, dtype=dtype)
        ref = _solo(updater=updater, dtype=dtype)
        for n in (3, 1, 12, 40):
            _check(sim, ref, n)
        assert sim._executor._ahead is not None

    def test_with_field(self):
        sim, ref = _solo(field=0.3, side=32), _solo(field=0.3, side=32)
        for n in (5, 30, 70):
            _check(sim, ref, n)
        assert sim._executor._ahead is not None

    def test_partial_counter_draws_stay_per_sweep(self):
        # A 6^2 compact sweep draws 9 words per sub-lattice: not whole
        # Philox counters, so the recorded program runs as it is.
        sim, ref = _solo(side=6), _solo(side=6)
        for n in (5, 30):
            _check(sim, ref, n)
        ex = sim._executor
        assert ex._ahead is None
        assert ex.replay_draws == 4 * ex.sweeps_replayed

    def test_resume_between_calls(self):
        sim, ref = _ensemble(3, 16), _ensemble(3, 16)
        _check(sim, ref, 10)
        resumed = EnsembleSimulation.from_state_dict(sim.state_dict())
        for n in (1, 30, 7):
            _check(resumed, ref, n)
        assert resumed._executor._ahead is not None

    def test_roster_and_temperature_changes_between_calls(self):
        sim, ref = _ensemble(3, 16), _ensemble(3, 16)
        _check(sim, ref, 12)
        lattice, stream = sim.remove_chain(1)
        ref.remove_chain(1)
        _check(sim, ref, 20)
        sim.add_chain(2.1, stream, lattice)
        ref.add_chain(2.1, stream, lattice)
        _check(sim, ref, 9)
        sim.set_temperatures([2.5, 1.9, 2.2])
        ref.set_temperatures([2.5, 1.9, 2.2])
        for n in (1, 25):
            _check(sim, ref, n)
        # One per roster change; re-tempering keeps the program.
        assert sim._executor.invalidations == 2

    def test_memory_is_bounded_and_dropped(self):
        sim = _solo(side=32)
        for n in range(1, 71):
            sim.run(n)
        scratch = sim.stream._scratch
        assert scratch["block"] == BLOCK_COUNTERS
        ahead = sim._executor._ahead
        assert ahead._flat.size <= 4 * BLOCK_COUNTERS
        assert ahead._flat.dtype == np.float32
        sim.set_temperatures([2.3])
        assert sim._executor._ahead is ahead
        sim.run(5)
        assert sim._executor._ahead is ahead
        sim.stream = type(sim.stream)(sim.stream.seeds, sim.stream.stream_ids)
        sim.run(1)  # rebinds to the new stream: warm-up only
        assert sim._executor._ahead is None

    @pytest.mark.parametrize("chains", [1, 16])
    def test_dropped_chain_needs_no_cyclic_gc(self, chains):
        gc.collect()
        gc.disable()
        try:
            sim = _ensemble(chains, 16)
            sim.run(10)
            ex = sim._executor
            refs = [weakref.ref(obj) for obj in (ex, ex.trace, ex._ahead._flat)]
            del sim, ex
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()
