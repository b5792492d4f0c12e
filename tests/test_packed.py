"""The packed multi-spin engine: bit-identity, physics, checkpoints, costs.

``dtype="packed"`` promotes the bit-packed baseline to a first-class
engine (``repro.core.packed``).  The contracts asserted here are the
ones ``docs/packed_engine.md`` documents: bit-identity against the
unpacked chains on shared uniforms (the CI invariant), the 16-bit
stream against an independent twin, Onsager-validated physics,
word-level checkpoint round trips that refuse to cross-load with
unpacked checkpoints or another draw width, traced replay, the refusal
of the TPU cost-model backend, the ``packed_*`` telemetry gauges, and
honest scheduler keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SimulationConfig, distributed, load, simulate
from repro.backend import NumpyBackend
from repro.backend.packed_ops import packed_threshold, site_values_u16
from repro.backend.tpu_backend import TPUBackend
from repro.baselines.multispin import MultispinUpdater
from repro.core import (
    CheckerboardUpdater,
    EnsembleSimulation,
    IsingSimulation,
    PackedState,
    PackedUpdater,
    plain_to_grid,
    plain_to_quarters,
    grid_to_plain,
)
from repro.core.traced import record_traced_metrics
from repro.rng import PhiloxStream
from repro.rng.streams import BatchedPhiloxStream
from repro.sched.cache import canonical_cache_key
from repro.sched.coalesce import compat_key
from repro.telemetry import MetricsRegistry, RunTelemetry
from repro.tpu.dtypes import PACKED, resolve_dtype
from repro.tpu.tensorcore import TensorCore

from .conftest import OracleStream, eager_sweeps, make_lattice


def packed_backend() -> NumpyBackend:
    return NumpyBackend(PACKED)


# -- dtype plumbing ----------------------------------------------------------


class TestPackedDtype:
    def test_resolves_by_name(self):
        assert resolve_dtype("packed") is PACKED
        assert PACKED.name == "packed"
        assert PACKED.itemsize == 8

    def test_quantize_is_passthrough(self):
        words = np.array([1, 2], dtype=np.uint64)
        assert PACKED.quantize(words) is words or np.array_equal(
            PACKED.quantize(words), words
        )


# -- low-level kernels -------------------------------------------------------


class TestKernels:
    def test_packed_threshold_is_exact_ceiling(self):
        threshold, saturate = packed_threshold(np.float32(0.25))
        assert threshold == 2**14 and threshold.dtype == np.uint16
        assert saturate == 0
        # ceil(1.0 * 2**16) does not fit a lane: the saturation word
        # carries it.
        threshold, saturate = packed_threshold(np.float32(1.0))
        assert threshold == 0xFFFF and saturate == np.uint64(2**64 - 1)
        with pytest.raises(ValueError, match="outside"):
            packed_threshold(np.float32(1.5))

    def test_site_values_u16_lanes(self):
        bits = np.array([0x0002_0001, 0xFFFF_0003], dtype=np.uint32)
        lanes = site_values_u16(bits, (2, 2))
        assert np.array_equal(lanes.ravel(), [1, 2, 3, 0xFFFF])

    def test_bits_into_matches_random_bits(self):
        # Both draws against the allocating oracle, not each other: both
        # run the in-place generator.
        a, b, oracle = PhiloxStream(9, 4), PhiloxStream(9, 4), OracleStream(9, 4)
        out = np.empty(96, dtype=np.uint32)
        a.bits_into(out)
        expected = oracle.random_bits(96)
        assert np.array_equal(out, expected)
        assert np.array_equal(b.random_bits(96), expected)
        assert a.counter == b.counter == oracle.counter

    def test_batched_bits_into_per_chain_identity(self):
        oracles = [OracleStream(3, sid) for sid in (0, 5)]
        batched = BatchedPhiloxStream.from_streams(
            [PhiloxStream(3, sid) for sid in (0, 5)]
        )
        out = np.empty((2, 64), dtype=np.uint32)
        batched.bits_into(out)
        for b, oracle in enumerate(oracles):
            assert np.array_equal(out[b], oracle.random_bits(64))
        assert batched.counters == [o.counter for o in oracles]


class TestComparePackOracle:
    """``packed_compare_pack_into`` against ``np.packbits`` of the compare.

    Lanes hold 0, 1, T-1, T, 0xFFFE and 0xFFFF at known sites;
    thresholds come from ``packed_threshold``, as the engine derives
    them, so T == 2**16 runs through the saturation word.
    """

    @staticmethod
    def _lanes(shape, thresholds, seed):
        top = 0xFFFF
        lanes = np.random.default_rng(seed).integers(
            0, top + 1, size=shape, dtype=np.uint16
        )
        for chain, T in zip(lanes.reshape((-1,) + shape[-2:]), thresholds):
            crafted = [v for v in (0, 1, T - 1, T, top - 1, top) if 0 <= v <= top]
            for row, value in enumerate(crafted):
                chain[row, 5 + 17 * row] = value
        return lanes

    @staticmethod
    def _compare_pack(values, threshold, saturate):
        out = np.empty(values.shape[:-1] + (values.shape[-1] // 64,), np.uint64)
        cmp = np.empty(values.shape, bool)
        byte_plane = np.empty(values.shape[:-1] + (values.shape[-1] // 8,), np.uint8)
        packed_backend().packed_compare_pack_into(
            values, threshold, saturate, out, cmp, byte_plane
        )
        return out

    @staticmethod
    def _expected(mask):
        return np.packbits(mask, axis=-1, bitorder="little").view("<u8")

    @pytest.mark.parametrize("T", [0, 1, 2**15, 0xFFFF, 2**16])
    def test_solo_u16_thresholds(self, T):
        t = np.float32(T / 2**16)  # exact, so packed_threshold gives T back
        threshold, saturate = packed_threshold(t)
        assert threshold.dtype == np.uint16 and threshold.shape == ()
        lanes = self._lanes((8, 128), [T], seed=T)
        words = self._compare_pack(lanes, threshold, saturate)
        assert np.array_equal(words, self._expected(lanes.astype(np.int64) < T))

    def test_batch_mixes_per_chain_thresholds(self):
        Ts = np.array([0, 2**15, 2**16])
        threshold, saturate = packed_threshold((Ts / 2**16).astype(np.float32))
        lanes = self._lanes((3, 8, 128), Ts, seed=3)
        words = self._compare_pack(
            lanes, threshold.reshape(3, 1, 1), saturate.reshape(3, 1, 1)
        )
        expected = self._expected(lanes.astype(np.int64) < Ts.reshape(3, 1, 1))
        assert np.array_equal(words, expected)

    @pytest.mark.parametrize("t", [0.0, 2.0**-24, 0.5, 1.0 - 2.0**-24, 1.0])
    def test_float32_probs(self, t):
        t = np.float32(t)
        probs = np.random.default_rng(1).random((8, 128), dtype=np.float32)
        below = np.nextafter(t, np.float32(0))
        probs[0, :4] = [0.0, below, t, np.float32(1.0 - 2.0**-24)]
        words = self._compare_pack(probs, t, np.uint64(0))
        assert np.array_equal(words, self._expected(probs < t))


# -- bit-identity (the CI invariant) -----------------------------------------


class TestBitIdentity:
    def test_probs_path_matches_checkerboard_chain(self):
        """Packed == unpacked checkerboard (Alg. 1) on shared per-site uniforms."""
        shape, beta, block = (8, 256), 0.44, (8, 256)
        plain = make_lattice(shape, seed=11)
        stream = PhiloxStream(2, 0)

        cb = CheckerboardUpdater(beta, NumpyBackend(), block_shape=block)
        grid = plain_to_grid(plain, block)
        packed = PackedUpdater(beta)
        pstate = packed.to_state(plain)

        for _ in range(6):
            u_black = stream.uniform(shape)
            u_white = stream.uniform(shape)
            grid = cb.sweep(
                grid,
                probs_black=plain_to_grid(u_black, block),
                probs_white=plain_to_grid(u_white, block),
            )
            qb, qw = plain_to_quarters(u_black), plain_to_quarters(u_white)
            pstate = packed.sweep(
                pstate,
                probs_black=(qb[0], qb[3]),
                probs_white=(qw[1], qw[2]),
            )
            assert np.array_equal(grid_to_plain(grid), packed.to_plain(pstate))

    def test_probs_path_matches_multispin_baseline(self):
        plain = make_lattice((8, 128), seed=3)
        baseline, packed = MultispinUpdater(0.6), PackedUpdater(0.6)
        b_state, p_state = baseline.to_state(plain), packed.to_state(plain)
        rng = np.random.default_rng(0)
        quarter = (4, 64)
        for _ in range(5):
            probs = [rng.random(quarter, dtype=np.float32) for _ in range(4)]
            b_state = baseline.sweep(
                b_state,
                probs_black=tuple(probs[:2]),
                probs_white=tuple(probs[2:]),
            )
            p_state = packed.sweep(
                p_state,
                probs_black=tuple(probs[:2]),
                probs_white=tuple(probs[2:]),
            )
            assert np.array_equal(
                baseline.to_plain(b_state), packed.to_plain(p_state)
            )

    def test_ensemble_chains_match_solo_runs(self):
        ens = EnsembleSimulation(
            128, [1.8, 2.6], backend=packed_backend(), seed=13
        )
        ens.run(8)
        for b, temp in enumerate([1.8, 2.6]):
            solo = IsingSimulation(
                128, temp, backend=packed_backend(), seed=13, stream_id=b
            )
            solo.run(8)
            assert np.array_equal(ens.lattices[b], solo.lattice)

    def test_traced_replay_equals_eager(self):
        traced = IsingSimulation(128, 2.2, backend=packed_backend(), seed=1)
        eager = IsingSimulation(128, 2.2, backend=packed_backend(), seed=1)
        traced.run(12)
        eager_sweeps(eager, 12)
        assert traced._executor.sweeps_replayed == 10
        assert np.array_equal(traced.lattice, eager.lattice)

    def test_checkerboard_updater_name_runs_same_engine(self):
        compact = IsingSimulation(128, 2.2, backend=packed_backend(), seed=2)
        checker = IsingSimulation(
            128, 2.2, updater="checkerboard", backend=packed_backend(), seed=2
        )
        compact.run(5)
        checker.run(5)
        assert np.array_equal(compact.lattice, checker.lattice)

    def test_steady_state_workspace_is_stable(self):
        sim = IsingSimulation(128, 2.2, backend=packed_backend(), seed=4)
        sim.run(3)
        ws = sim._updater.workspace
        buffers = ws.n_buffers
        eager_sweeps(sim, 5)  # replays skip the lookups under test
        assert ws.n_buffers == buffers


class TestStream16Oracle:
    """The 16-bit stream mode against an independent twin.

    The twin is the unpacked multi-spin baseline fed ``lanes * 2**-16``,
    with the lanes split arithmetically from its own oracle stream
    (``OracleStream`` in ``tests/conftest.py``) in Algorithm 2's draw
    order.  ``lanes * 2**-16 < t`` holds exactly when
    ``lanes < ceil(t * 2**16)``, so the chains must agree bit for bit,
    at the ends too: T = 3e5 puts the k == 1 threshold at 2**16, 1e6
    both, and 0.05 puts the k == 0 threshold at 0.
    """

    TEMPERATURES = (2.269, 3e5, 1e6, 0.05)

    @staticmethod
    def _twin_sweep(twin, state, stream):
        rows, cols = state.quarter_shape

        def probs():
            words = stream.random_bits(rows * cols // 2)
            lanes = np.stack([words & 0xFFFF, words >> 16], axis=-1)
            return lanes.reshape(rows, cols).astype(np.float32) * np.float32(2.0**-16)

        black = (probs(), probs())
        white = (probs(), probs())
        return twin.sweep(state, probs_black=black, probs_white=white)

    def test_temperatures_reach_both_ends(self):
        """(lane threshold, saturated) of the k == 1 and k == 0 cases."""
        ends = {}
        for T in self.TEMPERATURES[1:]:
            (t1, s1), (t0, s0) = PackedUpdater(1.0 / T)._stream_cases
            ends[T] = ((int(t1), bool(s1)), (int(t0), bool(s0)))
        assert ends == {
            3e5: ((0xFFFF, True), (0xFFFF, False)),
            1e6: ((0xFFFF, True), (0xFFFF, True)),
            0.05: ((1, False), (0, False)),
        }

    @pytest.mark.parametrize("T", TEMPERATURES)
    def test_solo_chain_matches_twin_every_sweep(self, T):
        plain = make_lattice((128, 128), seed=17)
        sim = IsingSimulation(
            128, T, backend=packed_backend(), seed=4, initial=plain
        )
        twin = MultispinUpdater(1.0 / T)
        state, stream = twin.to_state(plain), OracleStream(4, 0)
        for _ in range(8):
            sim.run(1)
            state = self._twin_sweep(twin, state, stream)
            assert np.array_equal(sim.lattice, twin.to_plain(state))
        assert sim.stream.counters == [stream.counter]
        assert sim._executor.sweeps_replayed == 6

    def test_ensemble_retempers_into_and_out_of_the_ends(self):
        plain = make_lattice((128, 128), seed=23)
        schedule = [
            (2.269, 3e5, 0.05),
            (1e6, 0.05, 2.269),
            (0.05, 1e6, 3e5),
            (2.269, 3e5, 0.05),
        ]
        ens = EnsembleSimulation(
            128, schedule[0], backend=packed_backend(), seed=9, initial=plain
        )
        held = [a for case in ens._updater._stream_cases for a in case]
        assert [a.dtype for a in held] == [np.uint16, np.uint64] * 2
        states = [MultispinUpdater.to_state(plain) for _ in range(3)]
        streams = [OracleStream(9, b) for b in range(3)]
        for step, temps in enumerate(schedule):
            if step:  # the first round records; the rest re-temper it
                ens.set_temperatures(temps)
            twins = [MultispinUpdater(1.0 / T) for T in temps]
            for _ in range(3):
                ens.run(1)
                for b, twin in enumerate(twins):
                    states[b] = self._twin_sweep(twin, states[b], streams[b])
                    assert np.array_equal(ens.lattices[b], twin.to_plain(states[b]))
        # retemper rewrote the recorded threshold arrays in place.
        after = [a for case in ens._updater._stream_cases for a in case]
        assert all(x is y for x, y in zip(after, held))
        registry = MetricsRegistry()
        record_traced_metrics(registry, ens._executor)
        assert registry.gauge("traced_invalidations").value == 0
        assert registry.gauge("traced_sweeps_replayed").value == 10


# -- physics -----------------------------------------------------------------


class TestPhysics:
    def test_ordered_phase_onsager(self):
        sim = IsingSimulation(
            128, 1.5, backend=packed_backend(), seed=3, initial="cold"
        )
        sim.run(300)
        # Onsager: m(T=1.5) = 0.9865; stream-mode fluctuations stay close.
        assert abs(sim.magnetization()) == pytest.approx(0.9865, abs=0.02)

    def test_disordered_phase(self):
        sim = IsingSimulation(128, 3.0, backend=packed_backend(), seed=5)
        sim.run(300)
        assert abs(sim.magnetization()) < 0.1


# -- checkpoints -------------------------------------------------------------


class TestCheckpoints:
    def test_mid_run_resume_is_bit_identical(self):
        sim = IsingSimulation(128, 2.2, backend=packed_backend(), seed=8)
        sim.run(7)
        resumed = IsingSimulation.from_state_dict(sim.state_dict())
        assert resumed.packed
        sim.run(9)
        resumed.run(9)
        assert np.array_equal(sim.lattice, resumed.lattice)

    def test_checkpoint_stores_word_planes(self):
        sim = IsingSimulation(128, 2.2, backend=packed_backend(), seed=8)
        sim.run(2)
        payload = sim.state_dict()["packed"]
        assert payload["word_bits"] == 64
        assert payload["bit_order"] == "little"
        assert payload["rng_bits"] == 16
        assert payload["words"]["w00"].dtype == np.uint64
        assert payload["words"]["w00"].shape == (64, 1)

    def test_unpacked_checkpoint_refuses_packed_load(self):
        state = IsingSimulation(128, 2.2, seed=1).state_dict()
        with pytest.raises(ValueError, match="cannot resume as dtype='packed'"):
            IsingSimulation.from_state_dict(state, backend=packed_backend())

    def test_packed_checkpoint_refuses_unpacked_load(self):
        state = IsingSimulation(
            128, 2.2, backend=packed_backend(), seed=1
        ).state_dict()
        with pytest.raises(ValueError, match="cannot resume on an unpacked"):
            IsingSimulation.from_state_dict(state, backend=NumpyBackend())

    @pytest.mark.parametrize("rng_bits", [32, 8])
    def test_foreign_rng_bits_are_refused(self, rng_bits):
        """A checkpoint naming another draw width is refused, not
        resumed on a stream it was not drawn from."""
        solo = IsingSimulation(128, 2.2, backend=packed_backend(), seed=1)
        ens = EnsembleSimulation(128, [2.0, 2.4], backend=packed_backend(), seed=6)
        for sim in (solo, ens):
            state = sim.state_dict()
            state["packed"]["rng_bits"] = rng_bits
            with pytest.raises(ValueError, match=f"draws {rng_bits} bits"):
                type(sim).from_state_dict(state)
            with pytest.raises(ValueError, match=f"draws {rng_bits} bits"):
                load(state)

    def test_foreign_word_layout_rejected(self):
        sim = IsingSimulation(128, 2.2, backend=packed_backend(), seed=1)
        state = sim.state_dict()
        state["packed"]["word_bits"] = 32
        with pytest.raises(ValueError, match="word layout"):
            IsingSimulation.from_state_dict(state)

    def test_ensemble_resume_and_refusals(self):
        ens = EnsembleSimulation(
            128, [2.0, 2.4], backend=packed_backend(), seed=6
        )
        ens.run(4)
        state = ens.state_dict()
        resumed = EnsembleSimulation.from_state_dict(state)
        ens.run(4)
        resumed.run(4)
        assert np.array_equal(ens.lattices, resumed.lattices)
        with pytest.raises(ValueError, match="cannot resume on an unpacked"):
            EnsembleSimulation.from_state_dict(state, backend=NumpyBackend())
        unpacked = EnsembleSimulation(128, [2.0, 2.4], seed=6).state_dict()
        with pytest.raises(ValueError, match="cannot resume as dtype='packed'"):
            EnsembleSimulation.from_state_dict(
                unpacked, backend=packed_backend()
            )


# -- rejected configurations -------------------------------------------------


class TestRejections:
    @pytest.mark.parametrize("updater", ["conv", "masked_conv"])
    def test_conv_updaters_rejected(self, updater):
        with pytest.raises(ValueError, match="no packed kernels"):
            SimulationConfig(shape=128, dtype="packed", updater=updater)
        with pytest.raises(ValueError, match="no packed kernels"):
            IsingSimulation(
                128, 2.2, updater=updater, backend=packed_backend()
            )

    def test_field_rejected(self):
        with pytest.raises(ValueError, match="field=0.0"):
            SimulationConfig(shape=128, dtype="packed", field=0.2)
        with pytest.raises(ValueError, match="field=0.0"):
            IsingSimulation(128, 2.2, backend=packed_backend(), field=0.2)

    def test_block_shape_rejected(self):
        with pytest.raises(ValueError, match="block_shape"):
            SimulationConfig(shape=128, dtype="packed", block_shape=(32, 32))
        with pytest.raises(ValueError, match="block_shape"):
            IsingSimulation(
                128, 2.2, backend=packed_backend(), block_shape=(32, 32)
            )

    def test_narrow_lattice_rejected(self):
        with pytest.raises(ValueError, match="multiple of 128"):
            IsingSimulation(64, 2.2, backend=packed_backend())
        with pytest.raises(ValueError, match="multiple of 128"):
            EnsembleSimulation(64, [2.2], backend=packed_backend())

    def test_fused_false_rejected(self):
        with pytest.raises(ValueError, match="no elementwise path"):
            SimulationConfig(shape=128, dtype="packed", fused=False)
        with pytest.raises(ValueError, match="no elementwise path"):
            IsingSimulation(128, 2.2, backend=packed_backend(), fused=False)

    def test_distributed_rejected(self):
        with pytest.raises(ValueError, match="does not support dtype='packed'"):
            distributed(SimulationConfig(shape=128, dtype="packed", grid=(2, 2)))

    def test_tpu_backend_rejected(self):
        # The TPU cost model has no pricing for word kernels: refused by
        # name when the config is built, by the drivers and on load.
        tpu_packed = lambda: TPUBackend(TensorCore(core_id=0), PACKED)  # noqa: E731
        with pytest.raises(ValueError, match="backend='tpu'"):
            SimulationConfig(shape=128, dtype="packed", backend="tpu")
        with pytest.raises(ValueError, match="backend='tpu'"):
            SimulationConfig(shape=128, dtype="packed", backend=tpu_packed())
        with pytest.raises(ValueError, match="backend='tpu'"):
            IsingSimulation(128, 2.2, backend=tpu_packed())
        with pytest.raises(ValueError, match="backend='tpu'"):
            EnsembleSimulation(128, [2.0, 2.4], backend=tpu_packed())
        for state in (
            IsingSimulation(128, 2.2, backend=packed_backend()).state_dict(),
            EnsembleSimulation(128, [2.2], backend=packed_backend()).state_dict(),
        ):
            state["backend"] = "tpu"
            with pytest.raises(ValueError, match="backend='tpu'"):
                load(state)

    def test_updater_field_validation(self):
        with pytest.raises(ValueError, match="no field support"):
            PackedUpdater(0.44, field=0.1)
        with pytest.raises(ValueError, match="beta"):
            PackedUpdater(-1.0)


# -- telemetry ---------------------------------------------------------------


class TestTelemetry:
    def test_report_carries_packed_gauges(self):
        # The packed workspace is reported by the fused engine's one
        # workspace gauge pair, like every other engine's scratch.
        telemetry = RunTelemetry()
        sim = IsingSimulation(
            128, 2.2, backend=packed_backend(), seed=1, telemetry=telemetry,
        )
        sim.run(5)
        metrics = sim.report().metrics
        workspace = sim._updater.workspace
        assert metrics["fused_workspace_bytes"]["value"] == workspace.nbytes > 0
        assert metrics["fused_workspace_buffers"]["value"] == workspace.n_buffers > 0
        assert not [name for name in metrics if name.startswith("packed_")]


# -- scheduler key honesty ---------------------------------------------------


class TestSchedulerKeys:
    def test_compat_key_separates_packed(self):
        base = SimulationConfig(shape=128, temperature=2.2, seed=1)
        packed = SimulationConfig(
            shape=128, temperature=2.2, seed=1, dtype="packed"
        )
        assert compat_key(base) != compat_key(packed)

    def test_cache_key_separates_packed(self):
        base = SimulationConfig(shape=128, temperature=2.2, seed=1)
        packed = SimulationConfig(
            shape=128, temperature=2.2, seed=1, dtype="packed"
        )
        assert canonical_cache_key(base, 100) != canonical_cache_key(packed, 100)


# -- api surface -------------------------------------------------------------


class TestApi:
    def test_simulate_builds_packed_engine(self):
        sim = simulate(SimulationConfig(shape=128, dtype="packed", seed=1))
        assert sim.packed and sim.fused
        assert isinstance(sim._updater, PackedUpdater)
        assert isinstance(sim._state, PackedState)

    def test_report_run_dtype_is_packed(self):
        sim = simulate(
            SimulationConfig(shape=128, dtype="packed", seed=1, telemetry=True)
        )
        sim.run(1)
        assert sim.report().run["dtype"] == "packed"
