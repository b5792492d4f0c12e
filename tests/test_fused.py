"""Fused sweep engine: bit-identity, workspace reuse, savings telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.backend.tpu_backend import TPUBackend
from repro.core.accept import NN_VALUES, AcceptanceTable
from repro.core.distributed import DistributedIsing
from repro.core.ensemble import EnsembleSimulation
from repro.core.fused import SweepWorkspace, record_fused_metrics
from repro.core.simulation import IsingSimulation, resolve_fused
from repro.core.update import acceptance_ratio
from repro.telemetry import MetricsRegistry, RunTelemetry
from repro.tpu.tensorcore import TensorCore

from .conftest import eager_sweeps

DTYPES = ["float32", "bfloat16"]
UPDATERS = ["checkerboard", "compact", "conv", "masked_conv"]


def _table_probs(backend, beta, field=0.0):
    """The ten elementwise acceptance probabilities, row per chain."""
    sigma = backend.array(np.repeat([-1.0, 1.0], len(NN_VALUES)))
    nn = backend.array(np.tile(NN_VALUES, 2))
    probs = acceptance_ratio(backend, sigma, nn, beta, field=field)
    return np.asarray(probs, dtype=np.float32).reshape(-1, 10)


class TestAcceptanceTable:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("field", [0.0, 0.37])
    def test_scalar_entries_bit_identical_to_elementwise(self, dtype, field):
        backend = NumpyBackend(dtype)
        table = AcceptanceTable(backend, beta=0.44, field=field)
        probs = _table_probs(backend, 0.44, field)[0]
        raw = (5.0 * np.repeat([-1.0, 1.0], 5) + np.tile(NN_VALUES, 2)).astype(int)
        # Scalar tables are addressed through the gather's wrap mode.
        gathered = np.take(table.entries, raw % AcceptanceTable.SLOTS)
        np.testing.assert_array_equal(gathered, probs)
        # Wrap addressing with the raw (possibly negative) index agrees.
        np.testing.assert_array_equal(
            np.take(table.entries, raw, mode="wrap"), probs
        )
        assert table.offsets is None
        assert table.entries.size == AcceptanceTable.SLOTS

    def test_per_chain_layout_and_offsets(self):
        backend = NumpyBackend()
        betas = np.array([0.3, 0.44, 0.6], dtype=np.float32).reshape(3, 1, 1, 1, 1)
        table = AcceptanceTable(backend, beta=betas)
        assert table.entries.size == 3 * AcceptanceTable.SLOTS
        assert table.offsets is not None
        assert table.offsets.shape == betas.shape
        np.testing.assert_array_equal(
            table.offsets.ravel(), [9.0, 9.0 + 19.0, 9.0 + 38.0]
        )
        probs = _table_probs(backend, betas)
        raw = (5.0 * np.repeat([-1.0, 1.0], 5) + np.tile(NN_VALUES, 2)).astype(int)
        for chain in range(3):
            slots = raw + 9 + chain * AcceptanceTable.SLOTS
            np.testing.assert_array_equal(
                np.take(table.entries, slots), probs[chain]
            )

    def test_field_changes_entries(self):
        backend = NumpyBackend()
        plain = AcceptanceTable(backend, beta=0.44)
        shifted = AcceptanceTable(backend, beta=0.44, field=0.37)
        assert not np.array_equal(plain.entries, shifted.entries)
        assert shifted.field == 0.37

    def test_bad_per_chain_beta_shape_raises(self):
        backend = NumpyBackend()
        with pytest.raises(ValueError, match="per-chain beta"):
            AcceptanceTable(backend, beta=np.full((2, 2, 1), 0.44))

    def test_nbytes_counts_entries_and_offsets(self):
        backend = NumpyBackend()
        betas = np.array([0.4, 0.5]).reshape(2, 1, 1, 1, 1)
        table = AcceptanceTable(backend, beta=betas)
        assert table.nbytes == table.entries.nbytes + table.offsets.nbytes
        assert table.n_entries == 2 * AcceptanceTable.SLOTS


class TestBitIdentity:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("updater", UPDATERS)
    def test_solo_fused_matches_elementwise(self, updater, dtype):
        sims = [
            IsingSimulation(
                (16, 16),
                2.2,
                updater=updater,
                backend=NumpyBackend(dtype),
                seed=3,
                fused=fused,
            )
            for fused in (False, True)
        ]
        for sim in sims:
            sim.run(6)
        np.testing.assert_array_equal(sims[0].lattice, sims[1].lattice)
        # Streams stayed aligned too: further sweeps keep agreeing.
        for sim in sims:
            sim.run(3)
        np.testing.assert_array_equal(sims[0].lattice, sims[1].lattice)
        assert sims[0].stream.state() == sims[1].stream.state()

    @pytest.mark.parametrize("updater", ["checkerboard", "compact"])
    def test_solo_fused_with_field(self, updater):
        sims = [
            IsingSimulation(
                (12, 12), 2.2, updater=updater, seed=11, field=0.37, fused=fused
            )
            for fused in (False, True)
        ]
        for sim in sims:
            sim.run(5)
        np.testing.assert_array_equal(sims[0].lattice, sims[1].lattice)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("updater", UPDATERS)
    def test_ensemble_per_chain_beta(self, updater, dtype):
        temps = [1.8, 2.2, 2.6, 3.5]
        sims = [
            EnsembleSimulation(
                (12, 12),
                temps,
                updater=updater,
                backend=NumpyBackend(dtype),
                seed=5,
                fused=fused,
            )
            for fused in (False, True)
        ]
        for sim in sims:
            sim.run(5)
        np.testing.assert_array_equal(sims[0].lattices, sims[1].lattices)

    def test_ensemble_chain_matches_solo_fused(self):
        temps = [1.9, 2.4, 3.1]
        ens = EnsembleSimulation((12, 12), temps, updater="compact", seed=9, fused=True)
        ens.run(4)
        for chain, temp in enumerate(temps):
            solo = IsingSimulation(
                (12, 12),
                temp,
                updater="compact",
                seed=9,
                stream_id=chain,
                fused=True,
            )
            solo.run(4)
            np.testing.assert_array_equal(ens.lattices[chain], solo.lattice)

    @pytest.mark.parametrize("updater", ["compact", "conv"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_distributed_fused_matches_elementwise(self, updater, dtype):
        sims = [
            DistributedIsing(
                (16, 16),
                temperature=2.2,
                core_grid=(2, 2),
                dtype=dtype,
                seed=5,
                updater=updater,
                fused=fused,
            )
            for fused in (False, True)
        ]
        for sim in sims:
            sim.sweep(4)
        np.testing.assert_array_equal(
            sims[0].gather_lattice(), sims[1].gather_lattice()
        )


class TestWorkspaceReuse:
    def test_buffer_identity_and_counters(self):
        ws = SweepWorkspace()
        a = ws.buffer("x", (4, 4))
        b = ws.buffer("x", (4, 4))
        assert a is b
        assert (ws.hits, ws.misses) == (1, 1)
        c = ws.buffer("x", (8, 8))
        assert c is not a
        assert ws.misses == 2
        assert ws.n_buffers == 2
        assert ws.nbytes == a.nbytes + c.nbytes

    def test_constant_cached(self):
        ws = SweepWorkspace()
        calls = []
        first = ws.constant(("k",), lambda: calls.append(1) or np.ones(3))
        second = ws.constant(("k",), lambda: calls.append(1) or np.ones(3))
        assert first is second
        assert calls == [1]

    @pytest.mark.parametrize("updater", UPDATERS)
    def test_zero_steady_state_allocations(self, updater):
        sim = IsingSimulation(
            (16, 16), 2.2, updater=updater, seed=1, fused=True
        )
        sim.run(2)  # warm the workspace
        ws = sim._updater.workspace
        assert ws is not None
        warm_misses = ws.misses
        warm_buffers = ws.n_buffers
        warm_bytes = ws.nbytes
        hits_before = ws.hits
        # The updater's own sweeps: a replay performs no workspace
        # lookups, so only eager sweeps show the allocation contract.
        eager_sweeps(sim, 5)
        # Steady state: every lookup hits, nothing new is allocated.
        assert ws.misses == warm_misses
        assert ws.n_buffers == warm_buffers
        assert ws.nbytes == warm_bytes
        assert ws.hits > hits_before


class TestFusedTelemetry:
    def test_report_carries_fused_flag_and_gauges(self):
        sim = IsingSimulation(
            (16, 16), 2.2, updater="checkerboard", seed=2,
            fused=True, telemetry=RunTelemetry(physics_interval=0),
        )
        sim.run(3)
        report = sim.report()
        assert report.run["fused"] is True
        metrics = report.metrics
        # Checkerboard updates every site in each of the two phases.
        assert metrics["fused_table_hits"]["value"] == 16 * 16 * 2 * 3
        assert metrics["fused_bytes_saved"]["value"] > 0
        assert metrics["fused_workspace_bytes"]["value"] > 0
        assert metrics["fused_workspace_buffers"]["value"] > 0

    def test_elementwise_run_reports_zero_savings(self):
        sim = IsingSimulation(
            (12, 12), 2.2, seed=2, fused=False,
            telemetry=RunTelemetry(physics_interval=0),
        )
        sim.run(2)
        report = sim.report()
        assert report.run["fused"] is False
        assert report.metrics["fused_table_hits"]["value"] == 0
        assert report.metrics["fused_workspace_bytes"]["value"] == 0

    def test_record_fused_metrics_sums_updaters(self):
        registry = MetricsRegistry()
        sims = [
            IsingSimulation((12, 12), 2.2, seed=s, fused=True) for s in (1, 2)
        ]
        for sim in sims:
            sim.run(2)
        record_fused_metrics(registry, *(s._updater for s in sims))
        total = sum(s._updater.workspace.table_hits for s in sims)
        assert registry.gauge("fused_table_hits").value == total


class TestFusedConfig:
    def test_resolve_fused(self):
        assert resolve_fused("auto") == "auto"
        assert resolve_fused(True) is True
        assert resolve_fused(False) is False
        with pytest.raises(ValueError, match="fused"):
            resolve_fused("yes")

    def test_auto_enables_on_numpy_disables_on_tpu(self):
        numpy_sim = IsingSimulation((8, 8), 2.2, seed=1)
        assert numpy_sim.fused is True
        tpu_sim = IsingSimulation(
            (8, 8), 2.2, backend=TPUBackend(TensorCore(0)), seed=1
        )
        assert tpu_sim.fused is False

    def test_tpu_fused_true_is_bit_identical(self):
        sims = [
            IsingSimulation(
                (12, 12), 2.2, backend=TPUBackend(TensorCore(i)), seed=4,
                fused=fused,
            )
            for i, fused in enumerate((False, True))
        ]
        for sim in sims:
            sim.run(4)
        np.testing.assert_array_equal(sims[0].lattice, sims[1].lattice)

    def test_checkpoint_roundtrip_preserves_fused(self):
        sim = IsingSimulation((12, 12), 2.2, seed=6, fused=True)
        sim.run(3)
        state = sim.state_dict()
        assert state["fused"] is True
        resumed = IsingSimulation.from_state_dict(state)
        assert resumed.fused is True
        sim.run(3)
        resumed.run(3)
        np.testing.assert_array_equal(sim.lattice, resumed.lattice)

    def test_checkpoint_roundtrip_preserves_auto(self):
        sim = IsingSimulation((8, 8), 2.2, seed=6)
        state = sim.state_dict()
        assert state["fused"] == "auto"
        resumed = IsingSimulation.from_state_dict(state)
        assert resumed.fused_config == "auto"

    def test_ensemble_checkpoint_roundtrip_preserves_fused(self):
        sim = EnsembleSimulation((8, 8), [2.0, 2.5], seed=3, fused=True)
        sim.run(2)
        state = sim.state_dict()
        assert state["fused"] is True
        resumed = EnsembleSimulation.from_state_dict(state)
        assert resumed.fused is True
        sim.run(2)
        resumed.run(2)
        np.testing.assert_array_equal(sim.lattices, resumed.lattices)
