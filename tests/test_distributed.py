"""Distributed SPMD pod simulation tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import RollUpdater
from repro.core.distributed import DistributedIsing
from repro.core.lattice import random_lattice
from repro.rng import PhiloxStream
from repro.tpu.device import PodSlice

from .conftest import make_lattice


def _reference_sweep(plain, beta, u_black, u_white):
    return RollUpdater(beta).sweep(plain.copy(), probs_black=u_black, probs_white=u_white)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError, match="not divisible"):
            DistributedIsing((16, 16), 2.0, core_grid=(3, 2))
        with pytest.raises(ValueError, match="even sides"):
            DistributedIsing((4, 6), 2.0, core_grid=(2, 2))
        with pytest.raises(ValueError, match="temperature"):
            DistributedIsing((8, 8), 0.0, core_grid=(2, 2))
        with pytest.raises(ValueError, match="core grid"):
            DistributedIsing((8, 8), 2.0, core_grid=(0, 2))
        with pytest.raises(ValueError, match="updater"):
            DistributedIsing((8, 8), 2.0, core_grid=(2, 2), updater="wolff")

    def test_pod_grid_must_match(self):
        pod = PodSlice((2, 2))
        with pytest.raises(ValueError, match="pod core grid"):
            DistributedIsing((8, 8), 2.0, core_grid=(1, 2), pod=pod)

    def test_initial_lattice_scattered_and_gathered(self):
        plain = make_lattice((16, 24))
        d = DistributedIsing((16, 24), 2.0, core_grid=(2, 3), initial=plain)
        assert np.array_equal(d.gather_lattice(), plain)

    def test_cold_and_hot_starts(self):
        cold = DistributedIsing((8, 8), 2.0, core_grid=(2, 2), initial="cold")
        assert cold.magnetization() == 1.0
        hot = DistributedIsing((32, 32), 2.0, core_grid=(2, 2), initial="hot", seed=1)
        assert abs(hot.magnetization()) < 0.3
        with pytest.raises(ValueError, match="initial"):
            DistributedIsing((8, 8), 2.0, core_grid=(2, 2), initial="warm")

    def test_num_cores_and_sites(self):
        d = DistributedIsing((16, 16), 2.0, core_grid=(2, 4))
        assert d.num_cores == 8
        assert d.n_sites == 256
        assert d.local_shape == (8, 4)


class TestEquivalenceWithSingleCore:
    @pytest.mark.parametrize("core_grid", [(1, 1), (2, 2), (2, 3), (4, 2), (1, 4)])
    def test_one_sweep_bitwise(self, core_grid):
        shape = (16, 24)
        beta = 0.44
        stream = PhiloxStream(55, 0)
        plain = random_lattice(shape, stream)
        u_black = stream.uniform(shape)
        u_white = stream.uniform(shape)
        reference = _reference_sweep(plain, beta, u_black, u_white)
        d = DistributedIsing(shape, 1.0 / beta, core_grid=core_grid, initial=plain)
        d.sweep(1, probs_black=u_black, probs_white=u_white)
        assert np.array_equal(d.gather_lattice(), reference)

    @pytest.mark.parametrize("updater", ["compact", "conv"])
    def test_multi_sweep_bitwise(self, updater):
        shape = (16, 16)
        beta = 0.5
        stream = PhiloxStream(77, 0)
        plain = random_lattice(shape, stream)
        state = plain.copy()
        d = DistributedIsing(
            shape, 1.0 / beta, core_grid=(2, 2), initial=plain, updater=updater
        )
        for _ in range(5):
            u_black = stream.uniform(shape)
            u_white = stream.uniform(shape)
            state = _reference_sweep(state, beta, u_black, u_white)
            d.sweep(1, probs_black=u_black, probs_white=u_white)
        assert np.array_equal(d.gather_lattice(), state)

    def test_stochastic_chain_is_reproducible(self):
        a = DistributedIsing((16, 16), 2.3, core_grid=(2, 2), seed=4)
        b = DistributedIsing((16, 16), 2.3, core_grid=(2, 2), seed=4)
        a.sweep(4)
        b.sweep(4)
        assert np.array_equal(a.gather_lattice(), b.gather_lattice())

    def test_probs_validation(self):
        d = DistributedIsing((8, 8), 2.0, core_grid=(2, 2))
        with pytest.raises(ValueError, match="n_sweeps == 1"):
            d.sweep(2, probs_black=np.zeros((8, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="probs shape"):
            d.sweep(1, probs_black=np.zeros((4, 4), dtype=np.float32))


class TestAccounting:
    def test_step_time_and_breakdown(self):
        d = DistributedIsing((32, 32), 2.0, core_grid=(2, 2), seed=5)
        with pytest.raises(RuntimeError, match="no sweeps"):
            d.step_time()
        d.sweep(2)
        assert d.step_time() > 0.0
        assert d.throughput_flips_per_ns() > 0.0
        breakdown = d.breakdown()
        assert set(breakdown) == {"mxu", "vpu", "formatting", "communication"}
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown["communication"] > 0.0

    def test_collectives_executed_per_sweep(self):
        d = DistributedIsing((16, 16), 2.0, core_grid=(2, 2))
        d.sweep(3)
        # 4 halo permutes per colour phase, 2 phases per sweep.
        assert d.runtime.collectives_executed == 3 * 8

    def test_bfloat16_distributed(self):
        d = DistributedIsing((16, 16), 2.3, core_grid=(2, 2), dtype="bfloat16", seed=6)
        d.sweep(3)
        assert set(np.unique(d.gather_lattice())) <= {-1.0, 1.0}

    def test_energy_and_magnetization(self):
        d = DistributedIsing((16, 16), 1.0, core_grid=(2, 2), initial="cold")
        assert d.energy_per_spin() == -2.0
        d.sweep(3)
        assert d.magnetization() > 0.9


class TestDistributedCheckpoint:
    def test_resume_is_bit_identical(self):
        sim = DistributedIsing(16, 2.0, core_grid=(2, 2), seed=7)
        sim.sweep(3)
        state = sim.state_dict()
        assert state["schema"] == "checkpoint/v2"
        assert state["kind"] == "distributed"
        assert "fused" not in state  # the pod has one engine
        sim.sweep(4)
        resumed = DistributedIsing.from_state_dict(state)
        resumed.sweep(4)
        assert resumed.sweeps_done == sim.sweeps_done
        assert np.array_equal(resumed.gather_lattice(), sim.gather_lattice())
