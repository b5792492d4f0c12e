"""Parallel tempering and disordered couplings.

The layer's contracts, in suite order:

* swap decisions follow the exact two-chain detailed-balance
  probability, bit-for-bit replayable from the dedicated Philox stream;
* swaps move temperature assignments only — the swaps-disabled ladder
  is bit-identical to a plain :class:`EnsembleSimulation`;
* the whole trajectory is a pure function of ``(seed, disorder_seed)``
  and survives a mid-ladder checkpoint, partial swap-stream Philox
  block included;
* ``couplings="ferro"`` with swaps on reproduces Onsager (the swap
  move is a physics no-op for the clean ferromagnet);
* disordered kernels keep the fused ≡ elementwise bit-identity, and
  the bimodal ±J ladder produces sensible spin-glass overlap physics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.couplings import (
    BondCouplings,
    bond_total_energy,
    weighted_neighbor_sum,
)
from repro.core.ensemble import EnsembleSimulation
from repro.core.tempering import (
    SWAP_STREAM_ID,
    TemperingEnsemble,
    swap_acceptance_probability,
)
from repro.observables.binder import replica_overlap, spin_glass_binder
from repro.observables.onsager import spontaneous_magnetization
from repro.rng.streams import PhiloxStream


class TestSwapAcceptanceProbability:
    def test_equal_betas_always_accept(self):
        assert swap_acceptance_probability(0.5, 0.5, -10.0, 40.0) == 1.0

    def test_favourable_swap_always_accepts(self):
        # Colder slot (larger beta) holding the higher energy: delta
        # = (b_i - b_j)(E_i - E_j) > 0 -> certain accept.
        assert swap_acceptance_probability(1.0, 0.5, 10.0, -10.0) == 1.0

    def test_unfavourable_swap_is_exponential(self):
        p = swap_acceptance_probability(1.0, 0.5, -10.0, 10.0)
        assert p == pytest.approx(float(np.exp(-10.0)))

    def test_detailed_balance_ratio(self):
        # p(i<->j) / p(j<->i) = exp(delta) for an unfavourable move and
        # its reverse — the two-chain detailed-balance condition.
        b_i, b_j, e_i, e_j = 0.9, 0.4, -30.0, -26.0
        forward = swap_acceptance_probability(b_i, b_j, e_i, e_j)
        reverse = swap_acceptance_probability(b_i, b_j, e_j, e_i)
        delta = (b_i - b_j) * (e_i - e_j)
        assert forward / reverse == pytest.approx(float(np.exp(delta)))


class TestSwapDecisions:
    def test_decisions_replay_from_the_swap_stream(self):
        """Every swap decision equals the exact two-chain acceptance
        test evaluated with the documented Philox draw — replayed here
        with an independent mirror of stream, energies and pairing."""
        sim = TemperingEnsemble(
            16,
            np.linspace(0.35, 0.55, 5),
            n_replicas=2,
            swap_interval=1,
            seed=13,
        )
        mirror = PhiloxStream(13, SWAP_STREAM_ID)
        for round_idx in range(12):
            parity = round_idx % 2
            pairs = list(range(parity, sim.n_temps - 1, 2))
            energies = sim.ensemble.total_energies()
            uniforms = mirror.uniform((sim.n_replicas, len(pairs)))
            expected = sim.pairing.copy()
            for r in range(sim.n_replicas):
                for p, t in enumerate(pairs):
                    lo, hi = int(expected[r, t]), int(expected[r, t + 1])
                    accept_p = swap_acceptance_probability(
                        sim.betas[t], sim.betas[t + 1],
                        float(energies[lo]), float(energies[hi]),
                    )
                    if float(uniforms[r, p]) < accept_p:
                        expected[r, t], expected[r, t + 1] = hi, lo
            sim.attempt_swaps()
            np.testing.assert_array_equal(sim.pairing, expected)
            sim.ensemble.run(1)

    def test_acceptance_counters_consistent(self):
        sim = TemperingEnsemble(
            16, np.linspace(0.40, 0.46, 4), n_replicas=3,
            swap_interval=2, seed=5,
        )
        sim.run(20)
        assert sim.swap_rounds == 10
        assert sim.swap_attempts == sum(
            3 * len(range(k % 2, 3, 2)) for k in range(10)
        )
        assert 0 <= sim.swap_accepts <= sim.swap_attempts
        assert sim.swap_acceptance == sim.swap_accepts / sim.swap_attempts

    def test_tight_ladder_accepts_swaps(self):
        sim = TemperingEnsemble(
            16, np.linspace(0.40, 0.44, 4), n_replicas=2,
            swap_interval=1, seed=0,
        )
        sim.run(30)
        assert sim.swap_accepts > 0


class TestSwapsDisabledBitIdentity:
    def test_matches_plain_ensemble(self):
        betas = np.linspace(0.35, 0.50, 4)
        sim = TemperingEnsemble(
            16, betas, n_replicas=2, swap_interval=1, seed=3,
            swaps_enabled=False,
        )
        plain = EnsembleSimulation(
            16,
            sim.ensemble.temperatures.copy(),
            seed=3,
        )
        sim.run(25)
        plain.run(25)
        np.testing.assert_array_equal(sim.lattices, plain.lattices)

    def test_split_runs_equal_one_run(self):
        betas = np.linspace(0.40, 0.46, 4)
        a = TemperingEnsemble(16, betas, n_replicas=2, swap_interval=3, seed=7)
        b = TemperingEnsemble(16, betas, n_replicas=2, swap_interval=3, seed=7)
        a.run(14)
        for n in (5, 4, 3, 2):
            b.run(n)
        np.testing.assert_array_equal(a.lattices, b.lattices)
        np.testing.assert_array_equal(a.pairing, b.pairing)
        assert a.swap_rounds == b.swap_rounds
        assert a.swap_accepts == b.swap_accepts


class TestSwapsReplay:
    @pytest.mark.parametrize("updater", ["compact", "masked_conv"])
    def test_replay_between_rounds_matches_elementwise(self, updater):
        """With swaps on, the fused ladder replays between rounds and
        re-records after each accepted one; chains, pairings and swap
        decisions match the never-replayed elementwise ladder."""
        kwargs = dict(
            shape=16, betas=np.linspace(0.40, 0.44, 4), n_replicas=2,
            swap_interval=4, seed=0, updater=updater,
        )
        replayed = TemperingEnsemble(fused=True, **kwargs)
        elementwise = TemperingEnsemble(fused=False, **kwargs)
        replayed.run(40)
        elementwise.run(40)
        executor = replayed.ensemble._executor
        assert replayed.swap_accepts > 0
        assert executor.sweeps_replayed > 0
        assert executor.invalidations > 0  # accepted rounds re-record
        assert elementwise.ensemble._executor is None
        np.testing.assert_array_equal(replayed.lattices, elementwise.lattices)
        np.testing.assert_array_equal(replayed.pairing, elementwise.pairing)
        assert replayed.swap_accepts == elementwise.swap_accepts


class TestDeterminism:
    def test_trajectory_is_a_function_of_seeds(self):
        kwargs = dict(
            shape=16,
            betas=np.linspace(0.40, 0.46, 4),
            n_replicas=2,
            swap_interval=2,
            couplings="bimodal",
            disorder_seed=11,
            updater="masked_conv",
            seed=9,
        )
        a = TemperingEnsemble(**kwargs)
        b = TemperingEnsemble(**kwargs)
        a.run(20)
        b.run(20)
        assert a.swap_accepts == b.swap_accepts
        np.testing.assert_array_equal(a.pairing, b.pairing)
        np.testing.assert_array_equal(a.lattices, b.lattices)

    def test_disorder_seed_changes_trajectory(self):
        base = dict(
            shape=16,
            betas=np.linspace(0.40, 0.46, 3),
            n_replicas=1,
            couplings="bimodal",
            updater="masked_conv",
            seed=9,
        )
        a = TemperingEnsemble(disorder_seed=1, **base)
        b = TemperingEnsemble(disorder_seed=2, **base)
        a.run(10)
        b.run(10)
        assert not np.array_equal(a.lattices, b.lattices)


class TestCheckpointRoundTrip:
    def test_mid_ladder_resume_with_partial_philox_block(self):
        # 3 replicas x 2 pairs = 6 uniforms/round = 1.5 Philox blocks:
        # the restored swap stream must continue from a partial block.
        sim = TemperingEnsemble(
            16,
            np.linspace(0.38, 0.48, 5),
            n_replicas=3,
            swap_interval=2,
            couplings="bimodal",
            disorder_seed=4,
            updater="masked_conv",
            seed=21,
        )
        sim.run(6)
        state = sim.state_dict()
        resumed = TemperingEnsemble.from_state_dict(state)
        sim.run(8)
        resumed.run(8)
        np.testing.assert_array_equal(sim.lattices, resumed.lattices)
        np.testing.assert_array_equal(sim.pairing, resumed.pairing)
        assert sim.swap_rounds == resumed.swap_rounds
        assert sim.swap_accepts == resumed.swap_accepts
        assert sim._swap_stream.state() == resumed._swap_stream.state()

    def test_round_trip_preserves_couplings(self):
        sim = TemperingEnsemble(
            16,
            (0.4, 0.45),
            couplings="gaussian",
            disorder_seed=8,
            updater="masked_conv",
            seed=2,
        )
        sim.run(3)
        resumed = TemperingEnsemble.from_state_dict(sim.state_dict())
        assert resumed.couplings.kind == "gaussian"
        assert resumed.couplings.disorder_seed == 8
        np.testing.assert_array_equal(
            resumed.couplings.right, sim.couplings.right
        )
        np.testing.assert_array_equal(
            resumed.couplings.down, sim.couplings.down
        )


class TestFerroPhysicsNoOp:
    def test_ferro_ladder_reproduces_onsager(self):
        """Swaps on, clean ferromagnet: every ladder slot must still
        sample its own Boltzmann distribution — the ordered-phase slots
        reproduce the Onsager spontaneous magnetization."""
        temps = np.array([1.4, 1.5, 1.6])
        sim = TemperingEnsemble(
            16,
            1.0 / temps,
            n_replicas=2,
            swap_interval=2,
            seed=3,
            initial="cold",
        )
        sim.run(60)
        samples = []
        for _ in range(120):
            sim.run(1)
            samples.append(np.abs(sim.slot_magnetizations()))
        mean_abs_m = np.mean(samples, axis=0)  # (n_replicas, n_temps)
        assert sim.swap_accepts > 0  # the no-op claim needs real swaps
        for t_idx, t in enumerate(temps):
            expected = float(spontaneous_magnetization(float(t)))
            for r in range(sim.n_replicas):
                assert mean_abs_m[r, t_idx] == pytest.approx(
                    expected, abs=0.03
                )


class TestDisorderedKernels:
    @pytest.mark.parametrize("kind", ["bimodal", "gaussian"])
    def test_fused_matches_elementwise(self, kind):
        bonds = BondCouplings.generate(kind, (16, 16), 5)
        runs = []
        for fused in (False, True):
            ens = EnsembleSimulation(
                16,
                [2.0, 2.4],
                updater="masked_conv",
                couplings=bonds,
                seed=7,
                fused=fused,
            )
            ens.run(15)
            runs.append(ens.lattices)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_bimodal_neighbor_sums_stay_even(self):
        bonds = BondCouplings.generate("bimodal", (16, 16), 3)
        ens = EnsembleSimulation(
            16, [2.0], updater="masked_conv", couplings=bonds, seed=1,
        )
        ens.run(5)
        from repro.backend.numpy_backend import NumpyBackend

        backend = NumpyBackend()
        nn = np.asarray(
            weighted_neighbor_sum(
                backend, backend.array(ens.lattices), bonds
            )
        )
        assert set(np.unique(nn)).issubset({-4.0, -2.0, 0.0, 2.0, 4.0})

    def test_energy_consistency_across_kinds(self):
        rng = np.random.default_rng(0)
        lat = np.where(rng.random((3, 8, 8)) < 0.5, -1.0, 1.0).astype(
            np.float32
        )
        ferro = bond_total_energy(lat, None)
        ones = BondCouplings.generate("ferro", (8, 8), 0)
        np.testing.assert_array_equal(ferro, bond_total_energy(lat, ones))
        # Brute-force reference for one disordered realisation.
        bonds = BondCouplings.generate("gaussian", (8, 8), 2)
        ref = np.zeros(3)
        for i in range(8):
            for j in range(8):
                ref -= bonds.right[i, j] * lat[:, i, j] * lat[:, i, (j + 1) % 8]
                ref -= bonds.down[i, j] * lat[:, i, j] * lat[:, (i + 1) % 8, j]
        np.testing.assert_allclose(bond_total_energy(lat, bonds), ref, rtol=1e-12)


class TestSetTemperatures:
    def test_retemper_matches_rebuilt_updater(self):
        """The cheap retemper path (swap the beta, keep the workspace)
        must continue bit-identically to a freshly built ensemble at
        the new temperatures."""
        temps = np.array([2.6, 2.2, 2.0])
        a = EnsembleSimulation(16, temps, seed=5)
        a.run(10)
        swapped = np.array([2.0, 2.2, 2.6])
        a.set_temperatures(swapped)

        b = EnsembleSimulation(16, temps, seed=5)
        b.run(10)
        state = b.state_dict()
        state["temperatures"] = [float(t) for t in swapped]
        state["betas"] = [1.0 / float(t) for t in swapped]
        c = EnsembleSimulation.from_state_dict(state)

        a.run(10)
        c.run(10)
        np.testing.assert_array_equal(a.lattices, c.lattices)

    def test_rejects_bad_shapes_and_values(self):
        ens = EnsembleSimulation(16, [2.0, 2.2], seed=0)
        with pytest.raises(ValueError):
            ens.set_temperatures([2.0])
        with pytest.raises(ValueError):
            ens.set_temperatures([2.0, -1.0])


class TestSpinGlassObservables:
    def test_replica_overlap_bounds_and_symmetry(self):
        rng = np.random.default_rng(1)
        a = np.where(rng.random((8, 8)) < 0.5, -1.0, 1.0)
        b = np.where(rng.random((8, 8)) < 0.5, -1.0, 1.0)
        q = replica_overlap(a, b)
        assert -1.0 <= q <= 1.0
        assert replica_overlap(a, b) == replica_overlap(b, a)
        assert replica_overlap(a, a) == 1.0

    def test_overlap_matrix_shape_and_range(self):
        sim = TemperingEnsemble(
            16,
            (0.3, 0.6, 1.0),
            n_replicas=3,
            couplings="bimodal",
            disorder_seed=2,
            updater="masked_conv",
            seed=4,
        )
        sim.run(5)
        q = sim.replica_overlaps()
        assert q.shape == (3, 3)  # C(3,2) pairs x 3 temps
        assert np.all(np.abs(q) <= 1.0)

    def test_single_replica_has_no_overlaps(self):
        sim = TemperingEnsemble(
            16, (0.4, 0.5), n_replicas=1, seed=0,
        )
        with pytest.raises(ValueError):
            sim.replica_overlaps()

    def test_bimodal_overlap_orders_with_temperature(self):
        """±J spin-glass: deep in the frozen regime |q| is large, in
        the paramagnet it is near zero — the ordering the finite-size
        Binder crossing analysis rests on."""
        sim = TemperingEnsemble(
            8,
            np.linspace(0.2, 1.6, 8),
            n_replicas=2,
            swap_interval=5,
            couplings="bimodal",
            disorder_seed=6,
            updater="masked_conv",
            seed=8,
        )
        q = sim.sample_overlaps(n_samples=80, burn_in=100, thin=2)
        # Tempering must actually mix for the cold slots to freeze.
        assert sim.swap_acceptance > 0.1
        # Slot 0 is beta=0.2 (paramagnet), slot -1 beta=1.6 (frozen).
        q_hot = np.abs(q[:, :, 0]).mean()
        q_cold = np.abs(q[:, :, -1]).mean()
        assert q_cold > q_hot + 0.3
        g_cold = spin_glass_binder(q[:, :, -1])
        g_hot = spin_glass_binder(q[:, :, 0])
        assert g_cold > g_hot

    def test_spin_glass_binder_limits(self):
        # Delta-distributed overlap -> g = 2/3; broad Gaussian -> ~0.
        assert spin_glass_binder(np.full(100, 0.8)) == pytest.approx(2 / 3)
        rng = np.random.default_rng(0)
        g = spin_glass_binder(rng.normal(0.0, 0.3, size=20000))
        assert abs(g) < 0.05


class TestValidation:
    def test_packed_rejects_disorder(self):
        from repro.backend.numpy_backend import NumpyBackend
        from repro.tpu.dtypes import PACKED

        bonds = BondCouplings.generate("bimodal", (128, 128), 0)
        with pytest.raises(ValueError, match="packed"):
            EnsembleSimulation(
                128,
                [2.0],
                updater="masked_conv",
                backend=NumpyBackend(PACKED),
                couplings=bonds,
            )

    def test_non_masked_conv_rejects_disorder(self):
        bonds = BondCouplings.generate("bimodal", (16, 16), 0)
        with pytest.raises(ValueError, match="masked_conv"):
            EnsembleSimulation(16, [2.0], updater="compact", couplings=bonds)

    def test_bad_coupling_kind(self):
        with pytest.raises(ValueError, match="couplings"):
            BondCouplings.generate("antiferro", (8, 8), 0)

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            TemperingEnsemble(16, [])
        with pytest.raises(ValueError):
            TemperingEnsemble(16, [0.4, -0.1])
        with pytest.raises(ValueError):
            TemperingEnsemble(16, [0.4, 0.5], n_replicas=0)
        with pytest.raises(ValueError):
            TemperingEnsemble(16, [0.4, 0.5], swap_interval=0)
