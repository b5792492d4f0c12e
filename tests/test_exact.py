"""Brute-force enumeration oracle tests, including kernel stationarity
and the disordered chains' energy distribution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ModelSpec, SimulationConfig, ensemble
from repro.core.couplings import BondCouplings
from repro.observables.exact import (
    boltzmann_distribution,
    bond_energies,
    checkerboard_phase_matrix,
    checkerboard_sweep_matrix,
    enumerate_states,
    exact_observables,
)
from repro.observables.onsager import internal_energy


def _chi2_critical(dof: int, z: float) -> float:
    """Wilson-Hilferty upper quantile of chi-square at normal deviate z."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * np.sqrt(a)) ** 3


class TestEnumeration:
    def test_state_count_and_values(self):
        spins = enumerate_states((2, 2))
        assert spins.shape == (16, 2, 2)
        assert set(np.unique(spins)) == {-1.0, 1.0}
        # All states distinct.
        assert len({s.tobytes() for s in spins}) == 16

    def test_bit_mapping(self):
        spins = enumerate_states((2, 2))
        # State 0 is all -1; state 1 flips site (0, 0).
        assert np.all(spins[0] == -1.0)
        assert spins[1][0, 0] == 1.0
        assert spins[1][0, 1] == -1.0

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            enumerate_states((5, 5))


class TestBoltzmann:
    def test_normalised(self):
        pi = boltzmann_distribution((2, 4), 0.5)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi > 0)

    def test_ground_states_dominate_at_low_t(self):
        pi = boltzmann_distribution((2, 2), beta=5.0)
        spins = enumerate_states((2, 2))
        up = int(np.argmax([np.all(s == 1) for s in spins]))
        down = int(np.argmax([np.all(s == -1) for s in spins]))
        assert pi[up] + pi[down] > 0.999

    def test_uniform_at_infinite_temperature(self):
        pi = boltzmann_distribution((2, 2), beta=0.0)
        assert np.allclose(pi, 1.0 / 16.0)

    def test_spin_flip_symmetry(self):
        """pi(sigma) = pi(-sigma): complement states have equal weight."""
        pi = boltzmann_distribution((2, 4), 0.7)
        n = pi.size
        complement = (n - 1) - np.arange(n)
        assert np.allclose(pi, pi[complement])


class TestExactObservables:
    def test_symmetries_and_ranges(self):
        obs = exact_observables((4, 4), 0.4)
        assert 0.0 < obs["abs_m"] < 1.0
        assert 0.0 < obs["m2"] < 1.0
        assert obs["m4"] <= obs["m2"]
        assert -2.0 < obs["energy_per_spin"] < 0.0

    def test_low_temperature_limits(self):
        obs = exact_observables((4, 4), 3.0)
        assert obs["abs_m"] == pytest.approx(1.0, abs=1e-3)
        assert obs["energy_per_spin"] == pytest.approx(-2.0, abs=1e-2)
        assert obs["u4"] == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_high_temperature_limits(self):
        obs = exact_observables((4, 4), 0.01)
        assert obs["abs_m"] < 0.3
        assert abs(obs["energy_per_spin"]) < 0.1
        assert obs["u4"] < 0.2

    def test_4x4_energy_tracks_onsager_off_criticality(self):
        """Finite-size corrections are small deep in either phase."""
        for t in (1.2, 5.0):
            obs = exact_observables((4, 4), 1.0 / t)
            assert obs["energy_per_spin"] == pytest.approx(
                float(internal_energy(t)), abs=0.08
            )


class TestCheckerboardKernel:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 4)])
    @pytest.mark.parametrize("beta", [0.1, 0.4407, 1.0])
    def test_phase_matrices_are_stochastic(self, shape, beta):
        for color in ("black", "white"):
            matrix = checkerboard_phase_matrix(shape, beta, color)
            assert np.allclose(matrix.sum(axis=1), 1.0)
            assert matrix.min() >= 0.0

    @pytest.mark.parametrize("shape", [(2, 2), (2, 4)])
    @pytest.mark.parametrize("beta", [0.1, 0.4407, 1.0])
    def test_sweep_kernel_preserves_boltzmann(self, shape, beta):
        """The appendix stationarity proof, verified numerically: pi P = pi."""
        matrix = checkerboard_sweep_matrix(shape, beta)
        pi = boltzmann_distribution(shape, beta)
        assert np.allclose(pi @ matrix, pi, atol=1e-12)

    def test_single_phase_also_preserves_boltzmann(self):
        """Each colour phase alone is stationary (Metropolis-within-Gibbs)."""
        pi = boltzmann_distribution((2, 4), 0.6)
        for color in ("black", "white"):
            matrix = checkerboard_phase_matrix((2, 4), 0.6, color)
            assert np.allclose(pi @ matrix, pi, atol=1e-12)

    def test_side_two_tori_are_reducible(self):
        """Documented degeneracy: on side-2 tori the doubled bonds make
        sigma*nn = 0 sites flip deterministically, so the checkerboard
        chain cannot reach every state from the all-down start — even
        though the Boltzmann distribution is still stationary.  (This is
        a property of the algorithm on degenerate tori, not a bug; the
        4x4 frequency test below verifies ergodic sampling on a
        non-degenerate lattice.)"""
        for shape in [(2, 2), (2, 4)]:
            beta = 0.3
            matrix = checkerboard_sweep_matrix(shape, beta)
            state = np.zeros(matrix.shape[0])
            state[0] = 1.0
            for _ in range(300):
                state = state @ matrix
            assert (state == 0.0).any()
            pi = boltzmann_distribution(shape, beta)
            assert np.allclose(pi @ matrix, pi, atol=1e-12)

    def test_chain_samples_magnetization_with_boltzmann_frequencies(self):
        """Empirical ergodicity on 4x4: the distribution of the total
        magnetization matches exact enumeration across its full support."""
        from repro.core.simulation import IsingSimulation

        beta = 0.35
        spins = enumerate_states((4, 4))
        pi = boltzmann_distribution((4, 4), beta)
        totals = spins.sum(axis=(1, 2))
        support = np.arange(-16, 17, 2)
        exact_pm = np.array([pi[totals == m].sum() for m in support])

        sim = IsingSimulation((4, 4), 1.0 / beta, seed=8)
        sim.run(200)
        counts = np.zeros_like(exact_pm)
        n_sweeps = 20_000
        for _ in range(n_sweeps):
            sim.sweep()
            total = float(sim.lattice.sum())
            counts[int((total + 16) // 2)] += 1
        empirical = counts / n_sweeps
        assert np.max(np.abs(empirical - exact_pm)) < 0.01
        # Every state class with non-trivial weight is actually visited.
        assert np.all(empirical[exact_pm > 0.005] > 0)

    def test_odd_sides_rejected(self):
        with pytest.raises(ValueError, match="even"):
            checkerboard_phase_matrix((3, 4), 0.5, "black")

    def test_bad_color_rejected(self):
        with pytest.raises(ValueError, match="color"):
            checkerboard_phase_matrix((2, 2), 0.5, "blue")


def _equal_probability_bins(energies: np.ndarray, prob: np.ndarray, n_bins: int):
    """Bin index of every state: states sorted by energy, cut into
    ``n_bins`` runs of (nearly) equal exact probability."""
    order = np.argsort(energies, kind="stable")
    before = np.cumsum(prob[order]) - prob[order]
    bins = np.empty(energies.size, dtype=np.intp)
    bins[order] = np.minimum((before * n_bins).astype(np.intp), n_bins - 1)
    return bins


class TestDisorderedChains:
    """Masked-conv chains on a disorder realisation against exact enumeration.

    The energy of every 4x4 configuration comes from an explicit bond
    sum over the ``right`` / ``down`` planes (``bond_energies``), which
    shares no code with the weighted neighbour sums the chains sweep
    with, so a bond-plane orientation error common to both engines
    shows up as a wrong energy distribution.  A +/-J realisation has a
    few dozen energy levels, binned one per level; gaussian bonds give
    every state its own energy, so the 65,536 states are binned by
    energy into 16 bins of equal exact probability.
    """

    SIDE = 4
    TEMPERATURE = 2.0
    N_CHAINS = 256
    #: The energy's integrated autocorrelation time is about one sweep
    #: here, so samples this far apart are close to independent.
    THIN = 4
    N_SAMPLES = 100
    GAUSSIAN_BINS = 16

    def test_bond_energies_of_ferro_planes_are_the_clean_model(self):
        ferro = BondCouplings.generate("ferro", (4, 4))
        spins = enumerate_states((4, 4))
        clean = -np.sum(
            spins * (np.roll(spins, 1, 1) + np.roll(spins, 1, 2)), axis=(1, 2)
        )
        np.testing.assert_array_equal(bond_energies(ferro), clean)

    @pytest.mark.parametrize("fused", [False, True], ids=["elementwise", "fused"])
    def test_bimodal_energy_histogram_is_boltzmann(self, fused):
        self._check_energy_histogram("bimodal", fused)

    @pytest.mark.parametrize("fused", [False, True], ids=["elementwise", "fused"])
    def test_gaussian_energy_histogram_is_boltzmann(self, fused):
        self._check_energy_histogram("gaussian", fused)

    def _check_energy_histogram(self, couplings: str, fused: bool) -> None:
        model = ModelSpec(couplings=couplings, disorder_seed=3)
        config = SimulationConfig(
            shape=self.SIDE, temperature=self.TEMPERATURE,
            updater="masked_conv", model=model, seed=11, fused=fused,
        )
        chains = ensemble(config, n_chains=self.N_CHAINS)
        assert chains.backend.dtype.name == "float32"
        assert chains.fused is fused
        energies = bond_energies(
            BondCouplings.generate(couplings, self.SIDE, model.disorder_seed)
        )
        weights = np.exp(-(energies - energies.min()) / self.TEMPERATURE)
        prob = weights / weights.sum()
        if couplings == "bimodal":
            bin_of_state = np.unique(energies, return_inverse=True)[1]
        else:
            bin_of_state = _equal_probability_bins(
                energies, prob, self.GAUSSIAN_BINS
            )
        exact = np.bincount(bin_of_state, weights=prob)

        # State s of enumerate_states has spin +1 where bit i of s is set.
        bit = 1 << np.arange(self.SIDE * self.SIDE)
        chains.run(20)
        states = []
        for _ in range(self.N_SAMPLES):
            chains.run(self.THIN)
            up = chains.lattices.reshape(self.N_CHAINS, -1) > 0
            states.append(up @ bit)
        states = np.concatenate(states)
        observed = np.bincount(bin_of_state[states], minlength=exact.size)
        expected = exact * states.size

        # Pool the improbable high-energy bins into one bin that
        # expects at least 5 counts.
        tail = np.cumsum(expected[::-1])[::-1]
        cut = int(np.nonzero(tail >= 5.0)[0].max())
        observed = np.append(observed[:cut], observed[cut:].sum())
        expected = np.append(expected[:cut], expected[cut:].sum())
        assert expected.min() >= 5.0 and expected.size >= 6
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        # p = 1e-4 upper tail.
        assert chi2 < _chi2_critical(expected.size - 1, 3.719), (
            chi2, observed, expected.round(1)
        )
