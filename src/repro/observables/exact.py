"""Brute-force exact results on tiny lattices.

For lattices with up to ~20 sites the full configuration space (2^N
states) is enumerable, which gives *exact* finite-lattice observables —
the strongest possible correctness oracle for the MCMC updaters — and the
exact one-sweep transition matrix of the checkerboard kernel, which lets
the tests verify the paper's appendix stationarity proof numerically:
``pi P = pi`` for the Boltzmann distribution ``pi``.  For disordered
models, :func:`bond_energies` gives the exact energy of every
configuration under one quenched bond realisation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "enumerate_states",
    "exact_observables",
    "boltzmann_distribution",
    "bond_energies",
    "checkerboard_phase_matrix",
    "checkerboard_sweep_matrix",
]

_MAX_SITES = 20


def _check_shape(shape: tuple[int, int]) -> int:
    rows, cols = shape
    n_sites = rows * cols
    if n_sites > _MAX_SITES:
        raise ValueError(
            f"{rows}x{cols} lattice has {n_sites} sites; enumeration is "
            f"capped at {_MAX_SITES} sites (2^{_MAX_SITES} states)"
        )
    return n_sites


def enumerate_states(shape: tuple[int, int]) -> np.ndarray:
    """All 2^N spin configurations as a float32 array (S, rows, cols).

    State index ``s`` maps to spins via the bits of ``s`` in row-major
    site order: bit 0 is site (0, 0).  Bit value 1 means spin +1.
    """
    rows, cols = shape
    n_sites = _check_shape(shape)
    states = np.arange(1 << n_sites, dtype=np.uint32)
    bits = (states[:, None] >> np.arange(n_sites, dtype=np.uint32)) & np.uint32(1)
    spins = (2.0 * bits.astype(np.float32)) - 1.0
    return spins.reshape(-1, rows, cols)


def _energies(spins: np.ndarray, field: float = 0.0) -> np.ndarray:
    """Total energies of a batch of configurations (S, rows, cols).

    ``field`` adds the paper's Zeeman term ``-h * sum_i sigma_i``.
    """
    nn = (
        np.roll(spins, 1, axis=1)
        + np.roll(spins, -1, axis=1)
        + np.roll(spins, 1, axis=2)
        + np.roll(spins, -1, axis=2)
    )
    bond = -0.5 * np.sum(spins.astype(np.float64) * nn, axis=(1, 2))
    if field:
        bond -= field * np.sum(spins.astype(np.float64), axis=(1, 2))
    return bond


def boltzmann_distribution(
    shape: tuple[int, int], beta: float, field: float = 0.0
) -> np.ndarray:
    """The exact Boltzmann probability of every configuration."""
    spins = enumerate_states(shape)
    energies = _energies(spins, field)
    log_weights = -beta * energies
    log_weights -= log_weights.max()
    weights = np.exp(log_weights)
    return weights / weights.sum()


def bond_energies(couplings) -> np.ndarray:
    """Total energy of every configuration under quenched bond couplings.

    ``couplings`` carries ``(rows, cols)`` planes ``right`` and ``down``
    (a :class:`~repro.core.couplings.BondCouplings`): ``right[i, j]``
    couples site (i, j) to (i, j+1) and ``down[i, j]`` to (i+1, j),
    periodic in both directions.  Entry ``s`` is
    ``E = -sum J_ij sigma_i sigma_j`` of state ``s`` of
    :func:`enumerate_states`, summed bond by bond from the planes, with
    no neighbour-sum kernel, so it shares no code with the sweeps or the
    replica-exchange energies it checks.
    """
    right = np.asarray(couplings.right, dtype=np.float64)
    down = np.asarray(couplings.down, dtype=np.float64)
    rows, cols = right.shape
    spins = enumerate_states((rows, cols)).astype(np.float64)
    energies = np.zeros(spins.shape[0])
    for i in range(rows):
        for j in range(cols):
            site = spins[:, i, j]
            energies -= right[i, j] * site * spins[:, i, (j + 1) % cols]
            energies -= down[i, j] * site * spins[:, (i + 1) % rows, j]
    return energies


def exact_observables(
    shape: tuple[int, int], beta: float, field: float = 0.0
) -> dict[str, float]:
    """Exact thermal averages on a tiny torus.

    Returns ``m`` = <m> (nonzero only with a field), ``abs_m`` = <|m|>,
    ``m2`` = <m^2>, ``m4`` = <m^4>, ``energy_per_spin`` = <E>/N, and the
    Binder cumulant ``u4``.
    """
    spins = enumerate_states(shape)
    n_sites = spins.shape[1] * spins.shape[2]
    pi = boltzmann_distribution(shape, beta, field)
    m = np.mean(spins.astype(np.float64), axis=(1, 2))
    energies = _energies(spins, field)
    m2 = float(np.dot(pi, m * m))
    m4 = float(np.dot(pi, m**4))
    return {
        "m": float(np.dot(pi, m)),
        "abs_m": float(np.dot(pi, np.abs(m))),
        "m2": m2,
        "m4": m4,
        "energy_per_spin": float(np.dot(pi, energies)) / n_sites,
        "u4": 1.0 - m4 / (3.0 * m2 * m2),
    }


def _site_neighbors(shape: tuple[int, int], i: int, j: int) -> list[tuple[int, int]]:
    rows, cols = shape
    return [
        ((i - 1) % rows, j),
        ((i + 1) % rows, j),
        (i, (j - 1) % cols),
        (i, (j + 1) % cols),
    ]


def checkerboard_phase_matrix(
    shape: tuple[int, int], beta: float, color: str, field: float = 0.0
) -> np.ndarray:
    """Exact transition matrix of one colour phase of the checkerboard kernel.

    Row s, column t holds P(state s -> state t) when every site of the
    given colour is independently Metropolis-updated while the opposite
    colour is frozen.  Lattice sides must be even so the colouring is
    consistent on the torus.  ``field`` adds the Zeeman term to the flip
    energies.
    """
    rows, cols = shape
    if rows % 2 or cols % 2:
        raise ValueError(f"lattice sides must be even, got {shape}")
    if color not in ("black", "white"):
        raise ValueError(f"color must be 'black' or 'white', got {color!r}")
    n_sites = _check_shape(shape)
    spins = enumerate_states(shape)
    n_states = spins.shape[0]

    want_parity = 0 if color == "black" else 1
    active = [
        (i, j)
        for i in range(rows)
        for j in range(cols)
        if (i + j) % 2 == want_parity
    ]
    site_bit = {(i, j): i * cols + j for i in range(rows) for j in range(cols)}

    matrix = np.zeros((n_states, n_states), dtype=np.float64)
    for s in range(n_states):
        sigma = spins[s]
        # Flip probability of each active site; neighbours are all of the
        # opposite colour, hence frozen during this phase.
        p_flip = []
        for (i, j) in active:
            nn = sum(sigma[a, b] for (a, b) in _site_neighbors(shape, i, j))
            p_flip.append(
                min(1.0, np.exp(-2.0 * beta * sigma[i, j] * (nn + field)))
            )
        # Enumerate every subset of active sites as the flip pattern.
        for pattern in range(1 << len(active)):
            prob = 1.0
            target = s
            for idx, (i, j) in enumerate(active):
                if (pattern >> idx) & 1:
                    prob *= p_flip[idx]
                    target ^= 1 << site_bit[(i, j)]
                else:
                    prob *= 1.0 - p_flip[idx]
            matrix[s, target] += prob
    return matrix


def checkerboard_sweep_matrix(
    shape: tuple[int, int], beta: float, field: float = 0.0
) -> np.ndarray:
    """Exact transition matrix of one full sweep (black then white phase)."""
    black = checkerboard_phase_matrix(shape, beta, "black", field)
    white = checkerboard_phase_matrix(shape, beta, "white", field)
    return black @ white
