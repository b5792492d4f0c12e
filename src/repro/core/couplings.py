"""Quenched per-bond couplings: the spin-glass workload family.

The paper's engine simulates the clean ferromagnet (J = 1 on every
bond).  The high-value production workloads of the rack-scale GPU Ising
literature (Fang et al., arXiv:2502.18624; the peapods exemplar) are
*disordered* models: each lattice bond carries its own quenched coupling
J_ij, drawn once per experiment from a disorder distribution and then
frozen for the whole chain ensemble.

:class:`BondCouplings` is that frozen realisation: two ``(rows, cols)``
float32 planes, ``right[i, j]`` on the bond (i, j)-(i, j+1) and
``down[i, j]`` on the bond (i, j)-(i+1, j), periodic in both directions.
Three kinds are supported:

* ``"ferro"`` — J = +1 everywhere (the clean model; updaters treat this
  as the no-couplings fast path, so physics and bit-streams are exactly
  the undisordered engine's);
* ``"bimodal"`` — J = ±1 with equal probability (the Edwards-Anderson
  ±J spin glass).  The weighted neighbour sum still takes the five
  values {-4, -2, 0, 2, 4}, so the fused engine's acceptance-table
  gather applies unchanged;
* ``"gaussian"`` — J ~ N(0, 1) (the Gaussian EA model); neighbour sums
  are continuous, so acceptance falls back to the elementwise ``exp``
  (still allocation-free and traceable through the ``*_into`` path).

Determinism: the bond planes are drawn from a dedicated
:class:`~repro.rng.streams.PhiloxStream` keyed by ``(disorder_seed,
DISORDER_STREAM_ID)``, so a disorder realisation is a pure function of
its seed — checkpoints store only ``(kind, disorder_seed)`` and
regenerate the arrays bit-identically on resume.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import Backend
from ..rng.streams import PhiloxStream

__all__ = [
    "COUPLING_KINDS",
    "DISORDER_STREAM_ID",
    "BondCouplings",
    "weighted_neighbor_sum",
    "weighted_neighbor_sum_into",
    "bond_total_energy",
    "bond_energy_per_spin",
]

#: Supported disorder distributions.
COUPLING_KINDS = ("ferro", "bimodal", "gaussian")

#: Reserved Philox stream id for bond draws ("TEMP"-adjacent constant,
#: spelled "JBND"); chain streams use small ids (0..B-1), so disorder
#: draws can never collide with a chain's uniform sequence.
DISORDER_STREAM_ID = 0x4A424E44


class BondCouplings:
    """One quenched disorder realisation of per-bond couplings.

    Attributes
    ----------
    kind:
        One of :data:`COUPLING_KINDS`.
    disorder_seed:
        The seed the realisation was drawn from (checkpoint token).
    shape:
        Lattice ``(rows, cols)`` the bond planes cover.
    right, down:
        Float32 ``(rows, cols)`` coupling planes: ``right[i, j]`` sits on
        the bond to the right neighbour ``(i, j+1 mod cols)`` and
        ``down[i, j]`` on the bond to the lower neighbour
        ``(i+1 mod rows, j)`` — every torus bond appears exactly once.
    """

    def __init__(
        self,
        kind: str,
        disorder_seed: int,
        right: np.ndarray,
        down: np.ndarray,
    ) -> None:
        if kind not in COUPLING_KINDS:
            raise ValueError(
                f"unknown couplings kind {kind!r}; expected one of {COUPLING_KINDS}"
            )
        right = np.ascontiguousarray(np.asarray(right, dtype=np.float32))
        down = np.ascontiguousarray(np.asarray(down, dtype=np.float32))
        if right.ndim != 2 or right.shape != down.shape:
            raise ValueError(
                f"bond planes must be matching 2D arrays, got right "
                f"{right.shape} / down {down.shape}"
            )
        self.kind = kind
        self.disorder_seed = int(disorder_seed)
        self.right = right
        self.down = down
        self.shape = right.shape
        # Device tensors per dtype name (the four broadcastable planes the
        # weighted neighbour sum reads), built lazily on first use.
        self._device: dict[str, dict[str, np.ndarray]] = {}

    def __repr__(self) -> str:
        return (
            f"BondCouplings(kind={self.kind!r}, shape={self.shape}, "
            f"disorder_seed={self.disorder_seed})"
        )

    @classmethod
    def generate(
        cls,
        kind: str,
        shape: "int | tuple[int, int]",
        disorder_seed: int = 0,
    ) -> "BondCouplings":
        """Draw one disorder realisation for a ``(rows, cols)`` lattice.

        The draw consumes one ``(2, rows, cols)`` uniform tensor from
        ``PhiloxStream(disorder_seed, DISORDER_STREAM_ID)`` for every
        kind (gaussian consumes a second for the Box-Muller angle), so
        realisations are bit-reproducible from ``(kind, shape,
        disorder_seed)`` on any platform.
        """
        if kind not in COUPLING_KINDS:
            raise ValueError(
                f"unknown couplings kind {kind!r}; expected one of {COUPLING_KINDS}"
            )
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape), int(shape))
        rows, cols = (int(shape[0]), int(shape[1]))
        if rows < 1 or cols < 1:
            raise ValueError(f"lattice shape must be positive, got {shape}")
        if kind == "ferro":
            plane = np.ones((rows, cols), dtype=np.float32)
            return cls(kind, disorder_seed, plane, plane.copy())
        stream = PhiloxStream(disorder_seed, DISORDER_STREAM_ID)
        u = stream.uniform((2, rows, cols)).astype(np.float64)
        if kind == "bimodal":
            bonds = np.where(u < 0.5, -1.0, 1.0)
        else:  # gaussian, via Box-Muller (1 - u keeps the log argument in (0, 1])
            theta = stream.uniform((2, rows, cols)).astype(np.float64)
            radius = np.sqrt(-2.0 * np.log1p(-u))
            bonds = radius * np.cos(2.0 * np.pi * theta)
        return cls(kind, disorder_seed, bonds[0], bonds[1])

    def device_arrays(self, backend: Backend) -> dict[str, np.ndarray]:
        """The four direction planes as backend tensors, cached per dtype.

        ``right`` / ``down`` are the stored planes; ``left`` / ``up`` are
        their periodic rolls (``left[i, j] = right[i, j-1]``), so the
        weighted neighbour sum needs no rolls of the couplings at sweep
        time.  Materialised through ``backend.array`` so bfloat16
        backends quantise the couplings exactly once.  ``backend.array``
        books no modeled time and depends only on the storage dtype, so
        every backend of one dtype (a recording proxy included) shares
        the planes.
        """
        name = backend.dtype.name
        arrays = self._device.get(name)
        if arrays is None:
            arrays = {
                "right": backend.array(self.right),
                "left": backend.array(np.roll(self.right, 1, axis=1)),
                "down": backend.array(self.down),
                "up": backend.array(np.roll(self.down, 1, axis=0)),
            }
            self._device[name] = arrays
        return arrays

    def state_token(self) -> dict:
        """The checkpoint token (the arrays regenerate from it)."""
        return {"kind": self.kind, "disorder_seed": self.disorder_seed}


def _check_lattice_shape(plain: np.ndarray, couplings: BondCouplings) -> None:
    if tuple(plain.shape[-2:]) != tuple(couplings.shape):
        raise ValueError(
            f"lattice shape {tuple(plain.shape[-2:])} does not match bond "
            f"coupling shape {tuple(couplings.shape)}"
        )


def weighted_neighbor_sum(
    backend: Backend, plain: np.ndarray, couplings: BondCouplings
) -> np.ndarray:
    """``nn_J(i) = sum_j J_ij sigma_j`` over the four torus neighbours.

    The allocating (elementwise-path) form; accepts a single ``(rows,
    cols)`` lattice or a batched ``(B, rows, cols)`` stack (the 2D bond
    planes broadcast over the chain axis — disorder is quenched, shared
    by every chain).  With ferro couplings this equals the plain
    4-neighbour sum, evaluated through the roll sequence rather than the
    conv kernel — callers keep the conv fast path for the clean model.
    """
    _check_lattice_shape(plain, couplings)
    bonds = couplings.device_arrays(backend)
    ax_r, ax_c = plain.ndim - 2, plain.ndim - 1
    nn = backend.multiply(backend.roll(plain, -1, ax_c), bonds["right"])
    nn = backend.add(nn, backend.multiply(backend.roll(plain, 1, ax_c), bonds["left"]))
    nn = backend.add(nn, backend.multiply(backend.roll(plain, -1, ax_r), bonds["down"]))
    nn = backend.add(nn, backend.multiply(backend.roll(plain, 1, ax_r), bonds["up"]))
    return nn


def weighted_neighbor_sum_into(
    backend: Backend,
    plain: np.ndarray,
    couplings: BondCouplings,
    workspace,
) -> np.ndarray:
    """Workspace-backed twin of :func:`weighted_neighbor_sum`.

    Runs the same multiply/add sequence through the ``*_into``
    vocabulary (every op replayable by the traced executor), so fused
    disordered sweeps are bit-identical to the elementwise path and
    allocate nothing in steady state.  Returns the workspace's ``nn``
    buffer.
    """
    _check_lattice_shape(plain, couplings)
    bonds = couplings.device_arrays(backend)
    ax_r, ax_c = plain.ndim - 2, plain.ndim - 1
    nn = workspace.buffer("bond_nn", plain.shape)
    tmp = workspace.buffer("bond_roll_tmp", plain.shape)
    prod = workspace.buffer("bond_prod", plain.shape)
    backend.roll_into(plain, -1, ax_c, tmp)
    backend.multiply_into(tmp, bonds["right"], nn)
    backend.roll_into(plain, 1, ax_c, tmp)
    backend.multiply_into(tmp, bonds["left"], prod)
    backend.add_into(nn, prod, nn)
    backend.roll_into(plain, -1, ax_r, tmp)
    backend.multiply_into(tmp, bonds["down"], prod)
    backend.add_into(nn, prod, nn)
    backend.roll_into(plain, 1, ax_r, tmp)
    backend.multiply_into(tmp, bonds["up"], prod)
    backend.add_into(nn, prod, nn)
    return nn


def bond_total_energy(
    plain: np.ndarray,
    couplings: "BondCouplings | None" = None,
    field: float = 0.0,
) -> "float | np.ndarray":
    """Total ``H = -sum_<ij> J_ij sigma_i sigma_j - h sum_i sigma_i``.

    Accepts one ``(rows, cols)`` lattice (returns a float) or a batched
    ``(B, rows, cols)`` stack (returns a float64 ``(B,)`` vector — the
    form the replica-exchange swap test consumes).  ``couplings=None``
    means the clean ferromagnet (J = 1), where this reduces to
    :func:`~repro.observables.energy.total_energy` plus the field term.
    Each torus bond is counted exactly once via the two forward
    directions, matching the stored ``right`` / ``down`` planes.

    For the integer-valued kinds (ferro, bimodal) the bond products are
    +/-1, so they are computed in float32 and accumulated in float64 —
    every partial sum is an exact small integer, making the fast path
    bit-identical to all-float64 arithmetic (asserted by the suite).
    This keeps the replica-exchange swap test — one call per swap round
    — well under the benchmark's 5% bookkeeping budget.  Gaussian
    couplings stay in float64 throughout.
    """
    sigma32 = np.asarray(plain, dtype=np.float32)
    if sigma32.ndim not in (2, 3):
        raise ValueError(
            f"expected a (rows, cols) lattice or (B, rows, cols) stack, "
            f"got shape {sigma32.shape}"
        )
    ax_r, ax_c = sigma32.ndim - 2, sigma32.ndim - 1
    axes = (ax_r, ax_c)
    if couplings is not None and couplings.kind == "gaussian":
        _check_lattice_shape(sigma32, couplings)
        sigma = sigma32.astype(np.float64)
        nn_forward = np.roll(sigma, -1, axis=ax_c) * couplings.right.astype(np.float64)
        nn_down = np.roll(sigma, -1, axis=ax_r) * couplings.down.astype(np.float64)
        total = -np.sum(sigma * (nn_forward + nn_down), axis=axes)
    else:
        # Slice-wise einsum: the torus splits into interior bonds plus
        # one wrap row/column, avoiding the np.roll copy of the whole
        # stack.  All products are exact +/-1 (or +/-J with bimodal's
        # +/-1 planes), summed in float64.
        batched = sigma32.ndim == 3
        s = sigma32 if batched else sigma32[np.newaxis]
        if couplings is not None and couplings.kind != "ferro":
            _check_lattice_shape(sigma32, couplings)
            j_right, j_down = couplings.right, couplings.down
            total = -(
                np.einsum("brc,rc,brc->b", s[:, :, :-1], j_right[:, :-1],
                          s[:, :, 1:], dtype=np.float64)
                + np.einsum("br,r,br->b", s[:, :, -1], j_right[:, -1],
                            s[:, :, 0], dtype=np.float64)
                + np.einsum("brc,rc,brc->b", s[:, :-1, :], j_down[:-1, :],
                            s[:, 1:, :], dtype=np.float64)
                + np.einsum("bc,c,bc->b", s[:, -1, :], j_down[-1, :],
                            s[:, 0, :], dtype=np.float64)
            )
        else:
            total = -(
                np.einsum("brc,brc->b", s[:, :, :-1], s[:, :, 1:],
                          dtype=np.float64)
                + np.einsum("br,br->b", s[:, :, -1], s[:, :, 0],
                            dtype=np.float64)
                + np.einsum("brc,brc->b", s[:, :-1, :], s[:, 1:, :],
                            dtype=np.float64)
                + np.einsum("bc,bc->b", s[:, -1, :], s[:, 0, :],
                            dtype=np.float64)
            )
        if not batched:
            total = total[0]
    if field != 0.0:
        total = total - float(field) * np.sum(
            sigma32, axis=axes, dtype=np.float64
        )
    if sigma32.ndim == 2:
        return float(total)
    return np.asarray(total, dtype=np.float64)


def bond_energy_per_spin(
    plain: np.ndarray,
    couplings: "BondCouplings | None" = None,
    field: float = 0.0,
) -> "float | np.ndarray":
    """:func:`bond_total_energy` divided by the site count."""
    sigma = np.asarray(plain)
    n_sites = sigma.shape[-2] * sigma.shape[-1]
    total = bond_total_energy(sigma, couplings, field=field)
    if isinstance(total, float):
        return total / n_sites
    return total / n_sites
