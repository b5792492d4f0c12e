"""Lattice representations and exact layout conversions.

The paper stores the spin lattice in three layouts:

* **plain** — a 2D array ``(rows, cols)`` of spins in {-1, +1} on a torus;
* **grid** — a rank-4 tensor ``[m, n, r, c]``: an ``m x n`` grid of
  ``r x c`` sub-lattices (``r = c = 128`` on TPU, to match MXU registers
  and HBM tiling); ``grid[i, j]`` is the sub-lattice at grid position
  ``(i, j)``.  The batched ensemble adds a leading chain axis — the
  rank-5 form ``[batch, m, n, r, c]`` — and the kernels and updaters
  broadcast over it;
* **compact** — Figure 3-(2): the four interleaved sub-lattices
  ``sigma00 = sigma[0::2, 0::2]`` etc., each kept in grid form.  ``sigma00``
  and ``sigma11`` hold all *black* spins, ``sigma01`` and ``sigma10`` all
  *white* spins (colour = parity of row+col).

All conversions are exact inverses of each other, which the property-based
tests verify on random lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng.streams import PhiloxStream

__all__ = [
    "random_lattice",
    "cold_lattice",
    "validate_spins",
    "initial_lattice",
    "plain_to_grid",
    "grid_to_plain",
    "plain_to_quarters",
    "quarters_to_plain",
    "checkerboard_mask",
    "CompactLattice",
]


def random_lattice(
    shape: tuple[int, int], stream: PhiloxStream, p_up: float = 0.5
) -> np.ndarray:
    """A hot (disordered) start: each spin +1 with probability ``p_up``."""
    rows, cols = shape
    if rows <= 0 or cols <= 0:
        raise ValueError(f"lattice shape must be positive, got {shape}")
    u = stream.uniform((rows, cols))
    return np.where(u < p_up, 1.0, -1.0).astype(np.float32)


def cold_lattice(shape: tuple[int, int], value: int = 1) -> np.ndarray:
    """A cold (fully ordered) start with every spin equal to ``value``."""
    if value not in (1, -1):
        raise ValueError(f"spin value must be +1 or -1, got {value}")
    return np.full(shape, float(value), dtype=np.float32)


def validate_spins(plain: np.ndarray) -> None:
    """Raise if the array is not a valid +/-1 spin lattice."""
    if plain.ndim != 2:
        raise ValueError(f"expected a 2D lattice, got shape {plain.shape}")
    if not np.all(np.abs(plain) == 1.0):
        bad = np.unique(plain[np.abs(plain) != 1.0])
        raise ValueError(f"spins must be +/-1; found values {bad[:8]}")


def initial_lattice(
    shape: tuple[int, int], initial: "str | np.ndarray", stream: PhiloxStream
) -> np.ndarray:
    """A chain's plain starting lattice: ``"hot"`` draws it from
    ``stream``, ``"cold"`` is all up, and an explicit +/-1 array is
    checked against ``shape`` and used as given."""
    if isinstance(initial, str):
        if initial == "hot":
            return random_lattice(shape, stream)
        if initial == "cold":
            return cold_lattice(shape)
        raise ValueError(
            f"initial must be 'hot', 'cold' or an array, got {initial!r}"
        )
    plain = np.asarray(initial, dtype=np.float32)
    if plain.shape != tuple(shape):
        raise ValueError(f"initial lattice shape {plain.shape} != {tuple(shape)}")
    validate_spins(plain)
    return plain


def plain_to_grid(plain: np.ndarray, block_shape: tuple[int, int]) -> np.ndarray:
    """Split a plain lattice into an ``[m, n, r, c]`` grid of blocks.

    Leading batch axes pass through: ``(B, rows, cols)`` chains become
    the rank-5 ``[B, m, n, r, c]`` grid, and likewise in the converters
    below.
    """
    *lead, rows, cols = plain.shape
    r, c = block_shape
    if r <= 0 or c <= 0:
        raise ValueError(f"block shape must be positive, got {block_shape}")
    if rows % r or cols % c:
        raise ValueError(
            f"lattice shape {plain.shape} not divisible by block shape {block_shape}"
        )
    m, n = rows // r, cols // c
    return np.ascontiguousarray(
        plain.reshape(*lead, m, r, n, c).swapaxes(-3, -2)
    )


def grid_to_plain(grid: np.ndarray) -> np.ndarray:
    """Inverse of :func:`plain_to_grid`."""
    if grid.ndim < 4:
        raise ValueError(f"expected a rank-4 grid, got shape {grid.shape}")
    *lead, m, n, r, c = grid.shape
    return np.ascontiguousarray(
        grid.swapaxes(-3, -2).reshape(*lead, m * r, n * c)
    )


def plain_to_quarters(
    plain: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extract the four interleaved quarters (sigma00, sigma01, sigma10, sigma11).

    ``sigma_xy`` holds the spins at rows ``x mod 2`` and columns
    ``y mod 2``; the lattice must have even dimensions so every quarter has
    the same shape.
    """
    rows, cols = plain.shape[-2:]
    if rows % 2 or cols % 2:
        raise ValueError(f"lattice shape must be even, got {plain.shape}")
    return (
        np.ascontiguousarray(plain[..., 0::2, 0::2]),
        np.ascontiguousarray(plain[..., 0::2, 1::2]),
        np.ascontiguousarray(plain[..., 1::2, 0::2]),
        np.ascontiguousarray(plain[..., 1::2, 1::2]),
    )


def quarters_to_plain(
    q00: np.ndarray, q01: np.ndarray, q10: np.ndarray, q11: np.ndarray
) -> np.ndarray:
    """Inverse of :func:`plain_to_quarters`."""
    for name, q in (("q01", q01), ("q10", q10), ("q11", q11)):
        if q.shape != q00.shape:
            raise ValueError(f"{name} shape {q.shape} != q00 shape {q00.shape}")
    *lead, h, w = q00.shape
    plain = np.empty((*lead, 2 * h, 2 * w), dtype=np.float32)
    plain[..., 0::2, 0::2] = q00
    plain[..., 0::2, 1::2] = q01
    plain[..., 1::2, 0::2] = q10
    plain[..., 1::2, 1::2] = q11
    return plain


def checkerboard_mask(shape: tuple[int, int], color: str = "black") -> np.ndarray:
    """The binary mask ``M`` of the paper: 1 on sites of the given colour.

    Black sites are those with even (row + col) parity — the convention
    under which sigma00/sigma11 are black.
    """
    if color not in ("black", "white"):
        raise ValueError(f"color must be 'black' or 'white', got {color!r}")
    rows, cols = shape
    parity = (np.add.outer(np.arange(rows), np.arange(cols)) % 2).astype(np.float32)
    black = 1.0 - parity
    return black if color == "black" else parity


@dataclass
class CompactLattice:
    """The compact representation of Figure 3-(2), in grid form.

    Attributes ``s00``, ``s01``, ``s10``, ``s11`` are each ``[m, n, r, c]``
    grids over the corresponding H x W quarter of the ``(2H, 2W)`` plain
    lattice.  Black spins live in (s00, s11); white in (s01, s10).

    A rank-5 ``[batch, m, n, r, c]`` form is also accepted: the leading
    axis indexes independent ensemble chains sharing one lattice geometry
    (see :class:`~repro.core.ensemble.EnsembleSimulation`), and every
    kernel addresses the grid axes from the right so the chain axis
    broadcasts through untouched.
    """

    s00: np.ndarray
    s01: np.ndarray
    s10: np.ndarray
    s11: np.ndarray

    def __post_init__(self) -> None:
        shape = self.s00.shape
        if len(shape) not in (4, 5):
            raise ValueError(
                f"compact tensors must be rank 4 (or 5 when batched), got shape {shape}"
            )
        for name in ("s01", "s10", "s11"):
            other = getattr(self, name).shape
            if other != shape:
                raise ValueError(f"{name} shape {other} != s00 shape {shape}")

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.s00.shape

    @property
    def plain_shape(self) -> tuple[int, int]:
        m, n, r, c = self.s00.shape[-4:]
        return 2 * m * r, 2 * n * c

    @property
    def n_sites(self) -> int:
        rows, cols = self.plain_shape
        return rows * cols

    @classmethod
    def from_plain(
        cls, plain: np.ndarray, block_shape: tuple[int, int] | None = None
    ) -> "CompactLattice":
        """Build the compact grid form from a plain +/-1 lattice.

        ``block_shape`` is the (r, c) of each compact block; the default is
        one block spanning the whole quarter (fine off-TPU, where there is
        no 128-alignment constraint).  A ``(batch, rows, cols)`` stack of
        chains yields the batched rank-5 form.
        """
        q00, q01, q10, q11 = plain_to_quarters(plain)
        if block_shape is None:
            block_shape = q00.shape[-2:]
        return cls(
            s00=plain_to_grid(q00, block_shape),
            s01=plain_to_grid(q01, block_shape),
            s10=plain_to_grid(q10, block_shape),
            s11=plain_to_grid(q11, block_shape),
        )

    def to_plain(self) -> np.ndarray:
        """Reassemble the plain lattice (exact inverse).

        Returns ``(2H, 2W)`` for the unbatched form and
        ``(batch, 2H, 2W)`` for the batched form.
        """
        return quarters_to_plain(
            grid_to_plain(self.s00),
            grid_to_plain(self.s01),
            grid_to_plain(self.s10),
            grid_to_plain(self.s11),
        )

    def copy(self) -> "CompactLattice":
        return CompactLattice(
            self.s00.copy(), self.s01.copy(), self.s10.copy(), self.s11.copy()
        )

    def black(self) -> tuple[np.ndarray, np.ndarray]:
        """The two black compact sub-lattices (s00, s11)."""
        return self.s00, self.s11

    def white(self) -> tuple[np.ndarray, np.ndarray]:
        """The two white compact sub-lattices (s01, s10)."""
        return self.s01, self.s10
