"""2D toroidal mesh topology of TensorCores.

TPU pods connect chips through a dedicated 2D toroidal mesh; every core
has a coordinate and collectives address cores by linear id.  This module
provides the coordinate arithmetic and the source-target pair lists for
the four nearest-neighbour shifts used by the halo exchange — the same
globally-identical specifications every core passes to
``collective_permute`` in the paper's Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Torus2D", "DIRECTIONS"]

#: Shift directions: (row delta, col delta) of the *receiving* core
#: relative to the sender.
DIRECTIONS = {
    "south": (1, 0),
    "north": (-1, 0),
    "east": (0, 1),
    "west": (0, -1),
}


@dataclass(frozen=True)
class Torus2D:
    """A rows x cols torus of cores with linear ids in row-major order."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"torus dimensions must be positive, got {self.rows}x{self.cols}")

    @property
    def num_cores(self) -> int:
        return self.rows * self.cols

    def linear_id(self, row: int, col: int) -> int:
        """Linear id of the core at (row, col), with torus wrap."""
        return (row % self.rows) * self.cols + (col % self.cols)

    def coords(self, core_id: int) -> tuple[int, int]:
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core id {core_id} outside 0..{self.num_cores - 1}")
        return divmod(core_id, self.cols)

    def neighbor(self, core_id: int, direction: str) -> int:
        """Linear id of the adjacent core in the given direction."""
        dr, dc = self._delta(direction)
        row, col = self.coords(core_id)
        return self.linear_id(row + dr, col + dc)

    def shift_pairs(self, direction: str) -> tuple[tuple[int, int], ...]:
        """Source-target pairs sending every core's tensor one hop over.

        ``shift_pairs("south")`` sends each core's data to the core below
        it (so every core *receives from its north*), wrapping at the
        torus edge — the globally identical spec of Fig. 5.
        """
        dr, dc = self._delta(direction)
        return tuple(
            (
                self.linear_id(r, c),
                self.linear_id(r + dr, c + dc),
            )
            for r in range(self.rows)
            for c in range(self.cols)
        )

    def hop_distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two cores on the torus."""
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        dr = abs(r1 - r2)
        dc = abs(c1 - c2)
        return min(dr, self.rows - dr) + min(dc, self.cols - dc)

    def _delta(self, direction: str) -> tuple[int, int]:
        try:
            return DIRECTIONS[direction]
        except KeyError:
            raise ValueError(
                f"unknown direction {direction!r}; expected one of {sorted(DIRECTIONS)}"
            ) from None
