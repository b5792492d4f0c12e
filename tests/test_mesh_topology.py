"""2D torus topology tests."""

from __future__ import annotations

import pytest

from repro.mesh.topology import DIRECTIONS, Torus2D


@pytest.fixture(params=["flat"])
def make_torus(request):
    """Build a torus; the wrap-around / edge-case invariants of
    ``shift_pairs`` and ``hop_distance`` below run against it."""
    return Torus2D


class TestCoordinates:
    def test_linear_id_roundtrip(self):
        torus = Torus2D(3, 4)
        for cid in range(12):
            row, col = torus.coords(cid)
            assert torus.linear_id(row, col) == cid

    def test_wrapping(self):
        torus = Torus2D(3, 4)
        assert torus.linear_id(-1, 0) == torus.linear_id(2, 0)
        assert torus.linear_id(0, 4) == torus.linear_id(0, 0)
        assert torus.linear_id(3, -1) == torus.linear_id(0, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Torus2D(0, 4)
        with pytest.raises(ValueError, match="outside"):
            Torus2D(2, 2).coords(4)


class TestNeighbors:
    def test_directions(self):
        torus = Torus2D(3, 3)
        center = torus.linear_id(1, 1)
        assert torus.neighbor(center, "north") == torus.linear_id(0, 1)
        assert torus.neighbor(center, "south") == torus.linear_id(2, 1)
        assert torus.neighbor(center, "west") == torus.linear_id(1, 0)
        assert torus.neighbor(center, "east") == torus.linear_id(1, 2)

    def test_torus_wrap(self):
        torus = Torus2D(2, 3)
        assert torus.neighbor(torus.linear_id(0, 0), "north") == torus.linear_id(1, 0)
        assert torus.neighbor(torus.linear_id(0, 2), "east") == torus.linear_id(0, 0)

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            Torus2D(2, 2).neighbor(0, "up")

    def test_single_core_neighbors_itself(self):
        torus = Torus2D(1, 1)
        for direction in DIRECTIONS:
            assert torus.neighbor(0, direction) == 0


class TestShiftPairs:
    def test_pairs_are_a_permutation(self):
        torus = Torus2D(3, 4)
        for direction in DIRECTIONS:
            pairs = torus.shift_pairs(direction)
            sources = [s for s, _ in pairs]
            targets = [t for _, t in pairs]
            assert sorted(sources) == list(range(12))
            assert sorted(targets) == list(range(12))

    def test_south_shift_semantics(self):
        torus = Torus2D(2, 2)
        pairs = dict(torus.shift_pairs("south"))
        # Core (0, 0) sends to (1, 0); (1, 0) wraps to (0, 0).
        assert pairs[torus.linear_id(0, 0)] == torus.linear_id(1, 0)
        assert pairs[torus.linear_id(1, 0)] == torus.linear_id(0, 0)

    def test_opposite_shifts_invert(self):
        torus = Torus2D(3, 5)
        south = dict(torus.shift_pairs("south"))
        north = dict(torus.shift_pairs("north"))
        for src, dst in south.items():
            assert north[dst] == src


class TestHopDistance:
    def test_shortest_path_wraps(self):
        torus = Torus2D(4, 4)
        assert torus.hop_distance(torus.linear_id(0, 0), torus.linear_id(3, 0)) == 1
        assert torus.hop_distance(torus.linear_id(0, 0), torus.linear_id(2, 2)) == 4
        assert torus.hop_distance(5, 5) == 0

    def test_symmetric(self):
        torus = Torus2D(3, 7)
        for a in range(0, 21, 5):
            for b in range(0, 21, 4):
                assert torus.hop_distance(a, b) == torus.hop_distance(b, a)


class TestShiftPairsEdgeCases:
    """Wrap-around invariants of the torus."""

    def test_degenerate_axis_self_sends(self, make_torus):
        # On a 1 x n torus, north/south shifts wrap every core onto itself.
        torus = make_torus(1, 4)
        for direction in ("north", "south"):
            assert all(s == t for s, t in torus.shift_pairs(direction))
        for s, t in torus.shift_pairs("east"):
            assert t == torus.neighbor(s, "east")

    def test_two_wide_axis_shifts_invert_themselves(self, make_torus):
        # With exactly two cores along an axis, the wrap makes opposite
        # shifts identical: everyone swaps with the same partner.
        torus = make_torus(2, 6)
        assert torus.shift_pairs("south") == torus.shift_pairs("north")

    def test_pairs_are_a_permutation(self, make_torus):
        torus = make_torus(4, 6)
        n = torus.num_cores
        for direction in DIRECTIONS:
            pairs = torus.shift_pairs(direction)
            assert sorted(s for s, _ in pairs) == list(range(n))
            assert sorted(t for _, t in pairs) == list(range(n))

    def test_every_shift_moves_one_hop(self, make_torus):
        torus = make_torus(4, 6)
        for direction in DIRECTIONS:
            for src, dst in torus.shift_pairs(direction):
                assert torus.hop_distance(src, dst) in (0, 1)
                assert dst == torus.neighbor(src, direction)


class TestHopDistanceEdgeCases:
    """Wrap-around invariants of the torus."""

    def test_wrap_beats_direct_path(self, make_torus):
        torus = make_torus(6, 8)
        # Last row/col to first is one wrapped hop, not size - 1.
        assert torus.hop_distance(torus.linear_id(5, 0), torus.linear_id(0, 0)) == 1
        assert torus.hop_distance(torus.linear_id(0, 7), torus.linear_id(0, 0)) == 1

    def test_diameter(self, make_torus):
        torus = make_torus(4, 6)
        far = torus.linear_id(2, 3)
        assert torus.hop_distance(0, far) == 2 + 3
        assert all(
            torus.hop_distance(0, cid) <= 5 for cid in range(torus.num_cores)
        )

    def test_triangle_inequality_across_wrap(self, make_torus):
        torus = make_torus(4, 4)
        for a in range(torus.num_cores):
            for b in range(torus.num_cores):
                via = torus.neighbor(a, "east")
                assert torus.hop_distance(a, b) <= 1 + torus.hop_distance(via, b)
