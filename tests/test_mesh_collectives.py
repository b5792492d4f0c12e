"""Collective data-semantics tests (XLA collective_permute)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh.collectives import collective_permute, validate_pairs


def _values(n, size=3):
    """Core i holds the value i + 1 (nonzero, so zeros are meaningful)."""
    return [np.full(size, float(i + 1), dtype=np.float32) for i in range(n)]


class TestCollectivePermute:
    def test_cycle(self):
        out = collective_permute(_values(3), [(0, 1), (1, 2), (2, 0)])
        assert out[1][0] == 1.0
        assert out[2][0] == 2.0
        assert out[0][0] == 3.0

    def test_untargeted_cores_receive_zeros(self):
        out = collective_permute(_values(3), [(0, 1)])
        assert np.all(out[0] == 0.0)
        assert np.all(out[2] == 0.0)
        assert np.all(out[1] == 1.0)

    def test_self_pair(self):
        out = collective_permute(_values(2), [(0, 0), (1, 1)])
        assert out[0][0] == 1.0
        assert out[1][0] == 2.0

    def test_one_source_many_targets(self):
        out = collective_permute(_values(3), [(0, 1), (0, 2)])
        assert out[1][0] == 1.0
        assert out[2][0] == 1.0

    def test_received_tensors_are_copies(self):
        values = _values(2)
        out = collective_permute(values, [(0, 1), (1, 0)])
        out[1][...] = 99.0
        assert values[0][0] == 1.0

    def test_duplicate_target_rejected(self):
        with pytest.raises(ValueError, match="more than one pair"):
            collective_permute(_values(3), [(0, 1), (2, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            collective_permute(_values(2), [(0, 5)])

    def test_shape_mismatch_rejected(self):
        values = [np.zeros(2, dtype=np.float32), np.zeros(3, dtype=np.float32)]
        with pytest.raises(ValueError, match="must agree"):
            collective_permute(values, [(0, 1)])


class TestValidatePairs:
    def test_accepts_permutation(self):
        validate_pairs([(0, 1), (1, 0)], 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="outside"):
            validate_pairs([(-1, 0)], 2)

