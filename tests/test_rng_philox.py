"""Philox4x32-10 known-answer and statistical tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng.philox import (
    philox4x32,
    philox_uniform_bits,
    uint32_to_uniform,
)


def _single(counter, key, rounds=10):
    c = np.array(counter, dtype=np.uint32).reshape(4, 1)
    k = np.array(key, dtype=np.uint32).reshape(2, 1)
    return [int(x) for x in philox4x32(c, k, rounds)[:, 0]]


class TestKnownAnswers:
    """Reference vectors from the Random123 kat_vectors file."""

    def test_zero_counter_zero_key(self):
        assert _single([0, 0, 0, 0], [0, 0]) == [
            0x6627E8D5,
            0xE169C58D,
            0xBC57AC4C,
            0x9B00DBD8,
        ]

    def test_all_ones(self):
        assert _single([0xFFFFFFFF] * 4, [0xFFFFFFFF] * 2) == [
            0x408F276D,
            0x41C83B0E,
            0xA20BC7C6,
            0x6D5451FD,
        ]

    def test_pi_digits(self):
        assert _single(
            [0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344],
            [0xA4093822, 0x299F31D0],
        ) == [0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1]

    def test_seven_rounds_kat(self):
        # 7-round vector from the same suite checks the round loop, not
        # just the final composition.
        assert _single([0, 0, 0, 0], [0, 0], rounds=7) == [
            0x5F6FB709,
            0x0D893F64,
            0x4F121F81,
            0x4F730A48,
        ]


class TestShapeAndValidation:
    def test_batch_shapes(self):
        counter = np.zeros((4, 10), dtype=np.uint32)
        counter[0] = np.arange(10)
        out = philox4x32(counter, np.zeros((2, 1), dtype=np.uint32))
        assert out.shape == (4, 10)
        # Distinct counters give distinct outputs.
        assert len({tuple(out[:, i]) for i in range(10)}) == 10

    def test_bad_counter_shape_raises(self):
        with pytest.raises(ValueError, match="leading dimension 4"):
            philox4x32(np.zeros((3, 1), dtype=np.uint32), np.zeros((2, 1), dtype=np.uint32))

    def test_bad_key_shape_raises(self):
        with pytest.raises(ValueError, match="leading dimension 2"):
            philox4x32(np.zeros((4, 1), dtype=np.uint32), np.zeros((3, 1), dtype=np.uint32))

    def test_bad_rounds_raises(self):
        with pytest.raises(ValueError, match="rounds"):
            philox4x32(
                np.zeros((4, 1), dtype=np.uint32),
                np.zeros((2, 1), dtype=np.uint32),
                rounds=0,
            )

    def test_input_not_mutated(self):
        counter = np.arange(4, dtype=np.uint32).reshape(4, 1)
        key = np.array([[1], [2]], dtype=np.uint32)
        before_c, before_k = counter.copy(), key.copy()
        philox4x32(counter, key)
        assert np.array_equal(counter, before_c)
        assert np.array_equal(key, before_k)


class TestUniformBits:
    def test_word_count(self):
        for n in (0, 1, 3, 4, 5, 17, 1024):
            assert philox_uniform_bits(0, n, (1, 2)).shape == (n,)

    def test_consecutive_blocks_are_disjoint_slices(self):
        all_words = philox_uniform_bits(0, 64, (5, 6))
        first = philox_uniform_bits(0, 32, (5, 6))
        second = philox_uniform_bits(8, 32, (5, 6))  # 32 words = 8 counters
        assert np.array_equal(all_words[:32], first)
        assert np.array_equal(all_words[32:], second)

    def test_counter_wraps_at_2_128(self):
        near_max = (1 << 128) - 2
        words = philox_uniform_bits(near_max, 16, (0, 0))
        wrapped = philox_uniform_bits(0, 8, (0, 0))
        # Counters near_max, near_max+1 then 0, 1 after the wrap.
        assert np.array_equal(words[8:], wrapped)

    def test_carry_into_high_limb(self):
        # Starting just below 2**64 exercises the low-limb carry path.
        start = (1 << 64) - 1
        words = philox_uniform_bits(start, 8, (3, 4))
        direct_second = philox_uniform_bits(1 << 64, 4, (3, 4))
        assert np.array_equal(words[4:], direct_second)

    def test_key_sensitivity(self):
        a = philox_uniform_bits(0, 128, (1, 0))
        b = philox_uniform_bits(0, 128, (2, 0))
        assert not np.array_equal(a, b)


class TestUniformConversion:
    def test_range_and_granularity(self):
        bits = philox_uniform_bits(0, 1 << 14, (9, 9))
        u = uint32_to_uniform(bits)
        assert u.dtype == np.float32
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0
        # Values are multiples of 2**-24 (exactly representable).
        scaled = u * np.float32(2.0**24)
        assert np.array_equal(scaled, np.round(scaled))

    def test_statistics(self):
        u = uint32_to_uniform(philox_uniform_bits(0, 1 << 16, (11, 13))).astype(
            np.float64
        )
        n = u.size
        assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12 * n)
        assert abs(u.var() - 1.0 / 12.0) < 0.002
        # Chi-squared over 16 equal bins.
        counts, _ = np.histogram(u, bins=16, range=(0, 1))
        expected = n / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 45.0  # 15 dof, p ~ 1e-4 cutoff

    def test_lag_correlation_small(self):
        u = uint32_to_uniform(philox_uniform_bits(0, 1 << 15, (21, 34))).astype(
            np.float64
        )
        x = u - u.mean()
        corr = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(corr) < 0.02


class TestBitsInto:
    def test_matches_batched_allocating_path(self):
        from repro.rng.philox import (
            make_philox_scratch,
            philox_bits_into,
            philox_uniform_bits_batched,
        )

        n_streams, n_words = 3, 40
        keys = np.array([[7, 0], [7, 1], [9, 2]], dtype=np.uint32)
        starts = [0, 12, (1 << 128) - 4]  # includes a counter wrap
        expected = philox_uniform_bits_batched(starts, n_words, keys)
        scratch = make_philox_scratch(n_streams, n_words)
        out = np.empty((n_streams, n_words), dtype=np.uint32)
        philox_bits_into(starts, keys, out, scratch)
        np.testing.assert_array_equal(out, expected)
        # Scratch reuse: a second fill with different counters still agrees.
        philox_bits_into([5, 6, 7], keys, out, scratch)
        np.testing.assert_array_equal(
            out, philox_uniform_bits_batched([5, 6, 7], n_words, keys)
        )

    def test_tail_words_single_stream(self):
        from repro.rng.philox import (
            make_philox_scratch,
            philox_bits_into,
            philox_uniform_bits,
        )

        # n_words not divisible by 4 exercises the tail of the 4-lane blocks.
        n_words = 7
        keys = np.array([[3, 5]], dtype=np.uint32)
        scratch = make_philox_scratch(1, n_words)
        out = np.empty((1, n_words), dtype=np.uint32)
        philox_bits_into([100], keys, out, scratch)
        np.testing.assert_array_equal(
            out[0], philox_uniform_bits(100, n_words, (3, 5))
        )

    def test_validates_shapes(self):
        from repro.rng.philox import make_philox_scratch, philox_bits_into

        scratch = make_philox_scratch(2, 8)
        keys = np.zeros((2, 2), dtype=np.uint32)
        with pytest.raises(ValueError, match="out must be uint32"):
            philox_bits_into([0, 0], keys, np.empty((2, 4), np.uint32), scratch)
        with pytest.raises(ValueError, match="keys"):
            philox_bits_into(
                [0, 0], np.zeros((1, 2), np.uint32),
                np.empty((2, 8), np.uint32), scratch,
            )

    @staticmethod
    def _check(starts, n_words, keys, rounds_kat=None):
        """philox_bits_into / philox_uniform_into vs the allocating oracle."""
        from repro.rng.philox import (
            make_philox_scratch,
            philox_bits_into,
            philox_uniform_bits_batched,
            philox_uniform_into,
        )

        keys = np.asarray(keys, dtype=np.uint32)
        expected = philox_uniform_bits_batched(starts, n_words, keys)
        scratch = make_philox_scratch(len(starts), n_words)
        out = np.empty((len(starts), n_words), dtype=np.uint32)
        philox_bits_into(starts, keys, out, scratch)
        np.testing.assert_array_equal(out, expected)
        uniforms = np.empty((len(starts), n_words), dtype=np.float32)
        philox_uniform_into(starts, keys, uniforms, scratch)
        np.testing.assert_array_equal(uniforms, uint32_to_uniform(expected))
        return scratch

    def test_several_blocks_with_partial_last_block(self):
        from repro.rng.philox import BLOCK_COUNTERS

        # Below the split size: blocks of BLOCK_COUNTERS, the last partial.
        scratch = self._check([11], 4 * (BLOCK_COUNTERS + 37), [[3, 9]])
        assert scratch["block"] == BLOCK_COUNTERS
        assert scratch["n_counters"] > scratch["block"]
        # A split draw: each half runs blocks of twice the bound, the
        # last one partial.
        scratch = self._check([11], 4 * (4 * BLOCK_COUNTERS + 37), [[3, 9]])
        assert scratch["block"] == 2 * BLOCK_COUNTERS
        assert scratch["n_counters"] > 2 * scratch["block"]

    def test_counter_carry_inside_and_at_block_boundary(self):
        from repro.rng.philox import BLOCK_COUNTERS

        n_words = 4 * (BLOCK_COUNTERS + 8)  # two blocks, below the split size
        # The low limb wraps mid-block ...
        self._check([(1 << 64) - 100], n_words, [[1, 2]])
        # ... exactly where the second block starts ...
        self._check([(1 << 64) - BLOCK_COUNTERS], n_words, [[1, 2]])
        # ... and the whole 128-bit counter wraps at a block boundary.
        self._check([(1 << 128) - BLOCK_COUNTERS], n_words, [[1, 2]])

    def test_stream_bound_splits_multi_stream_draw(self):
        from repro.rng.philox import BLOCK_COUNTERS

        keys = [[7, 0], [7, 1], [9, 2]]
        starts = [0, (1 << 64) - 6000, (1 << 128) - 3]
        scratch = self._check(starts, 4 * 8000, keys)
        assert scratch["block"] * 3 <= BLOCK_COUNTERS
        assert scratch["n_counters"] > scratch["block"]
        # Split draws bound each half's blocks at twice that.
        scratch = self._check(starts, 4 * 24000, keys)
        assert scratch["block"] * 3 <= 2 * BLOCK_COUNTERS
        assert scratch["n_counters"] > 2 * scratch["block"]

    @pytest.mark.parametrize("tail", [1, 2, 3])
    def test_partial_final_counter(self, tail):
        from repro.rng.philox import BLOCK_COUNTERS

        block = BLOCK_COUNTERS // 2
        # The partial counter sits mid-block, then alone in a last block.
        self._check([5, 6], 4 * (block + 10) + tail, [[1, 1], [2, 2]])
        self._check([5, 6], 4 * block + tail, [[1, 1], [2, 2]])

    def test_known_answers_through_scratch(self):
        from repro.rng.philox import make_philox_scratch, philox_bits_into

        def counter(words):
            return sum(int(w) << (32 * i) for i, w in enumerate(words))

        pi_counter = counter([0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344])
        starts = [0, (1 << 128) - 1, pi_counter]
        keys = np.array(
            [[0, 0], [0xFFFFFFFF, 0xFFFFFFFF], [0xA4093822, 0x299F31D0]],
            dtype=np.uint32,
        )
        scratch = make_philox_scratch(3, 4)
        out = np.empty((3, 4), dtype=np.uint32)
        philox_bits_into(starts, keys, out, scratch)
        assert [[int(w) for w in row] for row in out] == [
            [0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8],
            [0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD],
            [0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1],
        ]

    def test_scratch_reuse_invalidates_key_schedule(self):
        from repro.rng.philox import (
            make_philox_scratch,
            philox_bits_into,
            philox_uniform_bits_batched,
        )

        scratch = make_philox_scratch(1, 8)
        out = np.empty((1, 8), dtype=np.uint32)
        first = np.array([[4, 5]], dtype=np.uint32)
        second = np.array([[6, 7]], dtype=np.uint32)
        for keys in (first, second, first):
            philox_bits_into([0], keys, out, scratch)
            np.testing.assert_array_equal(
                out, philox_uniform_bits_batched([0], 8, keys)
            )
        # Same scratch, different round count: the 7-round KAT vector.
        philox_bits_into([0], np.zeros((1, 2), np.uint32), out, scratch, rounds=7)
        assert [int(w) for w in out[0, :4]] == [
            0x5F6FB709, 0x0D893F64, 0x4F121F81, 0x4F730A48,
        ]
        philox_bits_into([0], first, out, scratch)
        np.testing.assert_array_equal(
            out, philox_uniform_bits_batched([0], 8, first)
        )

    def test_scratch_is_bounded_by_the_block(self):
        from repro.rng.philox import BLOCK_COUNTERS, make_philox_scratch

        small = make_philox_scratch(4, 4 * BLOCK_COUNTERS)
        large = make_philox_scratch(4, 64 * BLOCK_COUNTERS)

        def nbytes(scratch):
            return sum(v.nbytes for v in scratch.values() if isinstance(v, np.ndarray))

        assert nbytes(large) == nbytes(small)
        # Both draws split, so each half's block is twice the bound ...
        assert small["block"] * 4 == 2 * BLOCK_COUNTERS
        # ... while the largest draw below the split size keeps the bound.
        unsplit = make_philox_scratch(4, 2 * BLOCK_COUNTERS - 4)
        assert unsplit["block"] * 4 == BLOCK_COUNTERS

    def test_uniform_into_validates_dtype(self):
        from repro.rng.philox import make_philox_scratch, philox_uniform_into

        scratch = make_philox_scratch(1, 8)
        keys = np.zeros((1, 2), dtype=np.uint32)
        with pytest.raises(ValueError, match="out must be float32"):
            philox_uniform_into([0], keys, np.empty((1, 8), np.uint32), scratch)
        with pytest.raises(ValueError, match="out must be float32"):
            philox_uniform_into([0], keys, np.empty((1, 4), np.float32), scratch)


class TestSplitDraw:
    """Draws of at least 2 * BLOCK_COUNTERS counters, summed over streams,
    are cut at a counter column and drawn on two threads."""

    B = 16384  # BLOCK_COUNTERS, pinned so the sizes below read as counters

    @pytest.mark.parametrize(
        "n_streams, n_words, split",
        [
            (1, 8 * B - 4, False),  # one counter short of the split size
            (1, 8 * B, True),  # exactly 2 * B counters: one block per half
            (1, 8 * B + 6, True),  # odd counter count, ragged tail
            (1, 16 * B + 3, True),  # the upper half runs two blocks
            (3, 4 * 10923 - 1, True),  # the split size summed over streams
            (3, 8 * B + 6, True),  # halves of two blocks each, ragged
        ],
    )
    def test_matches_oracle_with_carries_at_the_cut(
        self, two_cpus, n_streams, n_words, split
    ):
        from repro.rng.philox import (
            BLOCK_COUNTERS,
            make_philox_scratch,
            philox_bits_into,
            philox_uniform_bits_batched,
            philox_uniform_into,
        )

        assert BLOCK_COUNTERS == self.B
        mid = -(-n_words // 4) // 2
        # Stream 0's low limb carries exactly at the cut, stream 1's whole
        # 128-bit counter wraps there.
        starts = [(1 << 64) - mid, (1 << 128) - mid, 12345][:n_streams]
        keys = np.array([[7, 0], [7, 1], [9, 2]][:n_streams], dtype=np.uint32)
        expected = philox_uniform_bits_batched(starts, n_words, keys)
        scratch = make_philox_scratch(n_streams, n_words)
        out = np.empty((n_streams, n_words), dtype=np.uint32)
        philox_bits_into(starts, keys, out, scratch)
        np.testing.assert_array_equal(out, expected)
        assert scratch["split"] is split
        uniforms = np.empty((n_streams, n_words), dtype=np.float32)
        philox_uniform_into(starts, keys, uniforms, scratch)
        np.testing.assert_array_equal(uniforms, uint32_to_uniform(expected))
        assert scratch["split"] is split
        if split:
            # The peer's buffers match the caller's block.
            assert scratch["upper"]["x"].shape == scratch["x"].shape
