"""Per-core Philox stream tests: reproducibility, independence, state."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.rng import BatchedPhiloxStream, PhiloxStream, split_key
from repro.rng import philox
from repro.rng.philox import (
    BLOCK_COUNTERS,
    philox_uniform_bits,
    philox_uniform_bits_batched,
    uint32_to_uniform,
)


class TestSplitKey:
    def test_deterministic(self):
        assert split_key(42, 3) == split_key(42, 3)

    def test_seed_and_stream_sensitivity(self):
        base = split_key(42, 3)
        assert split_key(43, 3) != base
        assert split_key(42, 4) != base

    def test_words_are_32_bit(self):
        for seed in (0, 1, 2**63, 2**64 - 1):
            k0, k1 = split_key(seed, seed // 2)
            assert 0 <= k0 < 2**32
            assert 0 <= k1 < 2**32

    def test_nearby_seeds_decorrelated(self):
        keys = {split_key(s, 0) for s in range(256)}
        assert len(keys) == 256


class TestPhiloxStream:
    def test_reproducible(self):
        a = PhiloxStream(7, 1).uniform(1000)
        b = PhiloxStream(7, 1).uniform(1000)
        assert np.array_equal(a, b)

    def test_draw_order_is_part_of_the_stream(self):
        s1 = PhiloxStream(7, 1)
        first, second = s1.uniform(500), s1.uniform(500)
        combined = PhiloxStream(7, 1).uniform(1000)
        assert np.array_equal(np.concatenate([first, second]), combined)

    def test_streams_are_distinct(self):
        a = PhiloxStream(7, 1).uniform(4096).astype(np.float64)
        b = PhiloxStream(7, 2).uniform(4096).astype(np.float64)
        assert not np.array_equal(a, b)
        # Cross-correlation consistent with independence.
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 0.05

    def test_shapes(self):
        s = PhiloxStream(0, 0)
        assert s.uniform(5).shape == (5,)
        assert s.uniform((3, 4)).shape == (3, 4)
        assert s.uniform((2, 3, 4)).shape == (2, 3, 4)

    def test_counter_advances_by_counters_used(self):
        s = PhiloxStream(0, 0)
        s.random_bits(4)
        assert s.counter == 1
        s.random_bits(5)  # needs 2 counters
        assert s.counter == 3
        s.random_bits(0)
        assert s.counter == 3

    def test_negative_words_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            PhiloxStream(0, 0).random_bits(-1)

    def test_state_roundtrip(self):
        s = PhiloxStream(11, 5)
        s.uniform(123)
        resumed = PhiloxStream.from_state(s.state())
        assert np.array_equal(resumed.uniform(64), s.uniform(64))

    def test_spawn_is_deterministic_and_distinct(self):
        parent = PhiloxStream(3, 1)
        child_a = parent.spawn(0)
        child_b = parent.spawn(1)
        assert np.array_equal(child_a.uniform(32), parent.spawn(0).uniform(32))
        assert not np.array_equal(child_a.uniform(32), child_b.uniform(32))

    def test_repr_mentions_state(self):
        s = PhiloxStream(1, 2)
        assert "seed=1" in repr(s)
        assert "stream_id=2" in repr(s)

    def test_counter_counts_blocks_not_words(self):
        # The counter property counts 128-bit blocks consumed (each
        # yielding four words), NOT 32-bit words drawn.
        s = PhiloxStream(0, 0)
        s.random_bits(3)  # partial block: 3 of 4 words used
        assert s.counter == 1
        s.random_bits(8)
        assert s.counter == 3
        assert "counter blocks" in type(s).counter.__doc__

    def test_partial_word_checkpoint_resumes_bit_identically(self):
        # Regression: a checkpoint taken right after a partial-word draw
        # (3 of a block's 4 words consumed) must resume bit-identically —
        # the resumed stream starts at the next whole block, exactly
        # where the original continues.
        s = PhiloxStream(21, 9)
        s.random_bits(3)
        resumed = PhiloxStream.from_state(s.state())
        assert resumed.counter == s.counter
        for n_words in (1, 3, 4, 7):
            assert np.array_equal(resumed.random_bits(n_words), s.random_bits(n_words))
        assert np.array_equal(resumed.uniform((2, 5)), s.uniform((2, 5)))


class TestBatchedPhiloxStream:
    def test_chains_match_solo_streams(self):
        batched = BatchedPhiloxStream(5, [0, 3, 17])
        solos = [PhiloxStream(5, sid) for sid in (0, 3, 17)]
        u = batched.uniform((3, 4, 4))
        for b, solo in enumerate(solos):
            assert np.array_equal(u[b], solo.uniform((4, 4)))
        assert batched.counters == [s.counter for s in solos]

    def test_from_streams_carries_counters(self):
        solos = [PhiloxStream(9, 0), PhiloxStream(9, 1)]
        solos[0].uniform(10)  # desync the counters
        solos[0].split_draws, solos[1].split_draws = 2, 1
        batched = BatchedPhiloxStream.from_streams(solos)
        assert batched.counters == [solos[0].counter, solos[1].counter]
        assert batched.split_draws == 3
        u = batched.uniform((2, 6))
        assert np.array_equal(u[0], solos[0].uniform(6))
        assert np.array_equal(u[1], solos[1].uniform(6))

    def test_chain_splits_out_equivalent_solo(self):
        batched = BatchedPhiloxStream(2, [4, 5])
        batched.uniform((2, 8))
        split = batched.chain(1)
        reference = PhiloxStream(2, 5)
        reference.uniform(8)
        assert np.array_equal(split.uniform(16), reference.uniform(16))

    def test_uniform_requires_chain_axis(self):
        batched = BatchedPhiloxStream(0, [0, 1])
        with pytest.raises(ValueError, match="chain axis"):
            batched.uniform((3, 4))

    def test_state_roundtrip(self):
        batched = BatchedPhiloxStream([1, 2], [0, 1])
        batched.uniform((2, 5))
        resumed = BatchedPhiloxStream.from_state(batched.state())
        assert np.array_equal(resumed.uniform((2, 9)), batched.uniform((2, 9)))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchedPhiloxStream(0, [])
        with pytest.raises(ValueError, match="seeds"):
            BatchedPhiloxStream([1, 2, 3], [0, 1])
        with pytest.raises(ValueError, match=">= 0"):
            BatchedPhiloxStream(0, [0]).random_bits(-1)


class TestAllocatingDrawsMatchOracle:
    """``uniform`` and ``random_bits`` fill a fresh array in place; the
    words, shapes and counter advance are the oracle's."""

    SIZES = (0, 1, 3, 4, 7, 64, 4097)

    def test_solo(self):
        stream = PhiloxStream(41, 2)
        counter = 0
        for i, size in enumerate(self.SIZES):
            words = philox_uniform_bits(counter, size, split_key(41, 2))
            if i % 2:
                out = stream.random_bits(size)
                assert out.dtype == np.uint32
                np.testing.assert_array_equal(out, words)
            else:
                out = stream.uniform((size,))
                assert out.dtype == np.float32
                np.testing.assert_array_equal(out, uint32_to_uniform(words))
            counter += -(-size // 4)
            assert stream.counter == counter
        shaped = stream.uniform((2, 3))
        assert shaped.shape == (2, 3) and shaped.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(
            shaped.ravel(),
            uint32_to_uniform(philox_uniform_bits(counter, 6, split_key(41, 2))),
        )
        assert [k for k in vars(stream) if "scratch" in k] == ["_scratch"]

    def test_batched(self):
        stream = BatchedPhiloxStream.from_state(
            {"seeds": [41, 42, 43], "stream_ids": [0, 5, 1], "counters": [0, 9, 2]}
        )
        counters = stream.counters
        for i, size in enumerate(self.SIZES):
            words = philox_uniform_bits_batched(counters, size, stream._keys)
            if i % 2:
                out = stream.random_bits(size)
                assert out.shape == (3, size) and out.dtype == np.uint32
                np.testing.assert_array_equal(out, words)
            else:
                out = stream.uniform((3, size))
                assert out.dtype == np.float32
                np.testing.assert_array_equal(out, uint32_to_uniform(words))
            counters = [c + -(-size // 4) for c in counters]
            assert stream.counters == counters
        # A chain axis alone draws one word per chain.
        words = philox_uniform_bits_batched(counters, 1, stream._keys)
        np.testing.assert_array_equal(stream.uniform(3), uint32_to_uniform(words)[:, 0])
        assert [k for k in vars(stream) if "scratch" in k] == ["_scratch"]


class TestOneScratchPerStream:
    """Every in-place draw of a stream shares one block-bounded workspace."""

    # Sizes from 1 to 5,000 words, out of order, with every tail length.
    SIZES = (1, 5000, 4, 7, 1024, 2, 4097, 12, 999, 3, 2500, 256, 4999, 6)

    @pytest.mark.parametrize("n_chains", [None, 3], ids=["solo", "batched"])
    def test_interleaved_draws_match_oracle(self, n_chains):
        from repro.rng.philox import (
            BLOCK_COUNTERS,
            philox_uniform_bits,
            philox_uniform_bits_batched,
            uint32_to_uniform,
        )

        if n_chains is None:
            stream = PhiloxStream(31, 4)
            rows, keys = 1, None
        else:
            stream = BatchedPhiloxStream(31, [4, 5, 6])
            rows, keys = n_chains, stream._keys
        counters = [0] * rows
        for i, size in enumerate(self.SIZES):
            if keys is None:
                expected = philox_uniform_bits(counters[0], size, stream._keys[0])[None]
            else:
                expected = philox_uniform_bits_batched(counters, size, keys)
            if i % 2:
                out = np.empty((rows, size), dtype=np.uint32)
                stream.bits_into(out)
            else:
                expected = uint32_to_uniform(expected)
                out = np.empty((rows, size), dtype=np.float32)
                stream.uniform_into(out)
            np.testing.assert_array_equal(out, expected)
            counters = [c + -(-size // 4) for c in counters]
            assert (stream.counters if n_chains else [stream.counter]) == counters
        scratch = stream._scratch
        assert scratch["block"] * rows <= BLOCK_COUNTERS
        assert scratch["x"].shape == (2, rows, scratch["block"])
        # The largest draw set the block; nothing else is held.
        assert scratch["block"] == min(1250, BLOCK_COUNTERS // rows)
        assert [k for k in vars(stream) if "scratch" in k] == ["_scratch"]


#: Words per chain of a draw that splits, with a ragged tail.
SPLIT_WORDS = 8 * BLOCK_COUNTERS + 6
SPLIT_COUNTERS = -(-SPLIT_WORDS // 4)


def _draw_and_check(stream, bits: bool = False) -> "str | None":
    """Draw ``SPLIT_WORDS`` per chain; describe any mismatch with the oracle."""
    solo = isinstance(stream, PhiloxStream)
    counters = [stream.counter] if solo else stream.counters
    if solo:
        words = philox_uniform_bits(counters[0], SPLIT_WORDS, stream._keys[0])[None]
    else:
        words = philox_uniform_bits_batched(counters, SPLIT_WORDS, stream._keys)
    expected = words if bits else uint32_to_uniform(words)
    out = np.empty(expected.shape, dtype=expected.dtype)
    (stream.bits_into if bits else stream.uniform_into)(out)
    if not np.array_equal(out, expected):
        return f"{stream!r}: words differ from the oracle"
    after = [stream.counter] if solo else stream.counters
    if after != [c + SPLIT_COUNTERS for c in counters]:
        return f"{stream!r}: counters {after} after {counters}"
    return None


class TestPeerThread:
    """The process's one peer thread, shared by every split draw."""

    def test_more_threads_than_cores_share_the_peer(self, two_cpus):
        mid = SPLIT_COUNTERS // 2
        streams = [
            PhiloxStream(3, 0),
            # The low limb carries exactly at the cut of the first draw.
            PhiloxStream.from_state(
                {"seed": 3, "stream_id": 1, "counter": (1 << 64) - mid}
            ),
            BatchedPhiloxStream(5, [0, 1, 2]),
            BatchedPhiloxStream.from_state(
                {
                    "seeds": [6, 6],
                    "stream_ids": [0, 1],
                    "counters": [(1 << 64) - mid, (1 << 128) - mid],
                }
            ),
        ]
        rounds = 6
        errors = []

        def work(stream):
            try:
                for r in range(rounds):
                    error = _draw_and_check(stream, bits=bool(r % 2))
                    if error:
                        errors.append(error)
            except Exception as exc:  # reported by the main thread
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in streams]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        # The first draw to ask found the peer free.
        assert sum(s.split_draws for s in streams) >= 1

    def test_one_cpu_draws_alone_and_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(philox, "_peer", None)
        threads = threading.active_count()
        stream = BatchedPhiloxStream(8, [0, 1])
        assert _draw_and_check(stream) is None
        assert _draw_and_check(stream, bits=True) is None
        assert threading.active_count() == threads
        assert philox._peer is None
        assert stream.split_draws == 0

    def test_held_peer_leaves_the_draw_to_the_caller(self, two_cpus):
        stream = PhiloxStream(8, 3)
        peer = philox._lend_peer()
        assert peer is not None
        try:
            assert _draw_and_check(stream) is None
            assert stream.split_draws == 0
        finally:
            peer.lent.release()
        assert _draw_and_check(stream) is None
        assert stream.split_draws == 1

    def test_peer_error_reraises_and_the_next_draw_splits(
        self, two_cpus, monkeypatch
    ):
        fill = philox._fill_blocks

        def fail_upper_half(out, starts, schedule, idx, buffers, lo, hi, emit):
            if lo > 0:
                raise RuntimeError("upper half failed")
            fill(out, starts, schedule, idx, buffers, lo, hi, emit)

        stream = PhiloxStream(8, 4)
        with monkeypatch.context() as patch:
            patch.setattr(philox, "_fill_blocks", fail_upper_half)
            with pytest.raises(RuntimeError, match="upper half failed"):
                stream.uniform_into(np.empty(SPLIT_WORDS, dtype=np.float32))
        assert stream.counter == 0
        assert stream.split_draws == 0
        assert _draw_and_check(stream) is None
        assert stream.split_draws == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_forked_child_draws_with_its_own_peer(self, two_cpus):
        stream = PhiloxStream(8, 5)
        assert _draw_and_check(stream) is None
        assert stream.split_draws == 1  # the parent's peer has run
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if its split draw matches
            code = 1
            try:
                if _draw_and_check(stream) is None and stream.split_draws == 2:
                    code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's split draw did not finish")
            time.sleep(0.01)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
