"""Philox4x32-10 counter-based pseudo-random number generator.

TPUs use stateless (counter-based) RNGs so that every core can draw an
independent, reproducible stream without shared mutable state.  This module
implements the Philox4x32 generator of Salmon et al. (SC 2011, "Parallel
random numbers: as easy as 1, 2, 3") in fully vectorised numpy.  It is the
random-number substrate for the whole library: the checkerboard updaters
draw their per-site acceptance uniforms from per-core keyed Philox streams
(see :mod:`repro.rng.streams`).

The generator maps a 128-bit counter and a 64-bit key to 128 bits of
output through 10 rounds of a simple multiply/xor network.  Distinct
(counter, key) pairs give statistically independent outputs, so parallel
streams are obtained by giving each core its own key and letting each core
advance its own counter.

:func:`philox4x32` and the ``philox_uniform_bits*`` functions allocate
and serve as the oracle.  :func:`philox_bits_into` and
:func:`philox_uniform_into` are the allocation-free generator the
streams use: a pair-stacked uint64 round network, bit-identical to the
oracle.

A draw of fewer than ``2 * BLOCK_COUNTERS`` counters (summed over
streams) runs on the calling thread in blocks of at most
:data:`BLOCK_COUNTERS` counters.  A larger draw is cut at a counter
column into two contiguous halves, each run in blocks of at most
``2 * BLOCK_COUNTERS`` counters: the process's one peer thread draws
the upper half into its slice of ``out`` while the caller draws the
lower half.  numpy's uint64 ufuncs release the GIL, so the halves run
on two cores, and the counter alone fixes every word, so the words do
not depend on which thread drew them.  The caller draws the whole range
alone when another draw holds the peer or the process may run on one
CPU only.  The peer starts on the first split draw, never at import.
"""

from __future__ import annotations

import os
import threading

import numpy as np

__all__ = [
    "BLOCK_COUNTERS",
    "PHILOX_M0",
    "PHILOX_M1",
    "PHILOX_W0",
    "PHILOX_W1",
    "philox4x32",
    "philox_uniform_bits",
    "philox_uniform_bits_batched",
    "make_philox_scratch",
    "fit_philox_scratch",
    "philox_bits_into",
    "philox_uniform_into",
    "uint32_to_uniform",
]

# Multiplication and Weyl-sequence constants from the Random123 reference
# implementation.
PHILOX_M0 = np.uint64(0xD2511F53)
PHILOX_M1 = np.uint64(0xCD9E8D57)
PHILOX_W0 = np.uint32(0x9E3779B9)
PHILOX_W1 = np.uint32(0xBB67AE85)

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(mult: np.uint64, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return the (high, low) 32-bit halves of ``mult * value``.

    ``value`` is a uint32 array; the product is formed in uint64 so both
    halves are exact.
    """
    product = mult * value.astype(np.uint64)
    hi = (product >> _SHIFT32).astype(np.uint32)
    lo = (product & _MASK32).astype(np.uint32)
    return hi, lo


def philox4x32(
    counter: np.ndarray, key: np.ndarray, rounds: int = 10
) -> np.ndarray:
    """Apply the Philox4x32 bijection to a batch of counters.

    Parameters
    ----------
    counter:
        uint32 array of shape ``(4, n)`` (or ``(4,)`` for a single
        counter); ``counter[0]`` is the least-significant word.
    key:
        uint32 array of shape ``(2, n)`` or ``(2,)``; broadcast against
        the counters.
    rounds:
        Number of rounds; 10 is the standard, crush-resistant choice.

    Returns
    -------
    uint32 array with the same shape as ``counter``: 128 bits of output
    per counter.
    """
    counter = np.asarray(counter, dtype=np.uint32)
    key = np.asarray(key, dtype=np.uint32)
    if counter.shape[0] != 4:
        raise ValueError(f"counter must have leading dimension 4, got {counter.shape}")
    if key.shape[0] != 2:
        raise ValueError(f"key must have leading dimension 2, got {key.shape}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")

    c0, c1, c2, c3 = (np.array(c, dtype=np.uint32, copy=True) for c in counter)
    k0 = np.array(key[0], dtype=np.uint32, copy=True)
    k1 = np.array(key[1], dtype=np.uint32, copy=True)

    # uint32 arithmetic wraps; numpy warns on overflow for scalars only,
    # and arrays wrap silently, which is exactly what we want here.
    with np.errstate(over="ignore"):
        for _ in range(rounds):
            hi0, lo0 = _mulhilo(PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(PHILOX_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + PHILOX_W0
            k1 = k1 + PHILOX_W1
    return np.stack([c0, c1, c2, c3])


def philox_uniform_bits(
    start_counter: int, n_words: int, key: tuple[int, int]
) -> np.ndarray:
    """Generate ``n_words`` uint32 words from consecutive Philox counters.

    The 128-bit counter space is indexed by ``start_counter`` (a Python
    int, taken modulo 2**128); each counter produces four output words.
    """
    if n_words <= 0:
        return np.empty(0, dtype=np.uint32)
    n_counters = -(-n_words // 4)
    start_counter %= 1 << 128

    base_lo = start_counter & ((1 << 64) - 1)
    base_hi = start_counter >> 64
    idx = np.arange(n_counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        lo = np.uint64(base_lo) + idx
    # Wrap-around of the low 64-bit limb carries into the high limb.
    carry = (lo < np.uint64(base_lo)).astype(np.uint64)
    with np.errstate(over="ignore"):
        hi = np.uint64(base_hi & ((1 << 64) - 1)) + carry

    counter = np.empty((4, n_counters), dtype=np.uint32)
    counter[0] = (lo & _MASK32).astype(np.uint32)
    counter[1] = (lo >> _SHIFT32).astype(np.uint32)
    counter[2] = (hi & _MASK32).astype(np.uint32)
    counter[3] = (hi >> _SHIFT32).astype(np.uint32)

    key_arr = np.array(
        [key[0] & 0xFFFFFFFF, key[1] & 0xFFFFFFFF], dtype=np.uint32
    ).reshape(2, 1)
    out = philox4x32(counter, key_arr)
    # Interleave so that consecutive words come from output lanes 0..3 of
    # consecutive counters: transpose (4, n) -> (n, 4) -> flatten.
    return out.T.reshape(-1)[:n_words]


def philox_uniform_bits_batched(
    start_counters: "list[int] | np.ndarray",
    n_words: int,
    keys: np.ndarray,
) -> np.ndarray:
    """Generate ``n_words`` words for each of B independent (counter, key) streams.

    Parameters
    ----------
    start_counters:
        Length-B sequence of 128-bit counters (Python ints, taken modulo
        2**128); stream ``b`` consumes counters starting at
        ``start_counters[b]``.
    n_words:
        Words to draw per stream.
    keys:
        ``(B, 2)`` array-like of uint32 key words, one pair per stream.

    Returns
    -------
    ``(B, n_words)`` uint32 array whose row ``b`` is bit-identical to
    ``philox_uniform_bits(start_counters[b], n_words, keys[b])`` — the
    batched draw is exactly B independent solo draws evaluated in one
    vectorised Philox pass.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    if keys.ndim != 2 or keys.shape[1] != 2:
        raise ValueError(f"keys must have shape (B, 2), got {keys.shape}")
    n_streams = keys.shape[0]
    if len(start_counters) != n_streams:
        raise ValueError(
            f"{len(start_counters)} counters for {n_streams} keys"
        )
    if n_words <= 0:
        return np.empty((n_streams, 0), dtype=np.uint32)
    n_counters = -(-n_words // 4)

    starts = [int(c) % (1 << 128) for c in start_counters]
    base_lo = np.array(
        [c & ((1 << 64) - 1) for c in starts], dtype=np.uint64
    ).reshape(-1, 1)
    base_hi = np.array(
        [(c >> 64) & ((1 << 64) - 1) for c in starts], dtype=np.uint64
    ).reshape(-1, 1)
    idx = np.arange(n_counters, dtype=np.uint64).reshape(1, -1)
    with np.errstate(over="ignore"):
        lo = base_lo + idx
    # Wrap-around of the low 64-bit limb carries into the high limb.
    carry = (lo < base_lo).astype(np.uint64)
    with np.errstate(over="ignore"):
        hi = base_hi + carry

    counter = np.empty((4, n_streams, n_counters), dtype=np.uint32)
    counter[0] = (lo & _MASK32).astype(np.uint32)
    counter[1] = (lo >> _SHIFT32).astype(np.uint32)
    counter[2] = (hi & _MASK32).astype(np.uint32)
    counter[3] = (hi >> _SHIFT32).astype(np.uint32)

    key_arr = keys.T.reshape(2, n_streams, 1)
    out = philox4x32(counter, key_arr)
    # Per stream, interleave output lanes exactly like the solo path:
    # (4, B, n) -> (B, n, 4) -> (B, n * 4) -> trim.
    return out.transpose(1, 2, 0).reshape(n_streams, -1)[:, :n_words]


#: Most counters the in-place generator evaluates at once, summed over
#: streams, in a draw that runs on the calling thread alone.  16384
#: counters is the largest per-phase float draw (a 512² compact lattice),
#: so scratch memory stays bounded however large a draw is.  A draw of at
#: least ``2 * BLOCK_COUNTERS`` counters splits across two threads, each
#: running blocks of up to ``2 * BLOCK_COUNTERS`` counters, so a stream
#: holds at most two scratches, each of at most that many counters.
BLOCK_COUNTERS = 16384

# ``x = [c0, c2]`` is multiplied plane-wise by ``[M0, M1]``.
_PAIR_MULTIPLIERS = np.array([PHILOX_M0, PHILOX_M1], dtype=np.uint64).reshape(2, 1, 1)
_PAIR_WEYL = np.array([PHILOX_W0, PHILOX_W1], dtype=np.uint64).reshape(1, 2, 1, 1)
_HIGH32 = np.uint64(0xFFFFFFFF00000000)
_SHIFT8 = np.uint64(8)
_UNIFORM_SCALE = np.float32(2.0**-24)


def _splits(n_streams: int, n_counters: int) -> bool:
    """Whether a draw of ``n_counters`` per stream is cut into two halves."""
    return n_counters > 1 and n_streams * n_counters >= 2 * BLOCK_COUNTERS


def _block_for(n_streams: int, n_counters: int) -> int:
    """Counters per stream in one block of an ``n_counters`` draw.

    Each half of a split draw runs in blocks of up to twice the unsplit
    bound, so a 512² sweep's 65,536 counters run as one block per half:
    halving the blocks doubles the GIL hand-offs between the threads.
    """
    if _splits(n_streams, n_counters):
        upper_half = n_counters - n_counters // 2
        return max(1, min(upper_half, 2 * BLOCK_COUNTERS // n_streams))
    return max(1, min(n_counters, BLOCK_COUNTERS // n_streams))


def _block_buffers(n_streams: int, block: int) -> dict:
    """The buffers one thread's blocks write: counter limbs and state pairs."""
    pair = (2, n_streams, block)
    return {
        "base_lo": np.empty((n_streams, 1), dtype=np.uint64),
        "base_hi": np.empty((n_streams, 1), dtype=np.uint64),
        "carry": np.empty((n_streams, block), dtype=bool),
        # The pair-stacked state (see _fill_blocks).
        "x": np.empty(pair, dtype=np.uint64),
        "y": np.empty(pair, dtype=np.uint64),
    }


def make_philox_scratch(n_streams: int, n_words: int) -> dict:
    """Preallocate every buffer :func:`philox_bits_into` needs.

    The returned dict is an opaque workspace for ``n_streams``
    independent streams drawing ``n_words`` words each; reusing it across
    calls is what makes the in-place generator allocation-free.  Its
    arrays hold one block, not the whole draw: at most
    :data:`BLOCK_COUNTERS` counters (summed over streams), or
    ``2 * BLOCK_COUNTERS`` for a draw large enough to split across two
    threads.  The first draw that splits adds the peer thread's buffers
    (the same block, sharing the read-only counter ramp ``idx``) inside
    the same dict, so a scratch holds at most two blocks.
    :func:`fit_philox_scratch` can aim it at any draw of at most
    ``n_words`` words per stream.
    """
    if n_streams < 1:
        raise ValueError(f"n_streams must be >= 1, got {n_streams}")
    if n_words < 1:
        raise ValueError(f"n_words must be >= 1, got {n_words}")
    n_counters = -(-n_words // 4)
    block = _block_for(n_streams, n_counters)
    return {
        "n_streams": n_streams,
        "n_words": n_words,
        "n_counters": n_counters,
        "block": block,
        "idx": np.arange(block, dtype=np.uint64),
        **_block_buffers(n_streams, block),
        "schedule_for": None,
        "schedule": None,
        # The peer thread's buffers, built by the first draw that splits.
        "upper": None,
        # Whether the last draw split (the streams count split draws).
        "split": False,
    }


def fit_philox_scratch(scratch: "dict | None", n_streams: int, n_words: int) -> dict:
    """A scratch for an ``(n_streams, n_words)`` draw, reusing ``scratch``.

    A scratch serves any draw whose block fits its arrays: ``scratch`` is
    then aimed at ``n_words`` in place and returned.  Only a missing
    scratch, another stream count or a draw that needs a bigger block
    builds a new one.  A stream that keeps the result holds one scratch
    whatever sizes it draws: at most two blocks (its own and the peer
    thread's), each of at most ``2 * BLOCK_COUNTERS`` counters.
    """
    n_counters = -(-n_words // 4)
    if (
        scratch is None
        or scratch["n_streams"] != n_streams
        or scratch["block"] < _block_for(n_streams, n_counters)
    ):
        return make_philox_scratch(n_streams, n_words)
    scratch["n_words"] = n_words
    scratch["n_counters"] = n_counters
    return scratch


def _key_schedule(keys: np.ndarray, rounds: int, scratch: dict) -> list:
    """Per-round ``[k0, k1] << 32``, cached in ``scratch`` per (keys, rounds)."""
    ident = (keys.tobytes(), rounds)
    if scratch["schedule_for"] != ident:
        n_streams = keys.shape[0]
        base = keys.T.astype(np.uint64).reshape(1, 2, n_streams, 1)
        steps = np.arange(rounds, dtype=np.uint64).reshape(-1, 1, 1, 1)
        schedule = ((base + steps * _PAIR_WEYL) & _MASK32) << _SHIFT32
        scratch["schedule"] = list(schedule)
        scratch["schedule_for"] = ident
    return scratch["schedule"]


def _fill_blocks(out, starts, schedule, idx, buffers, lo, hi, emit) -> None:
    """Draw counters ``[lo, hi)`` of every stream into ``out``, block by block.

    ``buffers`` (from :func:`_block_buffers`) sets the block size.  Each
    block's output pairs ``x = [c0, c2]``, ``y = [c1, c3]`` (uint64 views
    of the buffers, each word in the low 32 bits) go to
    ``emit(x, y, out, first, count)``, ``first`` being the block's first
    counter index.  This is all the peer thread runs; the two threads
    read ``starts``, ``schedule`` and ``idx`` and write only their own
    counter columns of ``out``.

    Inside the round network ``y`` is held shifted into the high 32 bits,
    so that one round is five whole-pair calls on two buffers::

        x *= [M0, M1]            # x = [M0*c0, M1*c2], full 64-bit products
        y ^= x[::-1]             # high: [c1, c3] ^ hi(M1*c2, M0*c0)
                                 # low:  lo(M1*c2, M0*c0) = [c1', c3']
        y ^= [k0, k1] << 32      # high: [c0', c2']
        x = y >> 32              # x = [c0', c2']
        y <<= 32                 # y = [c1', c3'] << 32
    """
    block = buffers["x"].shape[-1]
    base_lo = buffers["base_lo"]
    base_hi = buffers["base_hi"]
    for first in range(lo, hi, block):
        count = min(block, hi - first)
        for b, start in enumerate(starts):
            counter = (start + first) % (1 << 128)
            base_lo[b, 0] = counter & ((1 << 64) - 1)
            base_hi[b, 0] = counter >> 64
        x = buffers["x"][..., :count]
        y = buffers["y"][..., :count]
        x_swapped = x[::-1]
        with np.errstate(over="ignore"):
            # Counter limbs: x = [lo, hi] with lo = base + j (mod 2**64)
            # carrying into hi; then y takes their high and x their low
            # 32 bits: x = [c0, c2], y = [c1, c3] << 32.
            carry = buffers["carry"][:, :count]
            np.add(base_lo, idx[:count], out=x[0])
            np.less(x[0], base_lo, out=carry)
            np.add(base_hi, carry, out=x[1])
            np.bitwise_and(x, _HIGH32, out=y)
            np.bitwise_and(x, _MASK32, out=x)
            for key in schedule:
                np.multiply(x, _PAIR_MULTIPLIERS, out=x)
                np.bitwise_xor(y, x_swapped, out=y)
                np.bitwise_xor(y, key, out=y)
                np.right_shift(y, _SHIFT32, out=x)
                np.left_shift(y, _SHIFT32, out=y)
            np.right_shift(y, _SHIFT32, out=y)
        emit(x, y, out, first, count)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Peer:
    """The helper thread that draws the upper half of split draws.

    A bare daemon thread, lent to one draw at a time: the draw that has
    the peer holds ``lent``, ``_go`` hands the peer its half and
    ``_done`` hands control (and any error) back.  It runs nothing but
    :func:`_fill_blocks`: never a stream or backend method, which
    profilers may wrap with single-threaded span stacks.
    """

    def __init__(self) -> None:
        self.lent = threading.Lock()
        self._go = threading.Lock()
        self._done = threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._args: "tuple | None" = None
        self._error: "BaseException | None" = None
        threading.Thread(target=self._serve, name="philox-peer", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            try:
                _fill_blocks(*self._args)
            except BaseException as exc:  # finish() re-raises it in the caller
                self._error = exc
            self._args = None
            self._done.release()

    def start(self, *args) -> None:
        """Run ``_fill_blocks(*args)`` on the peer thread."""
        self._args = args
        self._go.release()

    def finish(self) -> None:
        """Wait for the started half, return the peer, re-raise its error."""
        self._done.acquire()
        error, self._error = self._error, None
        self.lent.release()
        if error is not None:
            raise error


# One peer per process, not one per stream: a scheduler holding many
# chains still starts a single thread.  ``_peer_made`` guards building it.
_peer: "_Peer | None" = None
_peer_made = threading.Lock()


def _lend_peer() -> "_Peer | None":
    """The peer, lent to the caller (built on first use); None if busy."""
    global _peer
    with _peer_made:
        if _peer is None:
            _peer = _Peer()
        peer = _peer
    return peer if peer.lent.acquire(blocking=False) else None


def _drop_peer() -> None:
    """Forget the peer in a forked child, which has no copy of its thread."""
    global _peer, _peer_made
    _peer = None
    _peer_made = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_peer)


def _draw(start_counters, keys, out, scratch, rounds, emit) -> None:
    """Validate a draw, then run it alone or split with the peer thread."""
    n_streams = scratch["n_streams"]
    n_words = scratch["n_words"]
    keys = np.asarray(keys, dtype=np.uint32)
    if keys.shape != (n_streams, 2):
        raise ValueError(
            f"keys must have shape ({n_streams}, 2), got {keys.shape}"
        )
    if len(start_counters) != n_streams:
        raise ValueError(
            f"{len(start_counters)} counters for {n_streams} streams"
        )
    if out.shape != (n_streams, n_words):
        raise ValueError(
            f"out must be {np.dtype(out.dtype).name} ({n_streams}, "
            f"{n_words}), got {out.dtype} {out.shape}"
        )
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")

    schedule = _key_schedule(keys, rounds, scratch)
    shared = (out, [int(s) for s in start_counters], schedule, scratch["idx"])
    n_counters = scratch["n_counters"]
    split = _splits(n_streams, n_counters) and _cpus() > 1
    if split and scratch["upper"] is None:
        scratch["upper"] = _block_buffers(n_streams, scratch["block"])
    peer = _lend_peer() if split else None
    scratch["split"] = peer is not None
    if peer is None:
        _fill_blocks(*shared, scratch, 0, n_counters, emit)
        return
    # The cut falls on a counter column: every stream's counters
    # [0, mid) are drawn here and [mid, n_counters) on the peer.
    mid = n_counters // 2
    peer.start(*shared, scratch["upper"], mid, n_counters, emit)
    try:
        _fill_blocks(*shared, scratch, 0, mid, emit)
    finally:
        peer.finish()


def _scatter_lanes(x, y, out: np.ndarray, first: int, count: int) -> None:
    """Interleave one block's output into ``out`` (casting to its dtype).

    Word ``i`` of counter ``j`` (lane ``i`` of ``c0, c1, c2, c3``) lands
    at ``out[:, 4 * j + i]``, exactly like the allocating paths; the
    final counter of a draw whose length is not a multiple of 4
    contributes only its leading lanes.
    """
    lanes = (x[0], y[0], x[1], y[1])
    n_streams, n_words = out.shape
    full = min(count, n_words // 4 - first)
    if full > 0:
        dst = out[:, 4 * first : 4 * (first + full)].reshape(n_streams, full, 4)
        for i, lane in enumerate(lanes):
            np.copyto(dst[:, :, i], lane[:, :full], casting="unsafe")
    if full < count:
        tail = 4 * (first + full)
        for i in range(n_words - tail):
            np.copyto(out[:, tail + i], lanes[i][:, full], casting="unsafe")


def _scatter_uniforms(x, y, out: np.ndarray, first: int, count: int) -> None:
    """Write one block into float32 ``out`` as uniforms in [0, 1)."""
    # Top 24 bits, exact in float32, scaled into [0, 1).
    np.right_shift(x, _SHIFT8, out=x)
    np.right_shift(y, _SHIFT8, out=y)
    _scatter_lanes(x, y, out, first, count)
    words = out[:, 4 * first : min(4 * (first + count), out.shape[1])]
    np.multiply(words, _UNIFORM_SCALE, out=words)


def philox_bits_into(
    start_counters: "list[int] | tuple[int, ...]",
    keys: np.ndarray,
    out: np.ndarray,
    scratch: dict,
    rounds: int = 10,
) -> np.ndarray:
    """Fill ``out`` with Philox words without allocating any arrays.

    Bit-identical to :func:`philox_uniform_bits_batched` (and, for a
    single stream, to :func:`philox_uniform_bits`): same counter layout,
    same round network, same lane interleave.  All intermediates live in
    ``scratch`` (from :func:`make_philox_scratch` or
    :func:`fit_philox_scratch` with matching ``n_streams``/``n_words``);
    ``out`` must be a C-contiguous ``(n_streams, n_words)`` uint32 array.
    A draw of at least ``2 * BLOCK_COUNTERS`` counters runs on two
    threads (see the module docstring) and writes the same words.
    """
    if out.dtype != np.uint32:
        raise ValueError(f"out must be uint32, got {out.dtype} {out.shape}")
    _draw(start_counters, keys, out, scratch, rounds, _scatter_lanes)
    return out


def philox_uniform_into(
    start_counters: "list[int] | tuple[int, ...]",
    keys: np.ndarray,
    out: np.ndarray,
    scratch: dict,
    rounds: int = 10,
) -> np.ndarray:
    """Fill ``out`` with float32 uniforms without allocating any arrays.

    Bit-identical to ``uint32_to_uniform`` of :func:`philox_bits_into`'s
    words, but each block is converted straight into ``out``, so no
    draw-sized word buffer exists.  ``out`` must be a C-contiguous
    ``(n_streams, n_words)`` float32 array; a large draw splits across
    two threads as :func:`philox_bits_into`'s does.
    """
    if out.dtype != np.float32:
        raise ValueError(f"out must be float32, got {out.dtype} {out.shape}")
    _draw(start_counters, keys, out, scratch, rounds, _scatter_uniforms)
    return out


def uint32_to_uniform(bits: np.ndarray) -> np.ndarray:
    """Map uint32 words to float32 uniforms in [0, 1).

    Uses the top 24 bits so every result is exactly representable in
    float32 (and the mapping is the one TF's stateless uniform uses).
    """
    return ((bits >> np.uint32(8)).astype(np.float32)) * np.float32(2.0**-24)
