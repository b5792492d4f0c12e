"""Per-core keyed random streams on top of Philox4x32-10.

A :class:`PhiloxStream` is the software analogue of a TPU core's stateless
RNG: a (seed, stream_id) pair selects the Philox key, and the stream keeps
a 128-bit counter that advances with every draw.  Two streams with
different ``stream_id`` (e.g. one per TensorCore) never overlap, and the
same (seed, stream_id, draw sequence) reproduces bit-identical output on
any platform — the property the distributed tests rely on to compare a
multi-core chain against a single-core one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .philox import fit_philox_scratch, philox_bits_into, philox_uniform_into

__all__ = ["PhiloxStream", "BatchedPhiloxStream", "split_key"]


def _splitmix64(x: int) -> int:
    """One step of splitmix64; used to whiten user seeds into keys."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def split_key(seed: int, stream_id: int) -> tuple[int, int]:
    """Derive a 64-bit Philox key (two uint32 words) from seed and stream id.

    Mixing both inputs through splitmix64 ensures that nearby seeds or
    consecutive stream ids give unrelated keys.
    """
    mixed = _splitmix64(_splitmix64(seed & 0xFFFFFFFFFFFFFFFF) ^ (stream_id & 0xFFFFFFFFFFFFFFFF))
    return mixed & 0xFFFFFFFF, (mixed >> 32) & 0xFFFFFFFF


class PhiloxStream:
    """A stateful, reproducible uniform-random stream for one logical core.

    Parameters
    ----------
    seed:
        Global experiment seed shared by every core.
    stream_id:
        Distinguishes streams (e.g. the core's linear id in the mesh).
    """

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._keys = np.array([split_key(self.seed, self.stream_id)], dtype=np.uint32)
        self._counter = 0
        # The one workspace every uniform_into/bits_into draw shares
        # (fit_philox_scratch); purely a performance cache, deliberately
        # excluded from state().
        self._scratch: dict | None = None
        # In-place draws split across two threads (see repro.rng.philox);
        # a performance count, not part of state().
        self.split_draws = 0

    def __repr__(self) -> str:
        return (
            f"PhiloxStream(seed={self.seed}, stream_id={self.stream_id}, "
            f"counter={self._counter})"
        )

    @property
    def counter(self) -> int:
        """Number of 128-bit Philox counter blocks consumed so far.

        Each block yields four 32-bit output words, and a draw always
        consumes whole blocks: ``random_bits(n)`` advances the counter by
        ``ceil(n / 4)``, discarding any unused tail words of the final
        block.  Checkpointing after a partial-block draw therefore resumes
        bit-identically — the next draw starts at the next whole block
        either way.
        """
        return self._counter

    def spawn(self, child_id: int) -> "PhiloxStream":
        """Create an independent child stream keyed off this stream's id."""
        return PhiloxStream(self.seed, _splitmix64(self.stream_id ^ (child_id + 1)) & 0xFFFFFFFFFFFFFFFF)

    def random_bits(self, n_words: int) -> np.ndarray:
        """Draw ``n_words`` uint32 words and advance the counter.

        Allocates only the result, which :meth:`bits_into` fills.
        """
        if n_words < 0:
            raise ValueError(f"n_words must be >= 0, got {n_words}")
        return self.bits_into(np.empty(n_words, dtype=np.uint32))

    def uniform(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Draw float32 uniforms in [0, 1) with the given shape.

        Allocates only the result, which :meth:`uniform_into` fills.
        """
        return self.uniform_into(np.empty(shape, dtype=np.float32))

    def uniform_into(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (C-contiguous float32) with uniforms, allocation-free.

        Bit-identical to ``uniform(out.shape)`` — same counter advance,
        same word-to-float mapping — but every intermediate lives in the
        one workspace cached on the stream, so steady-state draws perform
        no heap allocation.
        """
        if out.dtype != np.float32 or not out.flags["C_CONTIGUOUS"]:
            raise ValueError("out must be a C-contiguous float32 array")
        return self._fill_into(philox_uniform_into, out)

    def _fill_into(self, fill, out: np.ndarray) -> np.ndarray:
        """Run the in-place generator ``fill`` over ``out``; advance the counter."""
        size = int(out.size)
        if size == 0:
            return out
        self._scratch = fit_philox_scratch(self._scratch, 1, size)
        fill([self._counter], self._keys, out.reshape(1, size), self._scratch)
        self._counter += -(-size // 4)
        self.split_draws += self._scratch["split"]
        return out

    def bits_into(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (C-contiguous uint32) with raw Philox words, allocation-free.

        Bit-identical to ``random_bits(out.size).reshape(out.shape)`` —
        same counter advance of ``ceil(size / 4)`` blocks — but every
        intermediate lives in the same workspace :meth:`uniform_into`
        uses.  The words are the *raw* generator output: no top-24-bit
        shift is applied, so callers own the mapping from words to
        acceptance values (the packed engine compares them against
        integer thresholds directly).
        """
        if out.dtype != np.uint32 or not out.flags["C_CONTIGUOUS"]:
            raise ValueError("out must be a C-contiguous uint32 array")
        return self._fill_into(philox_bits_into, out)

    def state(self) -> dict:
        """Serializable state (for checkpoint/restart of long chains)."""
        return {
            "seed": self.seed,
            "stream_id": self.stream_id,
            "counter": self._counter,
        }

    @classmethod
    def from_state(cls, state: dict) -> "PhiloxStream":
        stream = cls(state["seed"], state["stream_id"])
        stream._counter = int(state["counter"])
        return stream


class BatchedPhiloxStream:
    """B independent Philox streams advanced together, one per chain.

    This is the RNG substrate of the batched ensemble: chain ``b`` owns
    the key derived from ``(seeds[b], stream_ids[b])`` and its own 128-bit
    counter, so a batched draw is *exactly* B solo draws — bit-identical
    per chain to a :class:`PhiloxStream` fed the same (seed, stream_id)
    and draw sequence — evaluated in one vectorised Philox pass.

    Counters need not be aligned across chains (chains restored from
    checkpoints taken at different points batch fine); they advance in
    lockstep from wherever each one starts.
    """

    def __init__(
        self,
        seeds: "int | Sequence[int]",
        stream_ids: "Sequence[int]",
    ) -> None:
        stream_ids = [int(s) for s in stream_ids]
        if not stream_ids:
            raise ValueError("need at least one stream id")
        if isinstance(seeds, (int, np.integer)):
            seeds = [int(seeds)] * len(stream_ids)
        else:
            seeds = [int(s) for s in seeds]
        if len(seeds) != len(stream_ids):
            raise ValueError(
                f"{len(seeds)} seeds for {len(stream_ids)} stream ids"
            )
        self.seeds = seeds
        self.stream_ids = stream_ids
        self._keys = np.array(
            [split_key(seed, sid) for seed, sid in zip(seeds, stream_ids)],
            dtype=np.uint32,
        )
        self._counters = [0] * len(stream_ids)
        # The one workspace every in-place draw shares (perf cache only;
        # never serialized).
        self._scratch: dict | None = None
        # In-place draws split across two threads (see
        # PhiloxStream.split_draws); not part of state().
        self.split_draws = 0

    @classmethod
    def from_streams(cls, streams: "Sequence[PhiloxStream]") -> "BatchedPhiloxStream":
        """Bundle existing solo streams, carrying their counters and the
        sum of their split-draw counts over."""
        if not streams:
            raise ValueError("need at least one stream")
        batched = cls([s.seed for s in streams], [s.stream_id for s in streams])
        batched._counters = [s.counter for s in streams]
        batched.split_draws = sum(s.split_draws for s in streams)
        return batched

    def __repr__(self) -> str:
        return (
            f"BatchedPhiloxStream(n_chains={self.n_chains}, "
            f"counters={self._counters})"
        )

    @property
    def n_chains(self) -> int:
        return len(self.stream_ids)

    @property
    def counters(self) -> list[int]:
        """Per-chain 128-bit counter blocks consumed (see PhiloxStream.counter)."""
        return list(self._counters)

    def chain(self, index: int) -> PhiloxStream:
        """Split chain ``index`` back out as an equivalent solo stream."""
        stream = PhiloxStream(self.seeds[index], self.stream_ids[index])
        stream._counter = self._counters[index]
        return stream

    def random_bits(self, n_words: int) -> np.ndarray:
        """Draw ``n_words`` uint32 words per chain; returns ``(B, n_words)``.

        Allocates only the result, which :meth:`bits_into` fills.
        """
        if n_words < 0:
            raise ValueError(f"n_words must be >= 0, got {n_words}")
        return self.bits_into(np.empty((self.n_chains, n_words), dtype=np.uint32))

    def uniform(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Draw float32 uniforms of the given *batched* shape.

        ``shape`` is the full output shape including the leading chain
        axis, so updaters can request uniforms shaped like their batched
        state without special-casing; ``shape[0]`` must equal
        :attr:`n_chains`.  Chain ``b`` of the result is bit-identical to
        ``self.chain(b).uniform(shape[1:])``.
        """
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        if not shape or shape[0] != self.n_chains:
            raise ValueError(
                f"batched uniform shape {shape} must lead with the chain "
                f"axis (n_chains={self.n_chains})"
            )
        return self.uniform_into(np.empty(shape, dtype=np.float32))

    def uniform_into(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with per-chain uniforms, allocation-free.

        ``out`` must be C-contiguous float32 with the chain axis leading
        (``out.shape[0] == n_chains``); chain ``b`` receives exactly what
        ``uniform(out.shape)[b]`` would, with the same counter advance.
        """
        if out.dtype != np.float32 or not out.flags["C_CONTIGUOUS"]:
            raise ValueError("out must be a C-contiguous float32 array")
        return self._fill_into(philox_uniform_into, out, "uniform_into")

    def _fill_into(self, fill, out: np.ndarray, name: str) -> np.ndarray:
        """Run the in-place generator ``fill`` per chain; advance the counters."""
        if out.ndim == 0 or out.shape[0] != self.n_chains:
            raise ValueError(
                f"batched {name} shape {out.shape} must lead with "
                f"the chain axis (n_chains={self.n_chains})"
            )
        per_chain = int(out.size) // self.n_chains
        if per_chain == 0:
            return out
        self._scratch = fit_philox_scratch(self._scratch, self.n_chains, per_chain)
        fill(
            self._counters,
            self._keys,
            out.reshape(self.n_chains, per_chain),
            self._scratch,
        )
        n_counters = -(-per_chain // 4)
        self._counters = [c + n_counters for c in self._counters]
        self.split_draws += self._scratch["split"]
        return out

    def bits_into(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with per-chain raw Philox words, allocation-free.

        ``out`` must be C-contiguous uint32 with the chain axis leading
        (``out.shape[0] == n_chains``); chain ``b`` receives exactly what
        ``self.chain(b).bits_into(...)`` would for the same per-chain
        word count, with the same counter advance.  As with
        :meth:`PhiloxStream.bits_into`, the words are raw generator
        output — no top-24-bit shift.
        """
        if out.dtype != np.uint32 or not out.flags["C_CONTIGUOUS"]:
            raise ValueError("out must be a C-contiguous uint32 array")
        return self._fill_into(philox_bits_into, out, "bits_into")

    def state(self) -> dict:
        """Serializable state (for checkpoint/restart of ensembles)."""
        return {
            "seeds": list(self.seeds),
            "stream_ids": list(self.stream_ids),
            "counters": list(self._counters),
        }

    @classmethod
    def from_state(cls, state: dict) -> "BatchedPhiloxStream":
        batched = cls(state["seeds"], state["stream_ids"])
        batched._counters = [int(c) for c in state["counters"]]
        return batched
