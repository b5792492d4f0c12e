"""Backend op vocabulary for the Ising updaters.

The paper expresses one lattice sweep entirely in terms of a small set of
TensorFlow/XLA operations: batched matmul (MXU), elementwise arithmetic,
comparison and exp (VPU), stateless uniform RNG (VPU), and slicing and
rolling (data formatting).  Every updater in :mod:`repro.core` is
written against this vocabulary, so the same algorithm code runs on:

* :class:`~repro.backend.numpy_backend.NumpyBackend` — plain numpy, no
  accounting (fast path, used by the physics tests);
* :class:`~repro.backend.tpu_backend.TPUBackend` — numpy execution plus
  per-op time charging into a simulated TensorCore's profiler, and
  optional bfloat16 storage rounding (used by the performance harness and
  the bf16 study).

Both run the op bodies defined here.  The allocating ops are the
elementwise engine's vocabulary, and each books its modeled cost only
when the backend has a :attr:`Backend.core`; without one it does not
even compute the flops and byte counts, so a plain backend pays nothing
for accounting it would discard.  The in-place ``*_into`` ops are the
fused and packed engines' vocabulary, which run on numpy backends only
(:func:`~repro.core.config.check_config` refuses both on the TPU cost
model), so they book nothing.

Every op quantizes its *result* with the backend dtype, which emulates a
device that stores all intermediates in that format.  Matmuls accumulate
in float32 regardless of dtype (MXU semantics).
"""

from __future__ import annotations

import numpy as np

from . import packed_ops
from ..rng.streams import PhiloxStream
from ..tpu.dtypes import DType, FLOAT32, resolve_dtype

__all__ = ["Backend"]

#: The bit view of a float32 tensor (a dtype instance views fastest).
_UINT32 = np.dtype(np.uint32)


class Backend:
    """Executes the op vocabulary in numpy, charging a core when bound.

    ``core`` is ``None`` here, which makes ``Backend`` a pure numpy
    executor; an accounting subclass binds a simulated TensorCore, and
    every allocating op then books its (category, flops, bytes, batch)
    there.
    """

    def __init__(self, dtype: DType | str = FLOAT32) -> None:
        self.dtype = resolve_dtype(dtype)
        #: The simulated TensorCore every op charges, or ``None``.
        self.core = None
        # Scratch for in-place quantization (bf16 RNE needs a uint32 bias
        # buffer and a bool NaN mask): per-shape views of one pair sized
        # for the largest array rounded so far, so a new shape costs two
        # views, not two arrays.  Perf cache only — never serialized.
        self._qscratch: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._qflat: tuple[np.ndarray, np.ndarray] | None = None

    # -- charging ----------------------------------------------------------
    #
    # Allocating ops call _charge only under ``if self.core is not None``,
    # and build its flops and byte arguments inside that branch.

    def _charge(
        self,
        category: str,
        *,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        batch: float | None = None,
    ) -> None:
        """Book the cost of one op on :attr:`core`.

        ``batch`` is the number of independent matrix blocks in a batched
        matmul (drives the MXU pipeline-utilization ramp).
        """
        self.core.charge_op(
            category, flops=flops, bytes_moved=bytes_moved, batch=batch
        )

    def _nbytes(self, *arrays: np.ndarray) -> float:
        """Total HBM bytes of the given arrays under the backend dtype."""
        return float(sum(a.size for a in arrays)) * self.dtype.itemsize

    # -- tensor materialisation -------------------------------------------

    def array(self, x) -> np.ndarray:
        """Materialise ``x`` as a device tensor (quantized to the dtype)."""
        return self.dtype.quantize(np.asarray(x, dtype=np.float32))

    # -- MXU ---------------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched matrix multiply with float32 accumulation.

        Inputs are assumed already quantized (the MXU rounds its inputs to
        bfloat16; our tensors are stored pre-rounded).  The result is
        quantized on store.
        """
        out = np.matmul(a.astype(np.float32), b.astype(np.float32))
        if self.core is not None:
            # FLOP count: 2 * (output elements) * (contraction length).
            k = a.shape[-1]
            batch = out.size / (out.shape[-1] * out.shape[-2]) if out.ndim >= 2 else 1.0
            self._charge(
                "mxu",
                flops=2.0 * out.size * k,
                bytes_moved=self._nbytes(a, b, out),
                batch=batch,
            )
        return self.dtype.quantize(out)

    # -- VPU: elementwise --------------------------------------------------

    def _elementwise(self, out: np.ndarray, *operands: np.ndarray, flops_per_elem: float = 1.0) -> np.ndarray:
        if self.core is not None:
            self._charge(
                "vpu",
                flops=flops_per_elem * out.size,
                bytes_moved=self._nbytes(*operands, out),
            )
        return self.dtype.quantize(out)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._elementwise(np.add(a, b), a, b)

    def subtract(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._elementwise(np.subtract(a, b), a, b)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._elementwise(np.multiply(a, b), a, b)

    def exp(self, a: np.ndarray) -> np.ndarray:
        # Transcendentals cost several VPU ops; use the common estimate of
        # ~8 flops per element for exp.  Energy-lowering flips produce
        # positive exponents that may overflow float32 to +inf, which is
        # the correct "always accept" ratio — silence the warning.
        with np.errstate(over="ignore"):
            out = np.exp(a)
        return self._elementwise(out, a, flops_per_elem=8.0)

    def less(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise a < b as 0.0/1.0 (devices keep masks in float)."""
        out = np.less(a, b).astype(np.float32)
        return self._elementwise(out, a, b)

    def add_at_slice(self, target: np.ndarray, index: tuple, update: np.ndarray) -> np.ndarray:
        """In-place ``target[index] += update`` (boundary compensation).

        Counted as formatting plus a vector add: the dominant cost on real
        hardware is the strided gather/scatter of the boundary slab.
        """
        target[index] = self.dtype.quantize(target[index] + update)
        if self.core is not None:
            self._charge(
                "formatting",
                flops=float(update.size),
                bytes_moved=2.0 * self._nbytes(update),
            )
        return target

    def shifted_pair_sum(self, a: np.ndarray, axis: int, offset: int) -> np.ndarray:
        """``a + shift(a, offset)`` along a block axis, zero-filled at the edge.

        This is the appendix-7.2 building block: one 2-tap convolution
        replacing one band matmul — e.g. ``offset=-1, axis=-1`` computes
        ``a[..., j] + a[..., j-1]`` with 0 at j = 0, exactly what
        ``matmul(a, K_hat)`` produces, but with far better operand reuse
        on the MXU.  Block-boundary compensation stays identical to the
        matmul path.  Only the two block axes (-1, -2) are legal.
        """
        if axis not in (-1, -2):
            raise ValueError(f"axis must be -1 or -2 (block axes), got {axis}")
        if offset not in (-1, 1):
            raise ValueError(f"offset must be +1 or -1, got {offset}")
        shifted = np.zeros_like(a, dtype=np.float32)
        src = slice(None, -1) if offset == -1 else slice(1, None)
        dst = slice(1, None) if offset == -1 else slice(None, -1)
        if axis == -1:
            shifted[..., dst] = a[..., src]
        else:
            shifted[..., dst, :] = a[..., src, :]
        out = (a + shifted).astype(np.float32)
        if self.core is not None:
            # 2-tap im2col conv: 2 MACs = 4 flops per output element.
            self._charge(
                "conv", flops=4.0 * out.size, bytes_moved=self._nbytes(a, out)
            )
        return self.dtype.quantize(out)

    def conv2d_neighbors(self, a: np.ndarray) -> np.ndarray:
        """4-neighbour sum on the torus as one fused convolution.

        This is the appendix-7.2 implementation: a ``tf.nn.conv2d`` with a
        cross-shaped 3x3 kernel, which the MXU executes far more
        efficiently than the band matmuls because each loaded operand is
        reused across the whole kernel window.  Charged to the "conv"
        category so the cost model can rate it separately.

        The lattice axes are the trailing two, so a ``(batch, rows,
        cols)`` ensemble stack convolves each chain independently.
        """
        out = (
            np.roll(a, 1, axis=-2)
            + np.roll(a, -1, axis=-2)
            + np.roll(a, 1, axis=-1)
            + np.roll(a, -1, axis=-1)
        ).astype(np.float32)
        if self.core is not None:
            # im2col-style dense conv: 2 flops per kernel tap per output element.
            self._charge(
                "conv", flops=2.0 * 9.0 * out.size, bytes_moved=self._nbytes(a, out)
            )
        return self.dtype.quantize(out)

    # -- VPU: RNG ------------------------------------------------------------

    def random_uniform(
        self, shape: tuple[int, ...], stream: PhiloxStream
    ) -> np.ndarray:
        """Stateless-style uniform tensor in [0, 1) from a Philox stream.

        ``stream`` may also be a
        :class:`~repro.rng.streams.BatchedPhiloxStream`, in which case
        ``shape`` must lead with the chain axis and every chain draws
        from its own key — the draw contract of the batched ensemble.
        """
        out = stream.uniform(shape)
        if self.core is not None:
            # Philox4x32-10: 10 rounds x (2 mul + 4 xor/add) per 4 words,
            # plus the int->float conversion: ~20 flops per element.
            self._charge(
                "vpu", flops=20.0 * out.size, bytes_moved=self._nbytes(out)
            )
        return self.dtype.quantize(out)

    # -- in-place (fused) vocabulary ---------------------------------------
    #
    # Every ``*_into`` op writes into caller-provided buffers so
    # steady-state sweeps make zero heap allocations.  One with an
    # allocating twin is bit-identical to it — same numpy computation,
    # same result quantization; ``add_exact_into`` and ``flip_below_into``
    # equal a sequence of allocating ops on values every dtype holds
    # exactly.  Only numpy backends run them, so none books a charge.

    def _quantize_into(self, out: np.ndarray) -> np.ndarray:
        """Apply the dtype's store rounding to ``out`` in place."""
        rounder = self.dtype.quantize_into
        if rounder is None:
            return out
        scratch = self._qscratch.get(out.shape)
        if scratch is None:
            size = out.size
            flat = self._qflat
            if flat is None or flat[0].size < size:
                flat = self._qflat = (
                    np.empty(size, dtype=np.uint32),
                    np.empty(size, dtype=bool),
                )
                self._qscratch.clear()
            scratch = tuple(a[:size].reshape(out.shape) for a in flat)
            self._qscratch[out.shape] = scratch
        return rounder(out, scratch[0], scratch[1])

    def add_into(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.add(a, b, out=out)
        return self._quantize_into(out)

    def multiply_into(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(a, b, out=out)
        return self._quantize_into(out)

    def exp_into(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            np.exp(a, out=out)
        return self._quantize_into(out)

    def add_exact_into(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = a + b`` for sums every dtype holds exactly.

        The fused neighbour sums add spins and partial sums of spins:
        small integers, exact in float32 and bfloat16, so the dtype's
        store rounding would be the identity and is skipped.  Without
        it, ``out`` may be any view, a strided torus edge included, and
        may be ``a`` itself (an in-place add).
        """
        np.add(a, b, out=out)
        return out

    def flip_below_into(
        self,
        probs: np.ndarray,
        ratio: np.ndarray,
        sign_mask: np.ndarray,
        sigma: np.ndarray,
    ) -> np.ndarray:
        """Negate the spins ``sigma`` where ``probs < ratio``, in place.

        The Metropolis flip as bit operations: the sign bit of ``probs -
        ratio`` is set exactly where ``probs < ratio``, a ``+inf`` ratio
        included (``probs == ratio`` gives ``+0.0``); ``sign_mask`` keeps
        it where a site may flip (a 0-d ``0x80000000`` for every site,
        or a uint32 array broadcasting against ``sigma``), and it
        is XORed into the sign of each ±1 spin.  The result equals the
        elementwise ``sigma - 2 * mask * (probs < ratio) * sigma`` in
        every dtype.  ``ratio`` is scratch: it is left holding the
        masked sign bits.
        """
        np.subtract(probs, ratio, out=ratio)
        below = ratio.view(_UINT32)
        np.bitwise_and(below, sign_mask, out=below)
        bits = sigma.view(_UINT32)
        np.bitwise_xor(bits, below, out=bits)
        return sigma

    def take_into(self, table: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather ``table[indices]`` into ``out`` (acceptance-table lookup).

        ``indices`` should be non-negative, in range and of dtype
        ``np.intp``, as :meth:`acceptance_index_into` writes them for an
        :class:`~repro.core.accept.AcceptanceTable`: numpy converts any
        other integer dtype into a fresh intp array on every call, and
        its wrap loop slows down on negative indices.  ``mode="wrap"``
        skips the bounds check; on in-range intp indices it measured as
        fast as ``"clip"`` and faster than ``"raise"``.  The table
        entries are already quantized device values, so no store rounding
        is needed.
        """
        table.take(indices, out=out, mode="wrap")
        return out

    def uniform_into(self, stream: PhiloxStream, out: np.ndarray) -> np.ndarray:
        """In-place twin of :meth:`random_uniform` (same counter advance)."""
        stream.uniform_into(out)
        return self._quantize_into(out)

    def acceptance_index_into(
        self,
        sigma: np.ndarray,
        nn: np.ndarray,
        idx_out: np.ndarray,
        fscratch: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        """Map (sigma, integer nn sum) pairs to acceptance-table slots.

        Computes ``idx = 5*sigma + nn + offsets``.  ``5*sigma + nn`` takes
        the odd values -9..9, and :class:`~repro.core.accept.AcceptanceTable`
        ``offsets`` add the +9 bias (a 0-d ``9`` for scalar beta, the
        per-chain ``19*b + 9`` otherwise), so every index lands in
        ``[0, table size)``.  ``idx_out`` should be ``np.intp``, the
        dtype :meth:`take_into` gathers with no conversion.  The
        arithmetic runs in raw float32 — NOT through the dtype's store
        rounding — because table offsets for large ensembles exceed
        bfloat16's integer range; every value involved is an exact
        float32 integer below 2**24, so the final int cast is exact.
        """
        np.multiply(sigma, np.float32(5.0), out=fscratch)
        np.add(fscratch, nn, out=fscratch)
        np.add(fscratch, offsets, out=fscratch)
        np.copyto(idx_out, fscratch, casting="unsafe")
        return idx_out

    @staticmethod
    def _roll_raw(a: np.ndarray, shift: int, axis: int, out: np.ndarray) -> np.ndarray:
        """``out = np.roll(a, shift, axis)`` without allocating."""
        n = a.shape[axis]
        shift %= n
        if shift == 0:
            np.copyto(out, a)
            return out
        src_head = [slice(None)] * a.ndim
        src_tail = [slice(None)] * a.ndim
        dst_head = [slice(None)] * a.ndim
        dst_tail = [slice(None)] * a.ndim
        src_head[axis] = slice(n - shift, None)
        dst_head[axis] = slice(None, shift)
        src_tail[axis] = slice(None, n - shift)
        dst_tail[axis] = slice(shift, None)
        np.copyto(out[tuple(dst_head)], a[tuple(src_head)])
        np.copyto(out[tuple(dst_tail)], a[tuple(src_tail)])
        return out

    def roll_into(self, a: np.ndarray, shift: int, axis: int, out: np.ndarray) -> np.ndarray:
        return self._roll_raw(a, shift, axis, out)

    def conv2d_neighbors_into(
        self, a: np.ndarray, out: np.ndarray, tmp: np.ndarray
    ) -> np.ndarray:
        """In-place twin of :meth:`conv2d_neighbors` (``tmp`` is a roll buffer)."""
        if out is a or tmp is a or tmp is out:
            raise ValueError("a, out and tmp must be distinct buffers")
        # Same left-to-right float32 sum as the allocating twin, with each
        # rolled operand staged through ``tmp``.
        self._roll_raw(a, 1, -2, out)
        self._roll_raw(a, -1, -2, tmp)
        np.add(out, tmp, out=out)
        self._roll_raw(a, 1, -1, tmp)
        np.add(out, tmp, out=out)
        self._roll_raw(a, -1, -1, tmp)
        np.add(out, tmp, out=out)
        return self._quantize_into(out)

    # -- packed (multi-spin) vocabulary ------------------------------------
    #
    # Word kernels of the ``packed`` dtype: 64 spins per uint64 word,
    # little-endian bit order (see repro.backend.packed_ops for the
    # representation contract).

    def packed_bits_into(self, stream: PhiloxStream, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (C-contiguous uint32) with raw Philox words.

        Same draw and counter advance as ``stream.bits_into(out)`` —
        ``ceil(out.size / 4)`` blocks.  The words are raw: the caller
        owns the lane split and threshold comparison.
        """
        stream.bits_into(out)
        return out

    def packed_xor_into(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = a ^ b`` on uint64 word planes; ``out`` may alias either input.

        Used both for the neighbour disagreement planes (``spins ^
        neighbour``) and for applying a flip mask to the spin words in
        place (``spins ^= flips``) — a self-inverse store, which is why
        aliasing is explicitly allowed here and nowhere else in the
        packed vocabulary.
        """
        np.bitwise_xor(a, b, out=out)
        return out

    def packed_shift_cols_into(
        self, words: np.ndarray, direction: int, out: np.ndarray, tmp: np.ndarray
    ) -> np.ndarray:
        """Column-neighbour bit plane with word carry (torus wrap).

        ``direction=+1`` is the column-(j-1) plane, ``-1`` the
        column-(j+1) plane; see :func:`repro.backend.packed_ops.shift_cols_into`
        for the exact bit algebra and aliasing rules (``out``/``tmp``
        must not alias ``words`` or each other).  Row neighbours need no
        bit carry — use :meth:`roll_into` on axis ``-2`` for those.
        """
        if out is words or tmp is words or tmp is out:
            raise ValueError("words, out and tmp must be distinct buffers")
        packed_ops.shift_cols_into(words, direction, out, tmp)
        return out

    def packed_compare_pack_into(
        self,
        values: np.ndarray,
        threshold: "np.ndarray | np.number",
        saturate: "np.ndarray | np.uint64",
        out: np.ndarray,
        cmp: np.ndarray,
        byte_plane: np.ndarray,
    ) -> np.ndarray:
        """Pack the acceptance mask ``(values < threshold) | saturate`` into words.

        See :func:`repro.backend.packed_ops.compare_pack_into` for dtype,
        shape and aliasing contracts.
        """
        packed_ops.compare_pack_into(values, threshold, saturate, out, cmp, byte_plane)
        return out

    def packed_full_adder_into(
        self,
        d1: np.ndarray,
        d2: np.ndarray,
        d3: np.ndarray,
        d4: np.ndarray,
        low: np.ndarray,
        bit1: np.ndarray,
        bit2: np.ndarray,
        s1: np.ndarray,
        s2: np.ndarray,
    ) -> None:
        """Bitwise full adders: neighbour disagreement count per bit lane.

        In-place carry network of the multi-spin popcount (12 word ops);
        ``d1``/``d3`` are consumed as carry scratch.  See
        :func:`repro.backend.packed_ops.full_adder_into` for the full
        aliasing contract.
        """
        packed_ops.full_adder_into(d1, d2, d3, d4, low, bit1, bit2, s1, s2)

    def packed_flip_select_into(
        self,
        low: np.ndarray,
        bit1: np.ndarray,
        bit2: np.ndarray,
        r1: np.ndarray,
        r0: np.ndarray,
        out: np.ndarray,
        tmp: np.ndarray,
    ) -> np.ndarray:
        """Three-case Metropolis flip mask from count planes + acceptance words.

        ``out = (k>=2) | (k==1 & r1) | (k==0 & r0)`` in 9 word ops; see
        :func:`repro.backend.packed_ops.flip_select_into` for aliasing
        rules (``out``/``tmp`` must not alias any input).
        """
        if out is tmp:
            raise ValueError("out and tmp must be distinct buffers")
        packed_ops.flip_select_into(low, bit1, bit2, r1, r0, out, tmp)
        return out

    # -- data formatting -------------------------------------------------------

    def roll(self, a: np.ndarray, shift: int, axis: int) -> np.ndarray:
        out = np.roll(a, shift, axis=axis)
        if self.core is not None:
            self._charge("formatting", bytes_moved=2.0 * self._nbytes(a))
        return out

    def slice_copy(self, a: np.ndarray, index: tuple) -> np.ndarray:
        """Materialise a copy of ``a[index]`` (XLA slices always copy)."""
        out = np.ascontiguousarray(a[index])
        if self.core is not None:
            self._charge("formatting", bytes_moved=2.0 * self._nbytes(out))
        return out
