"""Backend op-vocabulary tests: numerics and cost charging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.backend.tpu_backend import TPUBackend
from repro.core.fused import SIGN_BIT, sign_mask_of
from repro.rng import PhiloxStream
from repro.tpu.dtypes import BFLOAT16
from repro.tpu.tensorcore import TensorCore


@pytest.fixture(params=["float32", "bfloat16"])
def any_dtype_backend(request):
    return NumpyBackend(request.param)


class TestNumpyBackendOps:
    def test_matmul_float32_accumulation(self, backend):
        a = np.full((4, 4), 1.0, dtype=np.float32)
        out = backend.matmul(a, a)
        assert np.all(out == 4.0)

    def test_elementwise_ops(self, backend):
        x = np.array([1.0, 2.0], dtype=np.float32)
        y = np.array([3.0, 4.0], dtype=np.float32)
        assert np.array_equal(backend.add(x, y), [4.0, 6.0])
        assert np.array_equal(backend.subtract(y, x), [2.0, 2.0])
        assert np.array_equal(backend.multiply(x, y), [3.0, 8.0])
        assert np.array_equal(backend.less(x, y), [1.0, 1.0])
        assert np.array_equal(backend.less(y, x), [0.0, 0.0])

    def test_exp(self, backend):
        out = backend.exp(np.array([0.0, 1.0], dtype=np.float32))
        assert out[0] == 1.0
        assert out[1] == pytest.approx(np.e, rel=1e-6)

    def test_exp_overflow_to_inf_is_silent(self, backend):
        out = backend.exp(np.array([200.0], dtype=np.float32))
        assert out[0] == np.inf

    def test_formatting_ops(self, backend):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert np.array_equal(backend.roll(x, 1, 0), np.roll(x, 1, 0))
        assert np.array_equal(backend.slice_copy(x, (slice(None), 0)), x[:, 0])

    def test_add_at_slice(self, backend):
        x = np.zeros((3, 4), dtype=np.float32)
        backend.add_at_slice(x, (0, slice(None)), np.ones(4, dtype=np.float32))
        assert np.all(x[0] == 1.0)
        assert np.all(x[1:] == 0.0)

    def test_random_uniform(self, backend):
        u = backend.random_uniform((8, 8), PhiloxStream(1, 0))
        assert u.shape == (8, 8)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_array_quantizes(self):
        be = NumpyBackend("bfloat16")
        out = be.array([0.1])
        assert out[0] == np.float32(0.100097656)


class TestBfloat16Numerics:
    def test_all_ops_produce_representable_values(self, bf16_backend):
        from repro.tpu.bfloat16 import is_representable

        stream = PhiloxStream(3, 0)
        a = bf16_backend.random_uniform((16, 16), stream)
        b = bf16_backend.random_uniform((16, 16), stream)
        for out in (
            bf16_backend.add(a, b),
            bf16_backend.multiply(a, b),
            bf16_backend.exp(a),
            bf16_backend.matmul(a, b),
        ):
            assert np.all(is_representable(out))

    def test_matmul_accumulates_in_float32(self, bf16_backend):
        # Summing 256 ones is exact in f32 accumulation but the bf16
        # result (256) is representable, so no precision is lost here —
        # whereas naive bf16 accumulation of 1 + ... would stall at 256
        # anyway; test a case where bf16 accumulation would round badly:
        # 512 entries of 1.0 plus one entry of 0.5 -> 512.5 -> bf16 512.
        n = 513
        a = np.ones((1, n), dtype=np.float32)
        b = np.ones((n, 1), dtype=np.float32)
        b[0, 0] = 0.5
        out = bf16_backend.matmul(a, b)
        assert out[0, 0] == 512.0  # f32 exact 512.5, rounded to bf16 512


class TestTPUBackendCharging:
    def test_identical_numerics_to_numpy_backend(self):
        core = TensorCore(core_id=0)
        tpu = TPUBackend(core, dtype="float32")
        plain = NumpyBackend("float32")
        stream_a, stream_b = PhiloxStream(4, 0), PhiloxStream(4, 0)
        a1 = tpu.random_uniform((8, 8), stream_a)
        a2 = plain.random_uniform((8, 8), stream_b)
        assert np.array_equal(a1, a2)
        assert np.array_equal(tpu.matmul(a1, a1), plain.matmul(a2, a2))

    def test_charges_flow_to_core(self):
        core = TensorCore(core_id=0)
        tpu = TPUBackend(core)
        a = tpu.array(np.ones((64, 64), dtype=np.float32))
        tpu.matmul(a, a)
        assert core.profiler.seconds["mxu"] > 0
        assert core.profiler.flops["mxu"] == pytest.approx(2 * 64**3)

    def test_bfloat16_default_and_byte_accounting(self):
        core = TensorCore(core_id=0)
        tpu = TPUBackend(core)
        assert tpu.dtype is BFLOAT16
        a = tpu.array(np.ones((32, 32), dtype=np.float32))
        tpu.add(a, a)
        # operands + result at 2 bytes each.
        assert core.profiler.bytes["vpu"] == pytest.approx(3 * 32 * 32 * 2)

    def test_batch_forwarded_for_batched_matmul(self):
        core = TensorCore(core_id=0, op_log=[])
        tpu = TPUBackend(core)
        a = tpu.array(np.ones((5, 7, 8, 8), dtype=np.float32))
        k = tpu.array(np.ones((8, 8), dtype=np.float32))
        tpu.matmul(a, k)
        categories = [entry for entry in core.op_log if entry[0] == "mxu"]
        assert categories[-1][3] == pytest.approx(35.0)  # 5 * 7 blocks


class TestInPlaceTwins:
    """Every ``*_into`` op must equal its allocating counterpart bit-for-bit."""

    @pytest.fixture(params=["float32", "bfloat16"])
    def any_backend(self, request):
        return NumpyBackend(request.param)

    def test_elementwise_into_twins(self, any_backend):
        b = any_backend
        rng = np.random.default_rng(3)
        x = b.array(rng.normal(size=(6, 6)))
        y = b.array(rng.normal(size=(6, 6)))
        out = np.empty_like(x)
        np.testing.assert_array_equal(b.add_into(x, y, out), b.add(x, y))
        np.testing.assert_array_equal(b.multiply_into(x, y, out), b.multiply(x, y))
        np.testing.assert_array_equal(b.exp_into(x, out), b.exp(x))

    def test_uniform_into_twin(self, any_backend):
        from repro.rng import PhiloxStream

        out = np.empty((5, 5), dtype=np.float32)
        any_backend.uniform_into(PhiloxStream(3, 1), out)
        expected = any_backend.random_uniform((5, 5), PhiloxStream(3, 1))
        np.testing.assert_array_equal(out, expected)

    def test_rounding_scratch_is_one_pair_for_every_shape(self, bf16_backend):
        # Draw-ahead rounds a (chains, k * words) buffer for each k a run
        # uses; each new shape must cost views, not arrays.
        shapes = [(1, 4), (3, 4096), (2, 9), (3, 100), (1, 8192), (7,)]
        for shape in shapes:
            out = np.empty(shape, dtype=np.float32)
            bf16_backend.uniform_into(PhiloxStream(3, 1), out)
            expected = bf16_backend.random_uniform(shape, PhiloxStream(3, 1))
            np.testing.assert_array_equal(out, expected)
        bias, nan = bf16_backend._qflat
        assert bias.size == nan.size == 3 * 4096
        for scratch in bf16_backend._qscratch.values():
            assert all(np.shares_memory(a, b) for a, b in zip(scratch, (bias, nan)))

    def test_take_into_gathers_biased_slots(self, backend):
        # Every (sigma, nn) pair, biased into a 19-slot band: the gather
        # sees only non-negative intp indices and returns slot 5s+nn+9.
        sigma = np.repeat([-1.0, 1.0], 5).astype(np.float32)
        nn = np.tile([-4.0, -2.0, 0.0, 2.0, 4.0], 2).astype(np.float32)
        idx = np.empty(10, dtype=np.intp)
        backend.acceptance_index_into(
            sigma, nn, idx, np.empty(10, dtype=np.float32), np.float32(9.0)
        )
        out = np.empty(10, dtype=np.float32)
        backend.take_into(np.arange(19, dtype=np.float32), idx, out)
        np.testing.assert_array_equal(out, 5.0 * sigma + nn + 9.0)

    def test_acceptance_index_into(self, backend):
        sigma = np.array([-1.0, -1.0, 1.0, 1.0], dtype=np.float32)
        nn = np.array([-4.0, 4.0, -4.0, 4.0], dtype=np.float32)
        idx = np.empty(4, dtype=np.intp)
        fscratch = np.empty(4, dtype=np.float32)
        # Scalar-beta tables pass a 0-d bias.
        backend.acceptance_index_into(
            sigma, nn, idx, fscratch, np.array(9.0, dtype=np.float32)
        )
        np.testing.assert_array_equal(idx, [0, 8, 10, 18])
        # Per-chain tables pass 19*b + 9, broadcast over each chain.
        offsets = np.array([[9.0], [28.0]], dtype=np.float32)
        idx2 = np.empty((2, 4), dtype=np.intp)
        backend.acceptance_index_into(
            np.stack([sigma, sigma]), np.stack([nn, nn]), idx2,
            np.empty((2, 4), dtype=np.float32), offsets,
        )
        np.testing.assert_array_equal(idx2, [[0, 8, 10, 18], [19, 27, 29, 37]])


class TestBandMatmulPrimitives:
    """The shift-band products are exact sums of <= 2 spins, so the 2-tap
    convolution of the elementwise conv path must match the explicit band
    matmuls (the fused engine's view adds are checked in test_kernels)."""

    @staticmethod
    def _band(k: int, offset: int) -> np.ndarray:
        return np.eye(k, k=offset, dtype=np.float32)

    @pytest.mark.parametrize("axis", [-1, -2])
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_band_pair_matmul_matches_explicit(self, backend, axis, offset):
        rng = np.random.default_rng(6)
        a = np.sign(rng.normal(size=(2, 6, 6))).astype(np.float32)
        k = 6
        band = np.eye(k, dtype=np.float32) + self._band(k, offset)
        if axis == -1:
            expected = backend.matmul(a, band.T)
        else:
            expected = backend.matmul(band, a)
        np.testing.assert_array_equal(
            backend.shifted_pair_sum(a, axis, offset), expected
        )

    def test_band_pair_validates_arguments(self, backend):
        a = np.ones((4, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            backend.shifted_pair_sum(a, 0, -1)
        with pytest.raises(ValueError):
            backend.shifted_pair_sum(a, -1, 2)


class TestExactAdd:
    def test_adds_into_strided_views_in_every_dtype(self, any_dtype_backend):
        # A torus edge: column views, which the bf16 store rounder refuses.
        b = any_dtype_backend
        rng = np.random.default_rng(8)
        x = np.sign(rng.normal(size=(2, 5, 6))).astype(np.float32)
        nn = b.array(rng.integers(-3, 4, size=(2, 5, 6)))
        expected = nn.copy()
        expected[..., 0] += x[..., -1]
        view = nn[..., 0]
        assert not view.flags["C_CONTIGUOUS"]
        assert b.add_exact_into(view, x[..., -1], view) is view
        np.testing.assert_array_equal(nn, expected)
        np.testing.assert_array_equal(nn, b.array(expected))


class TestFlipBelow:
    """``flip_below_into`` negates exactly the spins the elementwise
    ``probs < ratio`` flip (then the colour mask) negates."""

    #: Uniforms and ratios at the edges of the comparison: a +inf ratio
    #: (an exp overflow), a 0 ratio, a 0 uniform, equality, a bfloat16
    #: uniform rounded up to 1.0, and tiny gaps either way.
    PROBS = [0.3, 0.0, 0.0, 0.0, 0.25, 0.5, 0.999, 0.999, 0.999, 0.5, 0.5, 1e-45]
    RATIO = [np.inf, np.inf, 0.0, 0.25, 0.25, 0.25, 1.0, np.inf, 1.5, 0.5000001, 0.4999999, 3e-45]

    @staticmethod
    def _elementwise(b, probs, ratio, mask, sigma):
        flips = b.multiply(b.less(probs, ratio), mask)
        return b.subtract(sigma, b.multiply(b.array(2.0), b.multiply(flips, sigma)))

    def _operands(self, b, chains=1):
        size = len(self.PROBS)
        probs = b.array(np.tile(self.PROBS, (chains, 2)))
        ratio = b.array(np.tile(self.RATIO, (chains, 2)))
        sigma = b.array(np.where(np.arange(2 * size) % 3 == 0, -1.0, 1.0))
        sigma = np.ascontiguousarray(np.broadcast_to(sigma, probs.shape))
        mask = b.array(np.arange(2 * size) % 2)
        return probs, ratio, sigma, mask

    def test_matches_elementwise_on_edge_values(self, any_dtype_backend):
        b = any_dtype_backend
        probs, ratio, sigma, mask = self._operands(b)
        if b.dtype is BFLOAT16:
            assert probs[0, 6] == 1.0  # 0.999 rounds to 1.0
        for sign_mask, float_mask in (
            (SIGN_BIT, np.ones_like(mask)),
            (sign_mask_of(mask), mask),
        ):
            expected = self._elementwise(b, probs, ratio, float_mask, sigma)
            spins = sigma.copy()
            out = b.flip_below_into(probs, ratio.copy(), sign_mask, spins)
            assert out is spins
            np.testing.assert_array_equal(spins, expected)
            # The spins stay exact ±1 (no -0.0 or NaN from the bit ops).
            assert set(np.unique(spins)) <= {-1.0, 1.0}

    def test_sign_mask_broadcasts_over_chains(self, backend):
        probs, ratio, sigma, mask = self._operands(backend, chains=3)
        expected = self._elementwise(backend, probs, ratio, mask, sigma)
        backend.flip_below_into(probs, ratio.copy(), sign_mask_of(mask), sigma)
        np.testing.assert_array_equal(sigma, expected)
