"""Pure numpy word kernels of the packed (multi-spin) representation.

These are the allocation-free building blocks behind the ``packed_*``
methods of :class:`~repro.backend.base.Backend`: every function is an
``*_into`` kernel writing into caller-owned buffers, so a steady-state
packed sweep performs no heap allocation — the same contract the fused
float kernels honour (see ``docs/packed_engine.md``).

Representation (shared with :mod:`repro.baselines.multispin`):

* a packed plane is a ``(..., rows, cols/64)`` uint64 array, one compact
  quarter per plane, with optional leading batch axes;
* bit ``j`` of word ``w`` holds lattice column ``64*w + j`` (LSB-first,
  little-endian bit order), so shifting words left by one moves every
  spin one column higher; word *values* are host-independent;
* acceptance randomness is compared in integer space: a uniform 16-bit
  lane accepts iff it is below ``ceil(t * 2**16)`` where ``t`` is the
  float32 Metropolis threshold; the compare runs in the lanes' own
  width, with ``T == 2**16`` carried as a saturation word (see
  :func:`packed_threshold`).

Unless a docstring says otherwise, ``out`` must not alias any input.
All kernels operate on the trailing two axes and broadcast over leading
batch axes, so solo ``(rows, words)`` and batched ``(B, rows, words)``
planes share one code path.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "compare_pack_into",
    "shift_cols_into",
    "full_adder_into",
    "flip_select_into",
    "packed_threshold",
    "site_values_u16",
]

_WORD = 64
_ONE = np.uint64(1)
_SIXTY_THREE = np.uint64(_WORD - 1)
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_LANE_MAX = 0xFFFF
_LE_WORD = np.dtype("<u8")
#: Byte j holds 2**(7 - j), gathering eight 0/1 bytes into bits 56..63.
_PACK_MAGIC = np.uint64(0x0102040810204080)
_FIFTY_SIX = np.uint64(56)


def packed_threshold(t: "np.floating | np.ndarray") -> tuple[np.ndarray, np.ndarray]:
    """``(uint16 lane threshold, uint64 saturation word)`` of float32 ``t``.

    For a 16-bit lane ``m`` uniform on ``[0, 2**16)``,
    ``m < T  <=>  m < t * 2**16  <=>  m / 2**16 < t`` with
    ``T = ceil(t * 2**16)`` — exactly, because ``T`` is computed in
    float64 where the product of a float32 ``t`` with a power of two is
    representable without rounding.  ``t`` in [0, 1] gives ``T`` in
    ``[0, 2**16]``, and :func:`compare_pack_into` compares the lanes in
    their own width, where ``T == 2**16`` (every lane accepts) does not
    fit: it is stored as ``0xFFFF``, and the saturation word, ORed into
    the packed mask, is all-ones there and zero elsewhere.  Every ``T``
    stays exact.

    Accepts a scalar or an array of per-chain thresholds; both results
    have its shape.
    """
    scaled = np.ceil(np.asarray(t, dtype=np.float64) * float(2**16))
    if np.any(scaled < 0) or np.any(scaled > 2**16):
        raise ValueError(f"threshold {t!r} outside [0, 1]")
    saturate = np.where(scaled > _LANE_MAX, _ALL_ONES, np.uint64(0))
    return np.asarray(np.minimum(scaled, _LANE_MAX), dtype=np.uint16), saturate


def site_values_u16(bits: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """View a uint32 draw buffer as per-site 16-bit lanes shaped ``shape``.

    Word ``w`` of ``bits`` feeds two consecutive sites (row-major):
    ``w & 0xFFFF`` then ``w >> 16`` — a host-independent contract.  On
    little-endian hosts this is a free reinterpreting view of ``bits``
    (the packed engine's zero-allocation fast path); on big-endian hosts
    the lanes are materialised arithmetically (allocating — correctness
    fallback only).
    """
    if bits.dtype != np.uint32 or not bits.flags["C_CONTIGUOUS"]:
        raise ValueError("bits must be a C-contiguous uint32 array")
    if int(np.prod(shape)) != 2 * bits.size:
        raise ValueError(f"shape {shape} does not hold {2 * bits.size} lanes")
    if sys.byteorder == "little":
        return bits.view(np.uint16).reshape(shape)
    lanes = np.empty(bits.shape + (2,), dtype=np.uint16)
    lanes[..., 0] = bits & np.uint32(0xFFFF)
    lanes[..., 1] = bits >> np.uint32(16)
    return lanes.reshape(shape)


def compare_pack_into(
    values: np.ndarray,
    threshold: "np.ndarray | np.number",
    saturate: "np.ndarray | np.uint64",
    out: np.ndarray,
    cmp: np.ndarray,
    byte_plane: np.ndarray,
) -> np.ndarray:
    """Pack the acceptance mask ``(values < threshold) | saturate`` into words.

    ``values`` is a ``(..., rows, cols)`` C-contiguous site plane:
    uint16 lanes, with ``threshold`` and ``saturate`` from
    :func:`packed_threshold`, or float32 ``probs``, with a float32
    ``threshold`` and a zero ``saturate``.  ``threshold`` is a scalar
    or ``(..., 1, 1)`` per-chain array of the *same dtype* as
    ``values``, so the compare never widens the lanes.  ``cmp`` is bool
    scratch shaped like ``values``, ``byte_plane`` ``(..., rows,
    cols/8)`` uint8 scratch and ``out`` the ``(..., rows, cols/64)``
    words, laid out as :func:`repro.baselines.multispin.pack_bits` lays
    them.  No argument may alias another.

    Read as little-endian uint64, the bool plane holds 8 sites (0/1
    bytes) per word.  Times ``0x0102040810204080``, every partial
    product lands on its own bit, site ``k`` at bit ``56 + k``, so
    ``>> 56`` leaves the LSB-first byte ``np.packbits`` would give.
    """
    np.less(values, threshold, out=cmp)
    eights = cmp.view(_LE_WORD)
    np.multiply(eights, _PACK_MAGIC, out=eights)
    np.right_shift(eights, _FIFTY_SIX, out=eights)
    np.copyto(byte_plane, eights, casting="unsafe")
    # Bytes compose little-endian into words; on big-endian hosts the
    # '<u8' view is a byte-order-aware copy into native out words.
    np.copyto(
        out,
        byte_plane.reshape(out.shape[:-1] + (-1,)).view(_LE_WORD),
        casting="unsafe",
    )
    np.bitwise_or(out, saturate, out=out)
    return out


def shift_cols_into(
    words: np.ndarray, direction: int, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Bit plane of the column-neighbour, wrapping words on the torus.

    ``direction=+1`` builds the column-(j-1) ("prev") neighbour plane:
    ``(w << 1) | (roll(w, 1, axis=-1) >> 63)``; ``direction=-1`` the
    column-(j+1) ("next") plane — bit-identical to the ``_prev_col`` /
    ``_next_col`` helpers of :mod:`repro.baselines.multispin`.  ``tmp``
    is uint64 scratch shaped like ``words``; ``out`` and ``tmp`` must
    not alias ``words`` or each other.
    """
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    if direction == 1:
        np.copyto(tmp[..., 1:], words[..., :-1])
        np.copyto(tmp[..., :1], words[..., -1:])
        np.left_shift(words, _ONE, out=out)
        np.right_shift(tmp, _SIXTY_THREE, out=tmp)
    else:
        np.copyto(tmp[..., :-1], words[..., 1:])
        np.copyto(tmp[..., -1:], words[..., :1])
        np.right_shift(words, _ONE, out=out)
        np.left_shift(tmp, _SIXTY_THREE, out=tmp)
    np.bitwise_or(out, tmp, out=out)
    return out


def full_adder_into(
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
    """Bitwise full adders: per-bit k = d1+d2+d3+d4 as planes (low, bit1, bit2).

    In-place version of
    :func:`repro.baselines.multispin._disagreement_count_bits` — same
    carry network, every temporary caller-owned.  ``d1`` and ``d3`` are
    *consumed* (overwritten with carry planes); ``d2``/``d4`` are read
    only.  ``low``/``bit1``/``bit2``/``s1``/``s2`` are uint64 outputs
    and scratch shaped like the inputs; no two arguments may alias.
    """
    np.bitwise_xor(d1, d2, out=s1)  # s1 = sum(d1, d2)
    np.bitwise_and(d1, d2, out=d1)  # d1 = carry(d1, d2) = c1
    np.bitwise_xor(d3, d4, out=s2)  # s2 = sum(d3, d4)
    np.bitwise_and(d3, d4, out=d3)  # d3 = carry(d3, d4) = c2
    np.bitwise_xor(s1, s2, out=low)  # k bit 0
    np.bitwise_and(s1, s2, out=s1)  # s1 = lc
    # k = 2*(c1 + c2 + lc) + low; the carry sum needs two bits.
    np.bitwise_xor(d1, d3, out=s2)  # s2 = c1 ^ c2
    np.bitwise_xor(s2, s1, out=bit1)
    np.bitwise_or(d1, d3, out=s2)  # s2 = c1 | c2
    np.bitwise_and(s2, s1, out=s2)  # s2 = lc & (c1 | c2)
    np.bitwise_and(d1, d3, out=d1)  # d1 = c1 & c2
    np.bitwise_or(d1, s2, out=bit2)


def flip_select_into(
    low: np.ndarray,
    bit1: np.ndarray,
    bit2: np.ndarray,
    r1: np.ndarray,
    r0: np.ndarray,
    out: np.ndarray,
    tmp: np.ndarray,
) -> np.ndarray:
    """Three-case Metropolis flip mask from the disagreement-count planes.

    ``out = (k>=2) | (k==1 & r1) | (k==0 & r0)`` where ``k`` is encoded
    by ``(low, bit1, bit2)`` from :func:`full_adder_into` and ``r1`` /
    ``r0`` are the packed acceptance masks for thresholds
    ``exp(-4 beta)`` / ``exp(-8 beta)``.  ``tmp`` is uint64 scratch;
    ``out``/``tmp`` must not alias any input or each other.  ``bit1`` /
    ``bit2`` / ``low`` / ``r1`` / ``r0`` are read only.
    """
    np.bitwise_or(bit1, bit2, out=tmp)  # tmp = k >= 2
    np.bitwise_or(tmp, low, out=out)  # out = k >= 1
    np.bitwise_not(out, out=out)  # out = k == 0
    np.bitwise_and(out, r0, out=out)
    np.bitwise_or(out, tmp, out=out)  # + always-flip cases
    np.bitwise_not(tmp, out=tmp)  # tmp = k < 2
    np.bitwise_and(tmp, low, out=tmp)  # tmp = k == 1
    np.bitwise_and(tmp, r1, out=tmp)
    np.bitwise_or(out, tmp, out=out)
    return out
