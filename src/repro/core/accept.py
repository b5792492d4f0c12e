"""Precomputed Metropolis acceptance tables.

The flip rule ``u < exp(-2 * beta * sigma * (nn + h))`` has a tiny input
domain: ``sigma`` is one of {-1, +1} and the 4-neighbour sum ``nn`` one of
{-4, -2, 0, 2, 4}, so only ten distinct acceptance probabilities exist per
(beta, dtype, field).  Precomputing them once and replacing the
full-lattice ``exp`` with an integer gather is the standard trick of the
GPU Ising literature (Romero, Bisson & Fatica, arXiv:1906.06297; the
multi-spin MPI codes precompute the same exponentials per temperature).

Bit-identity is the design constraint here: every table entry is produced
by running the *actual* backend op sequence of
:func:`~repro.core.update.acceptance_ratio` on the ten (sigma, nn)
combinations, so the gathered probability equals, bit for bit, what the
elementwise path would have computed at that site — in float32 and in
bfloat16, with or without an external field, and per chain in the batched
ensemble (where beta is a per-chain array and the table grows one
19-slot band per chain).

Scalar and per-chain tables share one biased layout: the slot of
``(sigma, nn)`` in chain ``b``'s band is ``19 b + 5 sigma + nn + 9``, so
every index the gather sees is a non-negative ``np.intp`` in range —
the form numpy's ``take`` gathers fastest.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import Backend
from .couplings import BondCouplings
from .update import _cached_device_scalar, acceptance_ratio

__all__ = ["AcceptanceTable", "BondedAcceptance", "NN_VALUES"]

# Reachable 4-neighbour sums of a +/-1 checkerboard lattice.
NN_VALUES = (-4.0, -2.0, 0.0, 2.0, 4.0)

# The ten (sigma, nn) combinations a table holds, and the slot of each in
# a chain's band: 5 * sigma + nn, biased into 0..18.
_SIGMA_COMBO = np.repeat([-1.0, 1.0], len(NN_VALUES))
_NN_COMBO = np.tile(NN_VALUES, 2)
_BIAS = 9
_SLOT_OF_COMBO = (5.0 * _SIGMA_COMBO + _NN_COMBO).astype(np.int64) + _BIAS


class AcceptanceTable:
    """The ten (per chain) reachable acceptance probabilities, pre-`exp`ed.

    Parameters
    ----------
    backend:
        Op executor whose dtype and ``exp`` define the entries.
    beta:
        Scalar inverse temperature, or a per-chain broadcast array shaped
        ``(batch, 1, ..., 1)`` exactly as the updaters carry it.  The
        per-chain case builds a flat ``batch * 19`` table plus a
        per-chain slot-offset tensor.
    field:
        External magnetic field h; folded into the entries the same way
        :func:`acceptance_ratio` folds it into ``nn``.

    Attributes
    ----------
    entries:
        Flat float32 array of quantized acceptance probabilities, 19
        slots per chain: chain ``b``'s entry for ``(sigma, nn)`` lives at
        slot ``19 b + 5*sigma + nn + 9``.  The ten reachable
        ``5*sigma + nn`` values are the odd integers -9..9, so the +9
        bias maps them into the band ``[19 b, 19 b + 19)``.  Unreachable
        (even) slots hold 0 and are never addressed.
    offsets:
        Float32 bias tensor for :meth:`Backend.acceptance_index_into`:
        a 0-d ``9`` for scalar beta, otherwise shaped like ``beta`` and
        holding ``19 * b + 9`` per chain.
    """

    #: Slots per chain: ``5*sigma + nn + 9`` spans 0..18.
    SLOTS = 19

    def __init__(
        self,
        backend: Backend,
        beta: "float | np.ndarray",
        field: float = 0.0,
    ) -> None:
        self.backend = backend
        self.field = float(field)
        shape = np.shape(beta)
        n_chains = shape[0] if shape else 1
        if int(np.prod(shape)) != n_chains:
            raise ValueError(
                f"per-chain beta must be shaped (batch, 1, ..., 1), got {shape}"
            )
        self.entries = np.zeros(n_chains * self.SLOTS, dtype=np.float32)
        self.offsets = (
            np.arange(n_chains, dtype=np.float32) * np.float32(self.SLOTS)
            + np.float32(_BIAS)
        ).reshape(shape)
        self.retemper(beta)

    def retemper(self, beta: "float | np.ndarray") -> None:
        """Refill :attr:`entries` for new inverse temperatures, in place.

        ``beta`` must have the shape the table was built with: the
        offsets depend only on the chain count, so they stay, and a
        recorded sweep that gathers from ``entries`` reads the new
        probabilities.
        """
        if np.shape(beta) != self.offsets.shape:
            raise ValueError(
                f"table holds betas shaped {self.offsets.shape}, "
                f"got {np.shape(beta)}"
            )
        # Run the exact elementwise op sequence on the ten combos; with a
        # per-chain beta the broadcast yields one ten-entry band per chain
        # in row-major order.
        probs = acceptance_ratio(
            self.backend,
            self.backend.array(_SIGMA_COMBO),
            self.backend.array(_NN_COMBO),
            beta,
            field=self.field,
        )
        probs = np.ascontiguousarray(probs, dtype=np.float32).reshape(-1, 10)
        bands = self.entries.reshape(-1, self.SLOTS)
        if probs.shape[0] != bands.shape[0]:
            raise ValueError(
                f"table has {probs.shape[0]} bands for {bands.shape[0]} chains"
            )
        bands[:, _SLOT_OF_COMBO] = probs

    @property
    def n_entries(self) -> int:
        return int(self.entries.size)

    @property
    def nbytes(self) -> int:
        """Host bytes held by the table (entries + offsets)."""
        return int(self.entries.nbytes + self.offsets.nbytes)


class BondedAcceptance:
    """Per-bond variant of :class:`AcceptanceTable` for disordered couplings.

    With ``"ferro"`` or ``"bimodal"`` couplings (J = +/-1 per bond) the
    weighted neighbour sum still lands on the five values of
    :data:`NN_VALUES` — the bonds change *which* slot a site hits, never
    the slot alphabet — so acceptance stays the standard table gather,
    delegated to an internal :class:`AcceptanceTable`.  Gaussian
    couplings make the neighbour sum continuous, so no finite table
    exists; :meth:`flip_into` then evaluates the elementwise
    ``exp(-2 beta sigma (nn + h))`` through the ``*_into`` vocabulary —
    allocation-free in steady state and fully replayable by the traced
    executor, mirroring :func:`~repro.core.update.acceptance_ratio` op
    for op, with the same ``-2 * beta`` values, and then flipping with
    the sign-bit op every fused float flip ends in, so fused and
    elementwise disordered sweeps stay bit-identical.  The gaussian case
    owns its ``-2 * beta`` array, so :meth:`retemper` can refill it in
    place.
    """

    def __init__(
        self,
        backend: Backend,
        beta: "float | np.ndarray",
        couplings: BondCouplings,
        field: float = 0.0,
    ) -> None:
        self.backend = backend
        self.field = float(field)
        self.couplings = couplings
        self.table = None
        self.factor = None
        if couplings.kind == "gaussian":
            self.factor = self._factor_of(beta)
        else:
            self.table = AcceptanceTable(backend, beta, field=field)

    def _factor_of(self, beta: "float | np.ndarray") -> np.ndarray:
        """``-2 * beta`` as the elementwise path materialises it, owned."""
        value = self.backend.array(-2.0 * np.asarray(beta, dtype=np.float64))
        return np.array(value, dtype=np.float32)

    def retemper(self, beta: "float | np.ndarray") -> None:
        """New inverse temperatures, written into the arrays a sweep reads."""
        if self.table is not None:
            self.table.retemper(beta)
            return
        factor = self._factor_of(beta)
        if factor.shape != self.factor.shape:
            raise ValueError(
                f"acceptance holds betas shaped {self.factor.shape}, "
                f"got {factor.shape}"
            )
        np.copyto(self.factor, factor)

    def flip_into(
        self,
        backend: Backend,
        sigma: np.ndarray,
        nn: np.ndarray,
        probs: np.ndarray,
        workspace,
        sign_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """In-place Metropolis step on weighted neighbour sums.

        Runs its ops on ``backend``, the updater's, so a recording sweep
        sees them.  Mutates ``sigma`` (and, when ``field != 0``, shifts
        ``nn`` in place — callers recompute ``nn`` every phase from a
        workspace buffer) and returns ``sigma``.  ``sign_mask`` is the
        uint32 sign mask of a colour mask, or ``None`` for every site.
        """
        # Local import: fused.py imports this module for the table type.
        from .fused import SIGN_BIT, fused_metropolis_flip

        if self.table is not None:
            return fused_metropolis_flip(
                backend, sigma, nn, probs, self.table, workspace, sign_mask
            )
        if sigma.shape != nn.shape or sigma.shape != probs.shape:
            raise ValueError(
                f"shape mismatch: sigma {sigma.shape}, nn {nn.shape}, "
                f"probs {probs.shape}"
            )
        if self.field != 0.0:
            field_scalar = _cached_device_scalar(
                backend, ("field", float(self.field)), float(self.field)
            )
            backend.add_into(nn, field_scalar, nn)
        local = workspace.buffer("bonded_local", sigma.shape)
        backend.multiply_into(sigma, nn, local)
        backend.multiply_into(self.factor, local, local)
        backend.exp_into(local, local)
        return backend.flip_below_into(
            probs, local, SIGN_BIT if sign_mask is None else sign_mask, sigma
        )
