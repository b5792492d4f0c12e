"""Replica-exchange (parallel tempering) on the batched ensemble engine.

Parallel tempering runs the same system at a ladder of inverse
temperatures and periodically proposes to exchange the configurations of
adjacent ladder slots; hot slots tunnel over free-energy barriers and
feed decorrelated states down to the cold slots.  The exchange of slots
``i`` and ``j`` is accepted with probability

    min(1, exp((beta_i - beta_j) * (E_i - E_j)))

which is the exact joint-density ratio of the swapped configuration pair
— detailed balance for the product chain (Hukushima & Nemoto 1996; the
rack-scale GPU Ising codes and the peapods exemplar use the same
alternating even/odd adjacent-pair schedule implemented here).

The TPU-shaped design decision: **states never move.**  All
``n_replicas * n_temperatures`` chains live in one
:class:`~repro.core.ensemble.EnsembleSimulation`, and a swap only edits
the host-side ``pairing`` (which chain currently owns which beta slot)
and re-tempers the ensemble — a ten-entry-per-chain acceptance-table
refill in place, no lattice traffic, and the recorded sweep of the fused
engine keeps replaying.  Each chain therefore keeps its own Philox
stream and advances bit-reproducibly; with swaps disabled the ensemble
is bit-identical to a plain :class:`EnsembleSimulation`.  A ladder is
one coupled simulation, so it runs through ``repro.tempering(config)``;
the scheduler rejects ladder configs.

Swap decisions draw from a dedicated ``PhiloxStream(seed,
SWAP_STREAM_ID)``, so the full swap trajectory is a pure function of
``(seed, disorder_seed)`` and survives checkpoint/v2 resume mid-ladder,
including a partially consumed Philox block.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

import numpy as np

from ..backend.base import Backend
from ..rng.streams import PhiloxStream
from ..telemetry.report import RunReport, RunTelemetry
from .config import checkpoint_envelope, unwrap_checkpoint
from .couplings import BondCouplings
from .ensemble import EnsembleSimulation

__all__ = ["TemperingEnsemble", "SWAP_STREAM_ID", "swap_acceptance_probability"]

#: Reserved Philox stream id for swap decisions ("TEMP" in ASCII); chain
#: streams use small ids (0..B-1), so swap draws never collide with any
#: chain's uniform sequence.
SWAP_STREAM_ID = 0x54454D50


def swap_acceptance_probability(
    beta_i: float, beta_j: float, energy_i: float, energy_j: float
) -> float:
    """``min(1, exp((beta_i - beta_j) (E_i - E_j)))`` in float64.

    The exact two-chain detailed-balance acceptance for exchanging the
    configurations at inverse temperatures ``beta_i`` and ``beta_j``
    whose current total energies are ``energy_i`` and ``energy_j``.
    """
    delta = (float(beta_i) - float(beta_j)) * (float(energy_i) - float(energy_j))
    return float(np.exp(min(delta, 0.0)))


class TemperingEnsemble:
    """An ``n_replicas x n_temperatures`` replica-exchange ladder.

    Parameters
    ----------
    shape:
        Lattice shape shared by every chain.
    betas:
        The inverse-temperature ladder, in ladder order (ascending or
        descending — swaps exchange *adjacent entries of this sequence*,
        so the given order defines adjacency and is trajectory-relevant).
    n_replicas:
        Independent replicas of the full ladder.  Swaps only couple
        chains within one replica; >= 2 enables the replica-overlap
        spin-glass observables.
    swap_interval:
        Sweeps between swap rounds (swaps happen at sweep boundaries).
    couplings:
        ``"ferro"`` (default), ``"bimodal"``, ``"gaussian"``, or an
        explicit :class:`~repro.core.couplings.BondCouplings`
        realisation.  One quenched realisation (from ``disorder_seed``)
        is shared by every chain and replica, as the spin-glass
        observables require.
    disorder_seed:
        Seed for the quenched bond draw (ignored when an explicit
        :class:`BondCouplings` is passed).
    swaps_enabled:
        ``False`` degrades to a plain ensemble run (bit-identical to
        :class:`EnsembleSimulation` with the same chain layout) — the
        validation knob for "swaps are a physics no-op at ferro".

    Chain layout: chain ``r * n_temps + t`` starts at ladder slot ``t``
    of replica ``r``; ``pairing[r, t]`` tracks which chain currently
    owns slot ``t`` (swaps edit this, never the states).
    """

    def __init__(
        self,
        shape: "int | tuple[int, int]",
        betas: "Sequence[float] | np.ndarray",
        n_replicas: int = 2,
        swap_interval: int = 1,
        couplings: "str | BondCouplings" = "ferro",
        disorder_seed: int = 0,
        updater: str = "compact",
        backend: Backend | None = None,
        seed: int = 0,
        field: float = 0.0,
        fused: "bool | str" = "auto",
        telemetry: RunTelemetry | None = None,
        initial: "str | np.ndarray" = "hot",
        block_shape: "tuple[int, int] | None" = None,
        swaps_enabled: bool = True,
    ) -> None:
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError(
                f"betas must be a non-empty 1D ladder, got shape {betas.shape}"
            )
        if np.any(betas <= 0):
            raise ValueError(f"betas must be positive, got {betas}")
        if int(n_replicas) < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        if int(swap_interval) < 1:
            raise ValueError(f"swap_interval must be >= 1, got {swap_interval}")
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape), int(shape))
        self.betas = betas
        self.n_temps = int(betas.size)
        self.n_replicas = int(n_replicas)
        self.swap_interval = int(swap_interval)
        self.swaps_enabled = bool(swaps_enabled)

        if isinstance(couplings, BondCouplings):
            bonds = couplings
        else:
            bonds = BondCouplings.generate(
                str(couplings), tuple(shape), disorder_seed
            )
        self.couplings_kind = bonds.kind
        self.disorder_seed = bonds.disorder_seed

        self.pairing = np.arange(
            self.n_replicas * self.n_temps, dtype=np.int64
        ).reshape(self.n_replicas, self.n_temps)

        # Under the fused engine the ensemble replays a recorded sweep;
        # an accepted swap round re-tempers it in place, so the program
        # keeps replaying (see repro.core.traced).
        chain_betas = self._chain_betas()
        self.ensemble = EnsembleSimulation(
            shape,
            1.0 / chain_betas,
            updater=updater,
            backend=backend,
            seed=seed,
            initial=initial,
            block_shape=block_shape,
            field=field,
            fused=fused,
            telemetry=telemetry,
            couplings=bonds,
        )
        self.ensemble.set_betas(chain_betas)
        self._swap_stream = PhiloxStream(int(seed), SWAP_STREAM_ID)
        self.swap_rounds = 0
        self.swap_attempts = 0
        self.swap_accepts = 0
        self._since_swap = 0
        self._clock = 0.0
        #: Chrome-trace spans, one per swap round (see telemetry.trace).
        self.swap_log: list[dict] = []

    # -- layout helpers ------------------------------------------------------

    def _chain_betas(self) -> np.ndarray:
        """Per-chain ladder betas implied by the current pairing."""
        betas = np.empty(self.n_replicas * self.n_temps, dtype=np.float64)
        betas[self.pairing] = self.betas
        return betas

    @property
    def shape(self) -> tuple[int, int]:
        return self.ensemble.shape

    @property
    def n_chains(self) -> int:
        return self.ensemble.n_chains

    @property
    def seed(self) -> int:
        return self.ensemble.seed

    @property
    def field(self) -> float:
        return self.ensemble.field

    @property
    def couplings(self) -> "BondCouplings | None":
        """The quenched bond realisation (None for the clean ferromagnet)."""
        return self.ensemble.couplings

    @property
    def sweeps_done(self) -> int:
        return self.ensemble.sweeps_done

    @property
    def telemetry(self) -> "RunTelemetry | None":
        return self.ensemble.telemetry

    @property
    def lattices(self) -> np.ndarray:
        return self.ensemble.lattices

    @property
    def swap_acceptance(self) -> float:
        """Accepted / attempted swap fraction so far (0.0 before any)."""
        if self.swap_attempts == 0:
            return 0.0
        return self.swap_accepts / self.swap_attempts

    # -- evolution -----------------------------------------------------------

    def run(self, n_sweeps: int) -> None:
        """Advance ``n_sweeps`` sweeps, swapping at every ladder boundary.

        The position within the swap interval persists across calls:
        ``run(3); run(3)`` attempts exactly the rounds ``run(6)`` would.
        """
        if n_sweeps < 0:
            raise ValueError(f"n_sweeps must be >= 0, got {n_sweeps}")
        remaining = int(n_sweeps)
        if not self.swaps_enabled:
            if remaining:
                start = perf_counter()
                self.ensemble.run(remaining)
                self._clock += perf_counter() - start
            return
        while remaining:
            step = min(remaining, self.swap_interval - self._since_swap)
            start = perf_counter()
            self.ensemble.run(step)
            self._clock += perf_counter() - start
            self._since_swap += step
            remaining -= step
            if self._since_swap == self.swap_interval:
                self.attempt_swaps()
                self._since_swap = 0

    def sweep(self) -> None:
        """Advance one sweep (attempting swaps if a boundary is reached)."""
        self.run(1)

    def attempt_swaps(self) -> int:
        """One swap round over alternating even/odd adjacent ladder pairs.

        Round ``k`` proposes the pairs ``(t, t+1)`` for ``t = k mod 2,
        k mod 2 + 2, ...`` independently in every replica, drawing all
        uniforms as one batched Philox tensor.  Accepted proposals swap
        the ``pairing`` entries (betas move between chains, states never
        do) and the ensemble is re-tempered once at the end of the
        round.  Returns the number of accepted swaps.
        """
        parity = self.swap_rounds % 2
        self.swap_rounds += 1
        pairs = list(range(parity, self.n_temps - 1, 2))
        if not pairs:
            return 0
        start = perf_counter()
        energies = self.ensemble.total_energies()
        uniforms = self._swap_stream.uniform((self.n_replicas, len(pairs)))
        pairing = self.pairing
        # Vectorized accept test over all (replica, pair) proposals —
        # float64 op-for-op the same as swap_acceptance_probability, so
        # decisions are bit-identical to the scalar loop it replaces.
        pair_idx = np.asarray(pairs, dtype=np.int64)
        lo = pairing[:, pair_idx]
        hi = pairing[:, pair_idx + 1]
        d_beta = self.betas[pair_idx] - self.betas[pair_idx + 1]
        delta = d_beta[np.newaxis, :] * (energies[lo] - energies[hi])
        accept = np.asarray(uniforms) < np.exp(np.minimum(delta, 0.0))
        r_acc, p_acc = np.nonzero(accept)
        t_acc = pair_idx[p_acc]
        pairing[r_acc, t_acc] = hi[r_acc, p_acc]
        pairing[r_acc, t_acc + 1] = lo[r_acc, p_acc]
        accepted = int(accept.sum())
        self.swap_attempts += self.n_replicas * len(pairs)
        self.swap_accepts += accepted
        if accepted:
            self.ensemble.set_betas(self._chain_betas())
        duration = perf_counter() - start
        self.swap_log.append(
            {
                "name": f"swap round {self.swap_rounds - 1}",
                "start": self._clock,
                "duration": duration,
                "args": {
                    "parity": parity,
                    "attempted": self.n_replicas * len(pairs),
                    "accepted": accepted,
                },
            }
        )
        self._clock += duration
        return accepted

    # -- observables ---------------------------------------------------------

    def slot_magnetizations(self) -> np.ndarray:
        """Signed magnetization by ladder slot, ``(n_replicas, n_temps)``.

        Row ``r`` column ``t`` is the chain *currently simulating*
        ``betas[t]`` in replica ``r`` — the physically meaningful
        ordering after swaps have moved betas between chains.
        """
        return self.ensemble.magnetizations()[self.pairing]

    def replica_overlaps(self) -> np.ndarray:
        """Site overlap q between replica pairs, ``(n_pairs, n_temps)``.

        For every unordered replica pair (a, b) and every ladder slot t,
        ``q = (1/N) sum_i s_i^(a) s_i^(b)`` between the two chains
        currently simulating ``betas[t]``.  The two replicas share the
        quenched disorder but have independent thermal histories —
        exactly the EA overlap the spin-glass Binder cumulant needs.
        """
        if self.n_replicas < 2:
            raise ValueError(
                f"replica overlap needs n_replicas >= 2, got {self.n_replicas}"
            )
        lats = self.ensemble.lattices.astype(np.float64)
        rows = []
        for a in range(self.n_replicas):
            for b in range(a + 1, self.n_replicas):
                rows.append(
                    [
                        float(
                            np.mean(
                                lats[self.pairing[a, t]] * lats[self.pairing[b, t]]
                            )
                        )
                        for t in range(self.n_temps)
                    ]
                )
        return np.asarray(rows, dtype=np.float64)

    def sample_overlaps(
        self, n_samples: int, burn_in: int = 0, thin: int = 1
    ) -> np.ndarray:
        """Time series of replica overlaps, ``(n_samples, n_pairs, n_temps)``.

        Feed slot ``t``'s slice to
        :func:`~repro.observables.binder.spin_glass_binder` to estimate
        the spin-glass Binder cumulant at ``betas[t]``.
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        if thin <= 0:
            raise ValueError(f"thin must be positive, got {thin}")
        self.run(burn_in)
        samples = []
        for _ in range(n_samples):
            self.run(thin)
            samples.append(self.replica_overlaps())
        return np.stack(samples)

    # -- telemetry -----------------------------------------------------------

    def report(self) -> RunReport:
        """Ensemble report plus the tempering swap gauges."""
        if self.telemetry is None:
            raise RuntimeError(
                "no telemetry attached; construct with "
                "TemperingEnsemble(..., telemetry=RunTelemetry())"
            )
        registry = self.telemetry.registry
        registry.gauge("tempering_swap_rounds").set(self.swap_rounds)
        registry.gauge("tempering_swap_attempts").set(self.swap_attempts)
        registry.gauge("tempering_swap_accepts").set(self.swap_accepts)
        registry.gauge("tempering_swap_acceptance").set(self.swap_acceptance)
        registry.gauge("tempering_n_temperatures").set(self.n_temps)
        registry.gauge("tempering_n_replicas").set(self.n_replicas)
        return self.ensemble.report()

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """checkpoint/v2 envelope: the nested ensemble plus ladder state.

        Round-trips the pairing, the swap stream's exact Philox counter
        (including partially consumed blocks), the position inside the
        swap interval and the disorder token, so a resumed ladder makes
        bit-identical swap decisions.
        """
        payload = {
            "ensemble": self.ensemble.state_dict(),
            "betas": self.betas.tolist(),
            "n_replicas": self.n_replicas,
            "swap_interval": self.swap_interval,
            "swaps_enabled": self.swaps_enabled,
            "pairing": self.pairing.tolist(),
            "swap_stream": self._swap_stream.state(),
            "swap_rounds": self.swap_rounds,
            "swap_attempts": self.swap_attempts,
            "swap_accepts": self.swap_accepts,
            "since_swap": self._since_swap,
            "couplings": {
                "kind": self.couplings_kind,
                "disorder_seed": self.disorder_seed,
            },
        }
        return checkpoint_envelope("tempering", payload)

    @classmethod
    def from_state_dict(
        cls, state: dict, backend: Backend | None = None
    ) -> "TemperingEnsemble":
        """Rebuild a ladder from :meth:`state_dict` output."""
        state = unwrap_checkpoint(state, "tempering")
        obj = cls.__new__(cls)
        obj.betas = np.asarray(state["betas"], dtype=np.float64)
        obj.n_temps = int(obj.betas.size)
        obj.n_replicas = int(state["n_replicas"])
        obj.swap_interval = int(state["swap_interval"])
        obj.swaps_enabled = bool(state.get("swaps_enabled", True))
        obj.pairing = np.asarray(state["pairing"], dtype=np.int64)
        if obj.pairing.shape != (obj.n_replicas, obj.n_temps):
            raise ValueError(
                f"pairing shape {obj.pairing.shape} != "
                f"{(obj.n_replicas, obj.n_temps)}"
            )
        coup = state["couplings"]
        obj.couplings_kind = str(coup["kind"])
        obj.disorder_seed = int(coup["disorder_seed"])
        obj.ensemble = EnsembleSimulation.from_state_dict(
            state["ensemble"], backend=backend
        )
        # The ensemble checkpoint keeps temperatures; sweep at the ladder.
        obj.ensemble.set_betas(obj._chain_betas())
        obj._swap_stream = PhiloxStream.from_state(state["swap_stream"])
        obj.swap_rounds = int(state["swap_rounds"])
        obj.swap_attempts = int(state["swap_attempts"])
        obj.swap_accepts = int(state["swap_accepts"])
        obj._since_swap = int(state["since_swap"])
        obj._clock = 0.0
        obj.swap_log = []
        return obj
