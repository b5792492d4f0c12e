"""Traced sweep executor: record one fused sweep, replay it N times.

The fused engine (:mod:`repro.core.fused`) removed steady-state
allocations, but every sweep still walks the updater's Python logic —
workspace lookups, shape checks, method dispatch — before each backend
op.  BENCH_fused_sweep.json shows what that costs: once allocation is
gone, eager per-op *dispatch* is the ceiling (fused conv at ~1.09x).
The paper hits the same wall and amortises it by XLA-compiling the whole
sweep into one program; the rack-scale GPU reproduction does it with
fused persistent kernels.  This module is the software analogue, and
the solo and ensemble drivers run every fused chain through it:

1. warm-up — one eager fused sweep builds every cached artifact
   (workspace buffers, the :class:`~repro.core.accept.AcceptanceTable`,
   checkerboard masks, device-scalar cache), so the steady state touches
   only the ``*_into`` backend vocabulary on stable buffers;
2. record — one more sweep runs with the updater's backend swapped for a
   :class:`_RecordingBackend` proxy that captures the exact
   (op, arg-buffer, out-buffer) sequence into a :class:`SweepTrace`;
3. replay — N further sweeps are the recorded program run back as a
   tight loop over pre-bound callables, with **zero** Python
   re-interpretation of updater logic.

Replay is bit-identical to eager-fused by construction: every mutation
of a fused sweep flows through backend ops on buffers that are stable
across sweeps, and the one stateful op — ``uniform_into`` — advances the
recorded Philox stream exactly as an eager sweep would.  Soundness is
checked, not assumed: if the recording sweep calls any *allocating*
backend op (a cold cache, an updater outside the fused steady state),
the trace is marked unsound and the executor falls back to eager sweeps
permanently for that binding.  The updater's Python-side counters (the
fused table-hit and packed word gauges) are the one thing a replay does
not touch; the executor adds the recording sweep's increments once per
replayed batch, so the gauges read as if every sweep had run eagerly.

A trace is bound to the identities of the state tensors and the stream
it recorded.  Any change — checkpoint restore, ensemble roster rebuild,
re-tempering, or a new shape/dtype/beta/field/fused configuration (all
of which rebuild the updater and its buffers) — invalidates the trace
and the next run re-records.
"""

from __future__ import annotations

from functools import partial

from ..backend.base import Backend

__all__ = [
    "REPLAYABLE_OPS",
    "ALLOCATING_OPS",
    "SweepTrace",
    "TracedExecutor",
    "record_traced_metrics",
]

#: The in-place backend vocabulary a steady-state fused sweep uses.
#: Calls to these are recorded verbatim: same bound method, same buffer
#: arguments, replayed in order.
REPLAYABLE_OPS = frozenset(
    {
        "add_into",
        "subtract_into",
        "multiply_into",
        "exp_into",
        "less_into",
        "take_into",
        "matmul_into",
        "uniform_into",
        "band_cross_matmul_into",
        "band_pair_matmul_into",
        "acceptance_index_into",
        "roll_into",
        "copy_into",
        "slice_copy_into",
        "add_at_slice_into",
        "assign_at_slice_into",
        "shifted_pair_sum_into",
        "conv2d_neighbors_into",
        # Packed (multi-spin) word kernels — in-place, workspace-backed,
        # same replay contract as the float *_into vocabulary.
        "packed_bits_into",
        "packed_rshift_into",
        "packed_xor_into",
        "packed_shift_cols_into",
        "packed_compare_pack_into",
        "packed_full_adder_into",
        "packed_flip_select_into",
    }
)

#: Backend ops that allocate fresh arrays.  Seeing one during a
#: recording sweep means the sweep was not in its steady state (a cold
#: cache, an elementwise code path) — the resulting trace could not be
#: replayed faithfully, so it is marked unsound.
ALLOCATING_OPS = frozenset(
    {
        "array",
        "matmul",
        "add",
        "subtract",
        "multiply",
        "exp",
        "less",
        "where",
        "add_at_slice",
        "shifted_pair_sum",
        "conv2d_neighbors",
        "random_uniform",
        "roll",
        "concat",
        "slice_copy",
        "reshape",
        "copy",
        "packed_pack",
        "packed_unpack",
    }
)

#: Python-side counters a sweep bumps outside the backend ops, as
#: (attribute holding the counting object or None for the updater
#: itself, counter names).  Replays skip them, so the executor adds
#: the recording sweep's increments per replayed sweep.
_SWEEP_COUNTERS = (
    (None, ("sweeps", "words_updated")),
    ("workspace", ("hits", "table_hits", "bytes_saved")),
)


class SweepTrace:
    """One recorded sweep: an ordered (op, args) program plus soundness.

    ``record`` appends entries during the recording sweep; ``compile``
    freezes them into a list of pre-bound callables; ``replay`` runs the
    program once — one full sweep's worth of backend ops, no updater
    logic.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[str, object, tuple, dict]] = []
        self._steps: list | None = None
        self.sound = True
        self.unsound_ops: list[str] = []

    def record(self, name: str, fn, args: tuple, kwargs: dict) -> None:
        self._entries.append((name, fn, args, kwargs))

    def mark_unsound(self, name: str) -> None:
        self.sound = False
        self.unsound_ops.append(name)

    @property
    def n_ops(self) -> int:
        """Recorded backend ops per sweep."""
        return len(self._entries)

    def compile(self) -> "SweepTrace":
        """Freeze the recorded entries into pre-bound replay callables."""
        if not self.sound:
            raise RuntimeError(
                f"cannot compile an unsound trace (saw {self.unsound_ops})"
            )
        self._steps = [
            partial(fn, *args, **kwargs) for _, fn, args, kwargs in self._entries
        ]
        return self

    def replay(self) -> None:
        """Run the recorded program once (one sweep)."""
        for step in self._steps:
            step()


class _RecordingBackend:
    """Proxy over a real backend that records the ``*_into`` op stream.

    Every attribute not intercepted (dtype, caches, private helpers)
    delegates to the real backend, so cached scalars and quantize
    scratch live where eager sweeps left them.  Replayable ops are
    recorded *and* executed — the recording sweep is a real sweep;
    allocating ops execute but mark the trace unsound.
    """

    __slots__ = ("_real", "_trace")

    def __init__(self, real: Backend, trace: SweepTrace) -> None:
        self._real = real
        self._trace = trace

    def __getattr__(self, name):
        attr = getattr(self._real, name)
        if name in REPLAYABLE_OPS:
            trace = self._trace

            def recorded_op(*args, _fn=attr, _name=name, **kwargs):
                trace.record(_name, _fn, args, kwargs)
                return _fn(*args, **kwargs)

            return recorded_op
        if name in ALLOCATING_OPS:
            trace = self._trace

            def allocating_op(*args, _fn=attr, _name=name, **kwargs):
                trace.mark_unsound(_name)
                return _fn(*args, **kwargs)

            return allocating_op
        return attr


def _counter_slots(updater) -> list:
    """The (object, name) pairs of ``updater``'s sweep counters."""
    slots = []
    for holder, names in _SWEEP_COUNTERS:
        obj = updater if holder is None else getattr(updater, holder, None)
        if obj is not None:
            slots.extend((obj, name) for name in names if hasattr(obj, name))
    return slots


class TracedExecutor:
    """Whole-sweep traced execution for the solo and ensemble drivers.

    ``run(state, stream, n)`` advances the chain ``n`` sweeps: the first
    call pays one eager warm-up sweep and one recording sweep, every
    further sweep is a replay.  All sweeps — eager, recording, replayed —
    advance the Philox stream identically, so the trajectory is
    bit-identical to ``n`` eager sweeps however they were split.
    """

    def __init__(self, updater) -> None:
        self.updater = updater
        self.sweeps_replayed = 0
        self.sweeps_eager = 0
        self.traces_recorded = 0
        self.invalidations = 0
        self.fallbacks = 0
        self.trace: SweepTrace | None = None
        #: (object, counter name, increment per sweep) of the recording
        #: sweep, re-applied ``n`` times per batch of ``n`` replays.
        self._increments: list[tuple[object, str, int]] = []
        self._bound: tuple | None = None
        self._warmed = False
        self._fallback = False

    @property
    def program_ops(self) -> int:
        """Backend ops per replayed sweep (0 without a sound trace)."""
        return self.trace.n_ops if self.trace is not None else 0

    @staticmethod
    def _tensors_of(state) -> tuple:
        s00 = getattr(state, "s00", None)
        if s00 is not None:
            return (s00, state.s01, state.s10, state.s11)
        w00 = getattr(state, "w00", None)
        if w00 is not None:
            # Packed states carry four uint64 word planes.
            return (w00, state.w01, state.w10, state.w11)
        return (state,)

    def _check_binding(self, state, stream) -> None:
        """(Re)bind to the state tensors + stream; invalidate on change.

        Identity (``is``), not equality: a trace replays writes into the
        exact arrays it recorded, so a restored checkpoint, a rebuilt
        ensemble roster or a new stream object must drop it.  The bound
        references are held strongly, so an id can never be recycled
        under us.
        """
        key = (*self._tensors_of(state), stream)
        bound = self._bound
        if bound is not None and len(bound) == len(key) and all(
            a is b for a, b in zip(bound, key)
        ):
            return
        if bound is not None:
            self._invalidate()
        self._bound = key

    def _invalidate(self) -> None:
        if self.trace is not None:
            self.invalidations += 1
        self.trace = None
        self._increments = []
        self._warmed = False
        self._fallback = False

    def rebind(self, updater) -> None:
        """Point at a rebuilt or re-tempered updater, dropping any program.

        Counters carry over — invalidations are part of the story the
        ``traced_*`` gauges tell.
        """
        self.updater = updater
        self._invalidate()
        self._bound = None

    def _eager(self, state, stream, n: int):
        updater = self.updater
        for _ in range(n):
            state = updater.sweep(state, stream)
        self.sweeps_eager += n
        return state

    def _record(self, state, stream):
        trace = SweepTrace()
        updater = self.updater
        real = updater.backend
        slots = _counter_slots(updater)
        before = [getattr(obj, name) for obj, name in slots]
        updater.backend = _RecordingBackend(real, trace)
        try:
            state = updater.sweep(state, stream)
        finally:
            updater.backend = real
        self.sweeps_eager += 1  # the recording sweep advanced the chain
        if trace.sound and trace.n_ops > 0:
            self.trace = trace.compile()
            self.traces_recorded += 1
            self._increments = [
                (obj, name, getattr(obj, name) - start)
                for (obj, name), start in zip(slots, before)
                if getattr(obj, name) != start
            ]
        else:
            # Not a steady-state fused sweep (cold cache or elementwise
            # path): replay would be unfaithful, stay eager from now on.
            self._fallback = True
            self.fallbacks += 1
        return state

    def run(self, state, stream, n_sweeps: int):
        """Advance ``n_sweeps`` sweeps, replaying wherever possible."""
        if n_sweeps <= 0:
            return state
        self._check_binding(state, stream)
        n = n_sweeps
        if self.trace is None and not self._fallback:
            # Warm-up state persists across calls, so per-sweep callers
            # (telemetry-attached drivers) still reach the replay path:
            # sweep 1 warms caches + buffers, sweep 2 records, 3+ replay.
            if not self._warmed:
                state = self._eager(state, stream, 1)
                self._warmed = True
                n -= 1
                if n == 0:
                    return state
            state = self._record(state, stream)
            n -= 1
        trace = self.trace
        if trace is None:
            return self._eager(state, stream, n) if n else state
        replay = trace.replay
        for _ in range(n):
            replay()
        self.sweeps_replayed += n
        for obj, name, step in self._increments:
            setattr(obj, name, getattr(obj, name) + n * step)
        return state


def record_traced_metrics(registry, executor: "TracedExecutor | None") -> None:
    """Publish the traced executor's gauges (zeros without an executor).

    * ``traced_sweeps_replayed`` / ``traced_sweeps_eager`` — how the
      chain's sweeps were executed;
    * ``traced_traces_recorded`` / ``traced_invalidations`` /
      ``traced_fallbacks`` — recorder lifecycle;
    * ``traced_program_ops`` — backend ops per replayed sweep.
    """
    for name in (
        "sweeps_replayed",
        "sweeps_eager",
        "traces_recorded",
        "invalidations",
        "fallbacks",
        "program_ops",
    ):
        value = getattr(executor, name) if executor is not None else 0
        registry.gauge(f"traced_{name}").set(value)
