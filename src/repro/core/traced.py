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
across sweeps, and the stateful ops — ``uniform_into`` and
``packed_bits_into`` — advance the recorded Philox stream exactly as an
eager sweep would.  Soundness is
checked, not assumed: if the recording sweep calls any *allocating*
backend op (a cold cache, an updater outside the fused steady state),
the trace is marked unsound and the executor falls back to eager sweeps
permanently for that binding.  A replay runs backend ops only: nothing
the updater's Python code would do outside them happens, so an updater
keeps no per-sweep tallies of its own.

Draw-ahead: Philox is counter-based, so the counter alone fixes every
word, and one draw of ``k`` sweeps' words is the ``k`` per-sweep draws
laid end to end.  When a recorded sweep's only stream ops are
``uniform_into`` calls on the bound stream, each drawing whole Philox
counters per chain, replay draws up to ``k = 4 * BLOCK_COUNTERS //
(chains * words per sweep)`` sweeps' uniforms with one call and each
replayed sweep copies its slice into the buffers its draws wrote.  A
call never draws past the sweeps it runs, so on return every counter
sits where eager sweeps leave it.

A trace is bound to the identities of the state tensors and the stream
it recorded.  Any change — checkpoint restore, ensemble roster rebuild,
or a new shape/dtype/field/fused configuration (all of which rebuild the
updater and its buffers) — invalidates the trace and the next run
re-records.  Re-tempering does not: the updater rewrites the acceptance
entries, the gaussian ``-2 beta`` factor or the packed thresholds in
place, and the recorded ops read those very arrays.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..backend.base import Backend
from ..rng.philox import BLOCK_COUNTERS

__all__ = [
    "REPLAYABLE_OPS",
    "ALLOCATING_OPS",
    "SweepTrace",
    "TracedExecutor",
    "record_traced_metrics",
]

#: The public backend ops, split by one naming rule.
_PUBLIC_OPS = frozenset(
    name
    for name, op in vars(Backend).items()
    if callable(op) and not name.startswith("_")
)

#: The in-place ``*_into`` vocabulary a steady-state fused sweep uses.
#: Calls to these are recorded verbatim: same bound method, same buffer
#: arguments, replayed in order.
REPLAYABLE_OPS = frozenset(name for name in _PUBLIC_OPS if name.endswith("_into"))

#: Every other public backend op allocates fresh arrays.  Seeing one
#: during a recording sweep means the sweep was not in its steady state
#: (a cold cache, an elementwise code path) — the resulting trace could
#: not be replayed faithfully, so it is marked unsound.
ALLOCATING_OPS = _PUBLIC_OPS - REPLAYABLE_OPS

#: Ops that advance the stream they are given: each call is one Philox draw.
_STREAM_OPS = frozenset({"uniform_into", "packed_bits_into"})


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
        #: Philox draws (stream ops) per sweep.
        self.n_draws = 0

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
        self.n_draws = sum(entry[0] in _STREAM_OPS for entry in self._entries)
        return self

    def replay(self) -> None:
        """Run the recorded program once (one sweep)."""
        for step in self._steps:
            step()

    def draw_ahead(self, stream) -> "_DrawAhead | None":
        """This program with its uniforms drawn ahead, or ``None``.

        Engages when every stream op is a ``uniform_into`` on ``stream``
        that draws whole Philox counters (a multiple of 4 words) per
        chain, and at least two sweeps' words fit in
        ``4 * BLOCK_COUNTERS``.  Each draw step becomes a copy of its
        words from a :class:`_Cursor`.
        """
        rows = getattr(stream, "n_chains", 1)
        cursor = _Cursor()
        steps = list(self._steps)
        draw = None
        width = 0
        for i, (name, fn, args, kwargs) in enumerate(self._entries):
            if name not in _STREAM_OPS:
                continue
            if name != "uniform_into" or kwargs or args[0] is not stream:
                return None
            out = args[1]
            words = out.size // rows
            if words % 4:
                return None
            steps[i] = partial(
                _copy_drawn, cursor, out.reshape(rows, words), width, width + words
            )
            width += words
            draw = draw or fn
        if draw is None or 4 * BLOCK_COUNTERS // (rows * width) < 2:
            return None
        return _DrawAhead(draw, rows, width, steps, cursor)


class _Cursor:
    """Where replayed draws read: one chunk's uniforms and a sweep's offset.

    A :class:`_DrawAhead` and its copy steps share it, and it refers to
    neither.  A bound method or closure of either in the steps would be
    a reference cycle, and every dropped chain would keep its buffers
    until the cyclic garbage collector ran.
    """

    __slots__ = ("uniforms", "base")

    def __init__(self) -> None:
        self.uniforms: np.ndarray | None = None
        self.base = 0


def _copy_drawn(cursor: _Cursor, out: np.ndarray, start: int, stop: int) -> None:
    """One replayed draw: words ``[start, stop)`` of the current sweep."""
    base = cursor.base
    np.copyto(out, cursor.uniforms[:, base + start : base + stop])


class _DrawAhead:
    """A recorded sweep that draws the uniforms of ``k`` sweeps in one call.

    ``draw`` is the recorded ``uniform_into``; ``rows`` the stream's
    chains, ``width`` the words one sweep draws per chain.  A chunk of
    ``k <= cap`` sweeps draws ``(rows, k * width)`` uniforms, then runs
    ``steps`` (the program with each draw replaced by a copy) ``k`` times.
    """

    __slots__ = ("draw", "rows", "width", "cap", "steps", "cursor", "_flat")

    def __init__(self, draw, rows: int, width: int, steps: list, cursor: _Cursor) -> None:
        self.draw = draw
        self.rows = rows
        self.width = width
        self.cap = 4 * BLOCK_COUNTERS // (rows * width)
        self.steps = steps
        self.cursor = cursor
        self._flat: np.ndarray | None = None

    def replay(self, stream, n: int) -> int:
        """Run ``n`` sweeps; return the Philox draws they made."""
        rows, width, steps, cursor = self.rows, self.width, self.steps, self.cursor
        draws = 0
        for done in range(0, n, self.cap):
            k = min(self.cap, n - done)
            size = rows * k * width
            if self._flat is None or self._flat.size < size:
                self._flat = np.empty(size, dtype=np.float32)
            uniforms = self._flat[:size].reshape(rows, k * width)
            self.draw(stream, uniforms)
            draws += 1
            cursor.uniforms = uniforms
            for j in range(k):
                cursor.base = j * width
                for step in steps:
                    step()
        return draws


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


class TracedExecutor:
    """Whole-sweep traced execution for the solo and ensemble drivers.

    ``run(state, stream, n)`` advances the chain ``n`` sweeps: the first
    call pays one eager warm-up sweep and one recording sweep, every
    further sweep is a replay, with its uniforms drawn ahead where the
    program allows (:meth:`SweepTrace.draw_ahead`).  All sweeps — eager,
    recording, replayed — advance the Philox stream identically, so the
    trajectory is bit-identical to ``n`` eager sweeps however they were
    split.
    """

    def __init__(self, updater) -> None:
        self.updater = updater
        self.sweeps_replayed = 0
        self.sweeps_eager = 0
        self.traces_recorded = 0
        self.invalidations = 0
        self.fallbacks = 0
        #: Philox draws the replayed sweeps made.
        self.replay_draws = 0
        self.trace: SweepTrace | None = None
        self._ahead: _DrawAhead | None = None
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
        self._ahead = None
        self._warmed = False
        self._fallback = False

    def rebind(self, updater) -> None:
        """Point at a rebuilt updater, dropping any program.

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
        updater.backend = _RecordingBackend(real, trace)
        try:
            state = updater.sweep(state, stream)
        finally:
            updater.backend = real
        self.sweeps_eager += 1  # the recording sweep advanced the chain
        if trace.sound and trace.n_ops > 0:
            self.trace = trace.compile()
            self._ahead = trace.draw_ahead(stream)
            self.traces_recorded += 1
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
        if self._ahead is not None:
            self.replay_draws += self._ahead.replay(stream, n)
        else:
            replay = trace.replay
            for _ in range(n):
                replay()
            self.replay_draws += n * trace.n_draws
        self.sweeps_replayed += n
        return state


def record_traced_metrics(registry, executor: "TracedExecutor | None") -> None:
    """Publish the traced executor's gauges (zeros without an executor).

    * ``traced_sweeps_replayed`` / ``traced_sweeps_eager`` — how the
      chain's sweeps were executed;
    * ``traced_traces_recorded`` / ``traced_invalidations`` /
      ``traced_fallbacks`` — recorder lifecycle;
    * ``traced_program_ops`` — backend ops per replayed sweep;
    * ``traced_replay_draws`` — Philox draws (``uniform_into`` or
      ``packed_bits_into`` calls) the replayed sweeps made, so
      ``traced_sweeps_replayed / traced_replay_draws`` reads as sweeps
      per Philox call.
    """
    for name in (
        "sweeps_replayed",
        "sweeps_eager",
        "traces_recorded",
        "invalidations",
        "fallbacks",
        "program_ops",
        "replay_draws",
    ):
        value = getattr(executor, name) if executor is not None else 0
        registry.gauge(f"traced_{name}").set(value)
