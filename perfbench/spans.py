"""Span recording for traced runs: wrappers, self time, layer metrics.

A traced run replaces public methods of the layers below at class level
(and a few names a module imported from another), so every caller, the
traced executor's replays included, goes through the wrapper.  Each
wrapper opens a span on a :class:`Tracer`; closing it books the span's
inclusive time and its *self* time: its duration minus the time its child
spans cover.  Totals are kept per span name as the run goes, so memory
does not grow with run length; raw spans are kept only for Chrome traces.

Wrapping must happen before the simulation or the ``ServeApp`` is built:
a recorded sweep program holds the bound methods it saw when recording.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import selectors
import statistics
from time import perf_counter

#: Raw spans kept for a Chrome trace; later spans are booked, not kept.
MAX_SPANS = 200_000

#: Backend ops reported one by one; the rest of ``backend.*`` is "other".
NAMED_BACKEND_OPS = (
    "take_into",
    "acceptance_index_into",
    "band_pair_matmul_into",
    "roll_into",
    "slice_copy_into",
    "add_at_slice_into",
    "less_into",
    "multiply_into",
    "add_into",
    "uniform_into",
    "packed_bits_into",
    "packed_compare_pack_into",
    "packed_full_adder_into",
    "packed_xor_into",
    "packed_shift_cols_into",
    "packed_flip_select_into",
)

#: Serve-side span names reported as shares of the server's window.
SERVE_SHARES = {
    "serve.http_response_frac": "serve.http_response",
    "serve.config_from_wire_frac": "serve.config_from_wire",
    "serve.result_to_wire_frac": "serve.result_to_wire",
    "serve.limits_frac": "serve.limits",
    "router.submit_frac": "router.submit",
    "router.step_frac": "router.step",
    "autoscale.frac": "autoscale",
    "sched.submit_frac": "sched.submit",
    "sched.cache_key_frac": "sched.cache_key",
    "sched.step_frac": "sched.step",
    "sched.coalesce_frac": "sched.coalesce",
    "sched.batch_build_frac": "sched.batch_build",
    "observables.frac": "observables",
}


class Tracer:
    """Nested spans with streaming per-name totals.

    ``totals[name]`` is ``[calls, inclusive_s, self_s]``; ``counters``
    holds counts the wrappers add (words drawn, bytes computed, ...).
    """

    def __init__(self, keep_spans: bool = False, clock=perf_counter) -> None:
        self.clock = clock
        self.keep_spans = keep_spans
        #: When set, backend/RNG wrappers also count bytes and words.
        self.count_work = False
        self._paused = False
        self._stack: "list[list]" = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (open spans stay open)."""
        self.totals: "dict[str, list]" = {}
        self.counters: "dict[str, float]" = {}
        self.spans: "list[tuple]" = []
        self.job_marks: "dict[int, dict]" = {}

    @contextlib.contextmanager
    def paused(self):
        """Spans opened inside are not booked (untimed checking work)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def begin(self, name: str) -> None:
        self._stack.append([None if self._paused else name, self.clock(), 0.0])

    def end(self, job=None) -> None:
        """Close the innermost span."""
        name, start, child_s = self._stack.pop()
        stop = self.clock()
        if name is None:
            return
        duration = stop - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if self.keep_spans and len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((name, start, stop, parent, job))

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def mark_job(self, job, state: str) -> None:
        """First time ``job`` (a scheduler job) reached ``state``.

        Keyed by ``id(job)``: the scheduler keeps every job it accepted,
        so an id is never reused during a run."""
        marks = self.job_marks.setdefault(id(job), {})
        marks.setdefault(state, self.clock())

    def queue_wait_shares(self) -> "list[float]":
        """Per admitted job: queued->admitted over queued->done."""
        shares = []
        for marks in self.job_marks.values():
            if {"queued", "admitted", "done"} <= marks.keys():
                life = marks["done"] - marks["queued"]
                if life > 0:
                    shares.append((marks["admitted"] - marks["queued"]) / life)
        return shares

    def snapshot(self) -> dict:
        """Plain-data totals, for sending to the parent process."""
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counters": dict(self.counters),
            "queue_wait_shares": self.queue_wait_shares(),
        }


# -- wrapping -----------------------------------------------------------------


def _nbytes(args) -> int:
    return sum(getattr(a, "nbytes", 0) for a in args)


def _wrap(tracer: Tracer, fn, name: str, after=None, job_of=None):
    begin, end = tracer.begin, tracer.end

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
        finally:
            end(job_of(args, result) if job_of is not None else None)
        return result

    return traced


def wrap_method(tracer: Tracer, owner: type, attr: str, name: str, **hooks) -> None:
    """Replace ``owner.attr`` (function, classmethod or staticmethod)."""
    raw = owner.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(_wrap(tracer, raw.__func__, name, **hooks)))
    else:
        setattr(owner, attr, _wrap(tracer, raw, name, **hooks))


def wrap_name(tracer: Tracer, module: str, attr: str, name: str, **hooks) -> None:
    """Replace the name ``attr`` as ``module`` sees it."""
    mod = importlib.import_module(module)
    setattr(mod, attr, _wrap(tracer, getattr(mod, attr), name, **hooks))


def install_sweep_layers(tracer: Tracer) -> None:
    """Wrap the RNG, every public backend op and the simulation drivers."""
    from repro.backend.base import Backend
    from repro.core.ensemble import EnsembleSimulation
    from repro.core.simulation import IsingSimulation
    from repro.rng.streams import BatchedPhiloxStream, PhiloxStream

    def count_bytes(args, kwargs, result):
        if tracer.count_work:
            tracer.add("backend.bytes", _nbytes(args) + _nbytes(kwargs.values()))

    for attr, value in list(vars(Backend).items()):
        if callable(value) and not attr.startswith("_"):
            wrap_method(tracer, Backend, attr, f"backend.{attr}", after=count_bytes)

    def count_words(args, kwargs, result):
        if tracer.count_work:
            tracer.add("rng.words", result.size)

    for cls in (PhiloxStream, BatchedPhiloxStream):
        for attr in ("uniform_into", "bits_into", "random_bits"):
            wrap_method(tracer, cls, attr, "rng.philox", after=count_words)
        # uniform() draws through random_bits(), which counts the words.
        wrap_method(tracer, cls, "uniform", "rng.philox")

    def count_chain_sweeps(args, kwargs, result):
        sim, n_sweeps = args[0], args[1]
        tracer.add("core.sweeps", n_sweeps)
        tracer.add("core.chain_sweeps", n_sweeps * getattr(sim, "n_chains", 1))

    for cls in (IsingSimulation, EnsembleSimulation):
        wrap_method(tracer, cls, "run", "core.run", after=count_chain_sweeps)


def install_serve_layers(tracer: Tracer) -> None:
    """Wrap the sweep layers plus the front door, router and scheduler."""
    install_sweep_layers(tracer)
    from repro.core.ensemble import EnsembleSimulation
    from repro.sched.cache import ResultCache
    from repro.sched.coalesce import Coalescer
    from repro.sched.job import Job
    from repro.sched.scheduler import Scheduler
    from repro.serve.autoscale import Autoscaler
    from repro.serve.limits import RateLimiter
    from repro.serve.router import ShardRouter

    for attr in ("http_response", "config_from_wire", "result_to_wire"):
        wrap_name(tracer, "repro.serve.app", attr, f"serve.{attr}")
    wrap_method(tracer, RateLimiter, "admit", "serve.limits")
    wrap_method(tracer, ShardRouter, "submit", "router.submit")
    wrap_method(tracer, ShardRouter, "step", "router.step")
    wrap_method(tracer, Autoscaler, "observe", "autoscale")
    wrap_method(tracer, Autoscaler, "publish", "autoscale")
    for module in ("repro.serve.router", "repro.sched.scheduler"):
        wrap_name(tracer, module, "canonical_cache_key", "sched.cache_key")
    for attr in ("magnetization", "energy_per_spin"):
        wrap_name(tracer, "repro.sched.scheduler", attr, "observables")

    def queued(args, kwargs, job):
        tracer.mark_job(job, "queued")

    wrap_method(
        tracer, Scheduler, "submit", "sched.submit",
        after=queued, job_of=lambda args, job: getattr(job, "id", None),
    )
    wrap_method(tracer, Scheduler, "step", "sched.step")
    wrap_method(tracer, Coalescer, "plan", "sched.coalesce")
    for attr in ("from_chains", "add_chain", "remove_chain"):
        wrap_method(tracer, EnsembleSimulation, attr, "sched.batch_build")

    def cache_hit(args, kwargs, result):
        tracer.add("cache.gets", 1)
        tracer.add("cache.hits", result is not None)

    wrap_method(tracer, ResultCache, "get", "cache.get", after=cache_hit)

    def transition(args, kwargs, result):
        tracer.mark_job(args[0], args[1])

    wrap_method(
        tracer, Job, "transition", "job.transition",
        after=transition, job_of=lambda args, result: args[0].id,
    )


class TimedSelector(selectors.DefaultSelector):
    """The event loop's selector, timing how long the loop sat idle."""

    idle_s = 0.0

    def select(self, timeout=None):
        start = perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += perf_counter() - start


# -- metrics ------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def layer_metrics(snapshot: dict, window_s: float, units: int) -> dict:
    """Per-layer metrics from a :meth:`Tracer.snapshot`.

    Times are self-time shares of ``window_s`` (the traced chunks, or the
    server's measured window); counts are per unit of work (a sweep on
    sweep workloads, a completed job on serve workloads).
    """
    totals = snapshot["totals"]
    counters = snapshot["counters"]

    def self_s(name):
        return totals[name][2] if name in totals else 0.0

    def calls(name):
        return totals[name][0] if name in totals else 0

    backend = {k: v for k, v in totals.items() if k.startswith("backend.")}
    backend_self = sum(v[2] for v in backend.values())
    named_self = sum(self_s(f"backend.{op}") for op in NAMED_BACKEND_OPS)
    metrics = {
        f"backend.{op}_frac": self_s(f"backend.{op}") / window_s
        for op in NAMED_BACKEND_OPS
    }
    metrics["backend.other_frac"] = (backend_self - named_self) / window_s
    metrics["backend.ops_frac"] = backend_self / window_s
    metrics["rng.philox_frac"] = self_s("rng.philox") / window_s
    metrics["core.driver_frac"] = self_s("core.run") / window_s
    run_incl = totals["core.run"][1] if "core.run" in totals else 0.0
    metrics["core.run_frac"] = run_incl / window_s
    metrics["backend.ops"] = sum(v[0] for v in backend.values()) / units
    metrics["backend.computed_mb"] = counters.get("backend.bytes", 0.0) / units / 1e6
    metrics["rng.draws"] = counters.get("rng.words", 0.0) / units
    for metric, name in SERVE_SHARES.items():
        metrics[metric] = self_s(name) / window_s
    metrics["sched.cache_key_calls"] = calls("sched.cache_key") / units
    metrics["sched.chain_rebuilds"] = calls("sched.batch_build") / units
    sweeps = counters.get("core.sweeps", 0.0)
    chain_sweeps = counters.get("core.chain_sweeps", 0.0)
    metrics["sched.chains_per_batch"] = chain_sweeps / sweeps if sweeps else 0.0
    metrics["sched.chain_sweeps"] = chain_sweeps / units
    gets = counters.get("cache.gets", 0.0)
    metrics["cache.hit_ratio"] = counters.get("cache.hits", 0.0) / gets if gets else 0.0
    shares = snapshot["queue_wait_shares"]
    metrics["job.queue_wait_share_p50"] = percentile(shares, 50)
    metrics["job.queue_wait_share_p90"] = percentile(shares, 90)
    metrics["trace.unit_ms"] = window_s / units * 1e3
    return metrics


def chrome_trace(tracks: "list[tuple[str, list]]") -> dict:
    """Chrome-trace JSON (loadable in Perfetto): one process per track.

    Each track is ``(label, spans)`` with spans as recorded by
    :class:`Tracer` (``perf_counter`` seconds, shared by every process on
    the host, so server and client tracks line up).
    """
    events = []
    for pid, (label, spans) in enumerate(tracks, start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": label}}
        )
        for name, start, stop, parent, job in spans:
            args = {"parent": parent}
            if job is not None:
                args["job"] = job
            events.append(
                {"name": name, "ph": "X", "pid": pid, "tid": 0,
                 "ts": start * 1e6, "dur": (stop - start) * 1e6, "args": args}
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def median(values) -> float:
    return statistics.median(values) if values else 0.0
