"""Export profiler trace events as Chrome trace-event JSON (Perfetto).

The simulated :class:`~repro.tpu.profiler.Profiler` records
:class:`~repro.tpu.profiler.TraceEvent` tuples (category, name, start,
duration) on a modeled timeline when built with ``record_trace=True``.
This module turns those buffers into the Chrome trace-event format that
``chrome://tracing`` and https://ui.perfetto.dev load directly — the
software analogue of the paper's Fig. 6 trace-viewer screenshot.

Layout: the whole run is one process (``pid`` 0) and every simulated
TensorCore is one named thread track (``tid`` = core id), so a
distributed run renders as stacked per-core timelines with the halo
exchanges lining up across cores.  Event timestamps are the profiler's
modeled seconds converted to microseconds (the trace format's unit).
"""

from __future__ import annotations

import json

from ..tpu.profiler import Profiler

__all__ = ["chrome_trace", "write_chrome_trace"]

_US = 1e6  # seconds -> trace-format microseconds


def _core_label(core_id: int, coords) -> str:
    if coords is not None:
        return f"core {core_id} {tuple(coords)}"
    return f"core {core_id}"


def _profilers_of(source) -> list[tuple[int, tuple | None, Profiler]]:
    """Normalise the accepted sources to (core_id, coords, profiler) rows.

    Accepts a single :class:`Profiler`, a sequence of profilers, a
    :class:`~repro.tpu.device.PodSlice`, or anything exposing a ``pod``
    attribute (e.g. :class:`~repro.core.distributed.DistributedIsing`).
    """
    pod = getattr(source, "pod", source)
    cores = getattr(pod, "cores", None)
    if cores is not None:
        return [(core.core_id, core.coords, core.profiler) for core in cores]
    if isinstance(source, Profiler):
        return [(0, None, source)]
    rows = []
    for idx, profiler in enumerate(source):
        if not isinstance(profiler, Profiler):
            raise TypeError(
                f"expected Profiler at index {idx}, got {type(profiler).__name__}"
            )
        rows.append((idx, None, profiler))
    if not rows:
        raise ValueError("no profilers to export")
    return rows


#: Span tracks rendered after the per-core tracks, in tid order:
#: (track label, event category, source attribute holding the spans).
#: A :class:`~repro.sched.scheduler.Scheduler` built with
#: ``record_trace=True`` records one ``sched_log`` span per batch
#: advance; a :class:`~repro.serve.app.ServeApp` merges request
#: accept/shed spans and autoscale events into ``serve_log``; a
#: :class:`~repro.core.tempering.TemperingEnsemble` records one
#: ``swap_log`` span per swap round.  Each span is a ``{"name", "start",
#: "duration"}`` dict with optional ``args``.
_SPAN_TRACKS = (
    ("scheduler batches", "sched", "sched_log"),
    ("serve front door", "serve", "serve_log"),
    ("tempering swaps", "tempering", "swap_log"),
)


def chrome_trace(source) -> dict:
    """Build a Chrome trace-event JSON object from recorded trace buffers.

    ``source`` may be a :class:`Profiler`, a list of profilers, a
    :class:`~repro.tpu.device.PodSlice` or a distributed simulation.  One
    thread track is emitted per core; each op becomes a complete ("X")
    event with its profiler category as the event category.  A source
    carrying a non-empty span log (see :data:`_SPAN_TRACKS`) gets one
    extra track per log, after the core tracks: "scheduler batches" so
    batch advances line up against the device timelines they were
    booked on, "serve front door" with request accept/shed and
    autoscale events, and "tempering swaps" with attempted and accepted
    exchange counts in the span args.  Raises if no trace events were
    recorded (build the profilers with ``record_trace=True``).
    """
    try:
        rows = _profilers_of(source)
    except (TypeError, ValueError):
        # Not a profiler-bearing source — a TemperingEnsemble carries
        # only its swap_log; export succeeds iff some span track is
        # non-empty (the total_events == 0 check below still raises).
        rows = []
    events: list[dict] = []
    total_events = 0
    for core_id, coords, profiler in rows:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": core_id,
                "args": {"name": _core_label(core_id, coords)},
            }
        )
        for ev in profiler.trace:
            total_events += 1
            events.append(
                {
                    "ph": "X",
                    "name": ev.name or ev.category,
                    "cat": ev.category,
                    "pid": 0,
                    "tid": core_id,
                    "ts": ev.start * _US,
                    "dur": ev.duration * _US,
                }
            )
    tid = max((core_id for core_id, _, _ in rows), default=-1) + 1
    span_counts = {}
    for label, category, attribute in _SPAN_TRACKS:
        spans = list(getattr(source, attribute, ()) or ())
        span_counts[category] = len(spans)
        if not spans:
            continue
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": label},
            }
        )
        for span in spans:
            events.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "cat": category,
                    "pid": 0,
                    "tid": tid,
                    "ts": span["start"] * _US,
                    "dur": span["duration"] * _US,
                    "args": span.get("args", {}),
                }
            )
        total_events += len(spans)
        tid += 1
    if total_events == 0:
        raise ValueError(
            "no trace events recorded — construct the profiler/pod with "
            "record_trace=True before running"
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.telemetry.trace",
            "timeline": "modeled TPU seconds (not wall clock)",
            "num_cores": len(rows),
            "num_sched_spans": span_counts["sched"],
            "num_serve_spans": span_counts["serve"],
            "num_tempering_spans": span_counts["tempering"],
        },
    }


def write_chrome_trace(path, source) -> dict:
    """Export ``source``'s trace to ``path`` and return the trace dict."""
    trace = chrome_trace(source)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    return trace
