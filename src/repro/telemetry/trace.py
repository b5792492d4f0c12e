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


def _fault_spans_of(source) -> list[dict]:
    """Retry / fault spans recorded by an SPMD runtime, if any.

    Accepts anything exposing ``fault_log`` directly (an
    :class:`~repro.mesh.runtime.SPMDRuntime`) or through a ``runtime``
    attribute (:class:`~repro.core.distributed.DistributedIsing`).
    """
    runtime = getattr(source, "runtime", source)
    return list(getattr(runtime, "fault_log", ()) or ())


def _sched_spans_of(source) -> list[dict]:
    """Batch-advance spans recorded by a scheduler, if any.

    Accepts anything exposing ``sched_log``
    (:class:`~repro.sched.scheduler.Scheduler` records one span per
    batch advance when built with ``record_trace=True``).
    """
    return list(getattr(source, "sched_log", ()) or ())


def _overlap_spans_of(source) -> list[dict]:
    """Halo-overlap window spans recorded by an SPMD runtime, if any.

    Accepts anything exposing ``overlap_log`` directly (an
    :class:`~repro.mesh.runtime.SPMDRuntime`) or through a ``runtime``
    attribute (:class:`~repro.core.distributed.DistributedIsing` under
    the split-phase overlap schedule).
    """
    runtime = getattr(source, "runtime", source)
    return list(getattr(runtime, "overlap_log", ()) or ())


def _serve_spans_of(source) -> list[dict]:
    """Front-door serve-layer spans, if any.

    Accepts anything exposing ``serve_log``
    (:class:`~repro.serve.app.ServeApp` merges request accept/shed
    spans with the autoscaler's scale events there).
    """
    return list(getattr(source, "serve_log", ()) or ())


def _tempering_spans_of(source) -> list[dict]:
    """Replica-exchange swap-round spans, if any.

    Accepts anything exposing ``swap_log``
    (:class:`~repro.core.tempering.TemperingEnsemble` records one span
    per swap round with attempted/accepted counts in ``args``).
    """
    return list(getattr(source, "swap_log", ()) or ())


def chrome_trace(source) -> dict:
    """Build a Chrome trace-event JSON object from recorded trace buffers.

    ``source`` may be a :class:`Profiler`, a list of profilers, a
    :class:`~repro.tpu.device.PodSlice` or a distributed simulation.  One
    thread track is emitted per core; each op becomes a complete ("X")
    event with its profiler category as the event category.  When the
    source carries an SPMD runtime with a non-empty ``fault_log`` (retry
    storms, injected delays), those spans render on an extra "mesh
    faults" track so degraded collectives line up against the per-core
    timelines; a scheduler source with a non-empty ``sched_log`` gets a
    "scheduler batches" track the same way, so batch advances line up
    against the device timelines they were booked on; a run under the
    split-phase overlap schedule (non-empty ``overlap_log``) gets a
    "halo overlap" track showing each window's hidden vs exposed
    communication; a tempering run (non-empty ``swap_log``) gets a
    "tempering swaps" track with one span per swap round, attempted and
    accepted exchange counts in the span args; a serve front door with a
    non-empty ``serve_log`` gets a "serve front door" track with request
    accept/shed and autoscale events.  Raises if no trace
    events were recorded (build the profilers with ``record_trace=True``).
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
    next_tid = max((core_id for core_id, _, _ in rows), default=-1) + 1
    sched_spans = _sched_spans_of(source)
    if sched_spans:
        sched_tid = next_tid
        next_tid += 1
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": sched_tid,
                "args": {"name": "scheduler batches"},
            }
        )
        for span in sched_spans:
            total_events += 1
            events.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "cat": "sched",
                    "pid": 0,
                    "tid": sched_tid,
                    "ts": span["start"] * _US,
                    "dur": span["duration"] * _US,
                    "args": span.get("args", {}),
                }
            )
    serve_spans = _serve_spans_of(source)
    if serve_spans:
        serve_tid = next_tid
        next_tid += 1
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": serve_tid,
                "args": {"name": "serve front door"},
            }
        )
        for span in serve_spans:
            total_events += 1
            events.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "cat": "serve",
                    "pid": 0,
                    "tid": serve_tid,
                    "ts": span["start"] * _US,
                    "dur": span["duration"] * _US,
                    "args": span.get("args", {}),
                }
            )
    tempering_spans = _tempering_spans_of(source)
    if tempering_spans:
        tempering_tid = next_tid
        next_tid += 1
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tempering_tid,
                "args": {"name": "tempering swaps"},
            }
        )
        for span in tempering_spans:
            total_events += 1
            events.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "cat": "tempering",
                    "pid": 0,
                    "tid": tempering_tid,
                    "ts": span["start"] * _US,
                    "dur": span["duration"] * _US,
                    "args": span.get("args", {}),
                }
            )
    overlap_spans = _overlap_spans_of(source)
    if overlap_spans:
        overlap_tid = next_tid
        next_tid += 1
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": overlap_tid,
                "args": {"name": "halo overlap"},
            }
        )
        for span in overlap_spans:
            total_events += 1
            events.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "cat": "overlap",
                    "pid": 0,
                    "tid": overlap_tid,
                    "ts": span["start"] * _US,
                    "dur": span["duration"] * _US,
                    "args": {
                        "comm_seconds": span["comm_seconds"],
                        "hidden_seconds": span["hidden_seconds"],
                        "exposed_seconds": span["exposed_seconds"],
                        "permutes": span["permutes"],
                    },
                }
            )
    fault_spans = _fault_spans_of(source)
    if fault_spans:
        fault_tid = next_tid
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": fault_tid,
                "args": {"name": "mesh faults"},
            }
        )
        for span in fault_spans:
            events.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "cat": "fault",
                    "pid": 0,
                    "tid": fault_tid,
                    "ts": span["start"] * _US,
                    "dur": span["duration"] * _US,
                    "args": {"collective": span["collective"]},
                }
            )
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
            "num_fault_spans": len(fault_spans),
            "num_sched_spans": len(sched_spans),
            "num_serve_spans": len(serve_spans),
            "num_tempering_spans": len(tempering_spans),
            "num_overlap_spans": len(overlap_spans),
        },
    }


def write_chrome_trace(path, source) -> dict:
    """Export ``source``'s trace to ``path`` and return the trace dict."""
    trace = chrome_trace(source)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    return trace
