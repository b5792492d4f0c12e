"""Per-run telemetry recording and the versioned ``RunReport`` JSON schema.

A :class:`RunTelemetry` is the live recorder a simulation driver owns for
one run: it accumulates per-sweep wall times, sampled physics signals
(magnetization, energy, flip activity) and arbitrary named metrics.  When
the run ends, the driver's ``report()`` method folds in its static
configuration plus RNG / per-core performance state and returns a
:class:`RunReport` — a plain dataclass that serialises to the versioned
JSON schema documented in ``docs/observability.md``.

Schema stability contract: ``schema`` is ``"repro.telemetry/run-report/v1"``;
any field removal or meaning change bumps the version, additions do not.
:func:`validate_run_report` checks a decoded JSON dict against v1 without
any third-party schema library (the package depends on numpy only).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .metrics import MetricsRegistry

__all__ = [
    "RUN_REPORT_SCHEMA",
    "RunTelemetry",
    "RunReport",
    "validate_run_report",
]

#: Versioned schema identifier carried by every run report.
RUN_REPORT_SCHEMA = "repro.telemetry/run-report/v1"

#: Run kinds a v1 report may carry.
RUN_KINDS = ("single", "ensemble", "distributed", "harness", "sched", "serve")


class RunTelemetry:
    """Opt-in per-run recorder attached to a simulation driver.

    Parameters
    ----------
    physics_interval:
        Sample physics signals (magnetization / energy / flip activity)
        every this many sweeps.  Physics sampling materialises the plain
        lattice, which costs a format conversion — raise the interval for
        long performance runs, or pass ``0`` to disable physics sampling
        entirely (sweep timing is always recorded).
    registry:
        Metrics registry to book signals into; a fresh one by default.

    The recorder never draws from the simulation's RNG stream and never
    mutates simulation state, so an instrumented chain is bit-identical
    to an uninstrumented one (enforced by ``tests/test_telemetry.py``).
    """

    def __init__(
        self,
        physics_interval: int = 1,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if physics_interval < 0:
            raise ValueError(
                f"physics_interval must be >= 0, got {physics_interval}"
            )
        self.physics_interval = int(physics_interval)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._sweep_wall = self.registry.histogram("sweep_wall_seconds")
        self._started_at = time.time()
        # Physics sampling state: previous sampled lattice(s) for flip
        # activity, plus first/last sampled observables for drift.
        self._prev_lattice: np.ndarray | None = None
        self._first_m: float | None = None
        self._first_e: float | None = None
        self._last_m: float | None = None
        self._last_e: float | None = None

    # -- recording hooks (called from instrumented sweep loops) -----------

    def record_sweep(self, wall_seconds: float) -> None:
        """Book one sweep's wall-clock duration."""
        self._sweep_wall.observe(wall_seconds)
        self.registry.counter("sweeps_total").inc()

    def wants_physics(self, sweeps_done: int) -> bool:
        """Whether the driver should sample physics after this sweep."""
        return (
            self.physics_interval > 0
            and sweeps_done % self.physics_interval == 0
        )

    def record_physics(
        self, lattices: np.ndarray, magnetizations: float, energies: float
    ) -> None:
        """Sample physics signals from the current plain lattice(s).

        ``lattices`` is the plain +/-1 state — ``(rows, cols)`` for a
        solo chain or ``(B, rows, cols)`` for an ensemble; flip activity
        is the fraction of sites that changed since the previous sample
        (averaged over chains), a cheap proxy for the Metropolis
        acceptance rate at the sampling cadence.
        """
        m = float(magnetizations)
        e = float(energies)
        self.registry.histogram("magnetization").observe(m)
        self.registry.histogram("energy_per_spin").observe(e)
        if self._first_m is None:
            self._first_m, self._first_e = m, e
        self._last_m, self._last_e = m, e
        if self._prev_lattice is not None:
            flipped = float(np.mean(self._prev_lattice != lattices))
            self.registry.histogram("flip_activity").observe(flipped)
        self._prev_lattice = np.asarray(lattices)

    # -- report assembly ---------------------------------------------------

    def physics_summary(self) -> dict:
        """The drift / activity block of the report."""
        reg = self.registry
        summary: dict[str, Any] = {}
        if self._first_m is not None:
            summary["magnetization_first"] = self._first_m
            summary["magnetization_last"] = self._last_m
            summary["magnetization_drift"] = self._last_m - self._first_m
            summary["energy_first"] = self._first_e
            summary["energy_last"] = self._last_e
            summary["energy_drift"] = self._last_e - self._first_e
        if "flip_activity" in reg:
            summary["flip_activity_mean"] = reg.histogram("flip_activity").mean
        return summary

    def sweep_summary(self) -> dict:
        """The wall-time block of the report."""
        h = self._sweep_wall
        return {
            "count": h.count,
            "wall_seconds_total": h.total,
            "wall_seconds_mean": h.mean,
            "wall_seconds_min": h.min if h.count else None,
            "wall_seconds_max": h.max if h.count else None,
            "wall_seconds_std": h.std,
        }

    def build_report(
        self,
        kind: str,
        run: dict,
        rng: dict | None = None,
        cores: list[dict] | None = None,
        breakdown: dict | None = None,
    ) -> "RunReport":
        """Assemble the final :class:`RunReport` (called by ``report()``)."""
        return RunReport(
            kind=kind,
            created_unix=self._started_at,
            run=run,
            sweeps=self.sweep_summary(),
            physics=self.physics_summary(),
            rng=rng if rng is not None else {},
            cores=cores if cores is not None else [],
            breakdown=breakdown if breakdown is not None else {},
            metrics=self.registry.as_dict(),
        )


@dataclass
class RunReport:
    """One run's machine-readable result (schema v1).

    Fields
    ------
    kind:
        One of :data:`RUN_KINDS`.
    run:
        Static configuration: updater, backend kind, dtype, shape,
        temperature(s), field, seed, block_shape, and for distributed
        runs core_grid / n_cores.
    sweeps:
        Wall-clock summary of the sweep loop.
    physics:
        Magnetization / energy first-last drift and mean flip activity.
    rng:
        Philox counter positions at the end of the run (``streams`` is a
        list of ``{seed, stream_id, counter}``).
    cores:
        Per-core performance split for distributed runs: modeled seconds
        per profiler category plus the compute-vs-communication fractions.
    breakdown:
        Pod-wide per-category time fractions (the Table 3 row for this
        run), empty for single-core runs without device accounting.
    metrics:
        Full metrics-registry dump (``{name: {type, ...}}``).
    """

    kind: str
    created_unix: float
    run: dict
    sweeps: dict
    physics: dict = field(default_factory=dict)
    rng: dict = field(default_factory=dict)
    cores: list = field(default_factory=list)
    breakdown: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    schema: str = RUN_REPORT_SCHEMA

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (validates against the v1 schema)."""
        payload = {
            "schema": self.schema,
            "kind": self.kind,
            "created_unix": self.created_unix,
            "run": _jsonify(self.run),
            "sweeps": _jsonify(self.sweeps),
            "physics": _jsonify(self.physics),
            "rng": _jsonify(self.rng),
            "cores": _jsonify(self.cores),
            "breakdown": _jsonify(self.breakdown),
            "metrics": _jsonify(self.metrics),
        }
        validate_run_report(payload)
        return payload

    def write(self, path) -> None:
        """Serialise to ``path`` as indented JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RunReport":
        """Decode (and validate) a v1 JSON dict back into a RunReport."""
        validate_run_report(payload)
        return cls(
            kind=payload["kind"],
            created_unix=float(payload["created_unix"]),
            run=payload["run"],
            sweeps=payload["sweeps"],
            physics=payload.get("physics", {}),
            rng=payload.get("rng", {}),
            cores=payload.get("cores", []),
            breakdown=payload.get("breakdown", {}),
            metrics=payload.get("metrics", {}),
            schema=payload["schema"],
        )


def _jsonify(value):
    """Recursively convert numpy scalars/arrays and tuples to JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and (value != value):  # NaN -> null
        return None
    return value


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid run report: {message}")


def validate_run_report(payload: dict) -> None:
    """Validate a decoded JSON dict against the v1 run-report schema.

    Raises ``ValueError`` naming the offending field.  Deliberately
    dependency-free: the checks cover the structural contract consumers
    rely on (types, required keys, value ranges), not every field.
    """
    _expect(isinstance(payload, dict), "top level must be an object")
    _expect(
        payload.get("schema") == RUN_REPORT_SCHEMA,
        f"schema must be {RUN_REPORT_SCHEMA!r}, got {payload.get('schema')!r}",
    )
    _expect(payload.get("kind") in RUN_KINDS, f"kind must be one of {RUN_KINDS}")
    _expect(
        isinstance(payload.get("created_unix"), (int, float)),
        "created_unix must be a number",
    )
    for key in ("run", "sweeps", "physics", "rng", "breakdown", "metrics"):
        _expect(isinstance(payload.get(key), dict), f"{key} must be an object")
    _expect(isinstance(payload.get("cores"), list), "cores must be an array")

    sweeps = payload["sweeps"]
    _expect(
        isinstance(sweeps.get("count"), int) and sweeps["count"] >= 0,
        "sweeps.count must be a non-negative integer",
    )
    _expect(
        isinstance(sweeps.get("wall_seconds_total"), (int, float)),
        "sweeps.wall_seconds_total must be a number",
    )

    for i, core in enumerate(payload["cores"]):
        _expect(isinstance(core, dict), f"cores[{i}] must be an object")
        _expect(
            isinstance(core.get("core_id"), int),
            f"cores[{i}].core_id must be an integer",
        )
        _expect(
            isinstance(core.get("seconds"), dict),
            f"cores[{i}].seconds must be an object",
        )
        frac = core.get("communication_fraction")
        _expect(
            isinstance(frac, (int, float)) and 0.0 <= frac <= 1.0,
            f"cores[{i}].communication_fraction must be in [0, 1]",
        )

    for name, metric in payload["metrics"].items():
        _expect(
            isinstance(metric, dict) and "type" in metric,
            f"metrics[{name!r}] must be an object with a 'type'",
        )
        _expect(
            metric["type"] in ("counter", "gauge", "histogram"),
            f"metrics[{name!r}].type must be counter/gauge/histogram",
        )

    streams = payload["rng"].get("streams")
    if streams is not None:
        _expect(isinstance(streams, list), "rng.streams must be an array")
        for i, s in enumerate(streams):
            _expect(
                isinstance(s, dict)
                and all(isinstance(s.get(k), int) for k in ("seed", "stream_id", "counter")),
                f"rng.streams[{i}] must carry integer seed/stream_id/counter",
            )
