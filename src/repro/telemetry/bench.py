"""The ``BENCH_<name>.json`` benchmark-result schema and writer.

Every module under ``benchmarks/`` exposes a ``bench_payload()`` summary
(scalar metrics plus free-form metadata); ``benchmarks/emit.py`` — or the
module's own ``__main__`` — funnels those through :func:`write_bench_report`
so each run leaves a machine-readable ``BENCH_<name>.json`` behind.  CI
uploads the files as workflow artifacts, which is what makes the repo's
performance trajectory accumulate across commits instead of living only
in printed tables.

Schema contract (``repro.telemetry/bench-report/v1``): ``metrics`` maps
metric name to a number (units belong in the name — ``_seconds``,
``_flips_per_ns``, ``_ratio``); ``meta`` is free-form JSON context, and
:func:`bench_report` stamps the host into ``meta["env"]`` (see
:func:`host_environment`).  Additions are backward compatible, removals
bump the version.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from .report import _jsonify

__all__ = [
    "BENCH_REPORT_SCHEMA",
    "bench_report",
    "host_environment",
    "modeled_drift",
    "validate_bench_report",
    "write_bench_report",
    "bench_filename",
]

#: Versioned schema identifier carried by every bench report.
BENCH_REPORT_SCHEMA = "repro.telemetry/bench-report/v1"

#: Environment variable overriding the default output directory.
BENCH_OUT_ENV = "BENCH_OUT_DIR"

#: BLAS / OpenMP thread-count variables: a float sweep's matmuls run on
#: as many cores as these allow, so a timing means little without them.
_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bench_filename(name: str) -> str:
    """The canonical artifact filename for a bench name."""
    return f"BENCH_{name}.json"


def host_environment() -> dict:
    """The host a measurement ran on: CPU model, nproc, Python, numpy,
    platform, and the BLAS thread variables (``None`` when unset)."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        nproc = os.cpu_count() or 1
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        **{var: os.environ.get(var) for var in _THREAD_ENV_VARS},
    }


def bench_report(name: str, metrics: dict, meta: dict | None = None) -> dict:
    """Assemble (and validate) one bench result as a schema-v1 dict.

    ``meta["env"]`` is set to :func:`host_environment`.
    """
    meta = {**(meta or {}), "env": host_environment()}
    payload = {
        "schema": BENCH_REPORT_SCHEMA,
        "name": name,
        "created_unix": time.time(),
        "metrics": _jsonify(metrics),
        "meta": _jsonify(meta),
    }
    validate_bench_report(payload)
    return payload


def modeled_drift(fresh: dict, snapshot: dict) -> list[str]:
    """The ``modeled_*`` metrics on which two bench reports disagree.

    Modeled metrics come from the cost model alone, so a fresh run of a
    module that reads no clock must reproduce its committed snapshot to
    float rounding.  Returns one line per metric that differs by more
    than 1e-12 relative, or that only one of the two reports has.
    """
    new, old = fresh["metrics"], snapshot["metrics"]
    problems = []
    for key in sorted(k for k in old.keys() | new.keys() if k.startswith("modeled_")):
        if key not in new or key not in old:
            side = "snapshot" if key in old else "fresh run"
            problems.append(f"{key}: only in the {side}")
        elif abs(new[key] - old[key]) > 1e-12 * max(abs(new[key]), abs(old[key])):
            problems.append(f"{key}: {old[key]!r} -> {new[key]!r}")
    return problems


def validate_bench_report(payload: dict) -> None:
    """Validate a decoded JSON dict against the v1 bench-report schema."""
    if not isinstance(payload, dict):
        raise ValueError("invalid bench report: top level must be an object")
    if payload.get("schema") != BENCH_REPORT_SCHEMA:
        raise ValueError(
            f"invalid bench report: schema must be {BENCH_REPORT_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("invalid bench report: name must be a non-empty string")
    if not isinstance(payload.get("created_unix"), (int, float)):
        raise ValueError("invalid bench report: created_unix must be a number")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("invalid bench report: metrics must be a non-empty object")
    for key, value in metrics.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"invalid bench report: metrics[{key!r}] must be a number, "
                f"got {value!r}"
            )
    if not isinstance(payload.get("meta"), dict):
        raise ValueError("invalid bench report: meta must be an object")


def write_bench_report(
    name: str,
    metrics: dict,
    meta: dict | None = None,
    out_dir: str | None = None,
) -> str:
    """Write ``BENCH_<name>.json`` and return its path.

    The directory is resolved as ``out_dir`` argument, then the
    ``BENCH_OUT_DIR`` environment variable, then the current directory;
    it is created if missing.
    """
    directory = out_dir or os.environ.get(BENCH_OUT_ENV) or "."
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, bench_filename(name))
    payload = bench_report(name, metrics, meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path
