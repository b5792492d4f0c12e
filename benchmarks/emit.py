"""Emit ``BENCH_<name>.json`` artifacts from the benchmark suite.

Every ``bench_*`` module exposes ``bench_payload() -> (metrics, meta)``
— a quick, deterministic, machine-readable summary (modeled paper-scale
numbers, plus small measured timings where the module's subject *is*
host wall-clock).  This driver funnels them through the versioned
:mod:`repro.telemetry.bench` schema so every benchmark run leaves
comparable JSON behind and the repo's performance trajectory accumulates
across commits (CI uploads the files as workflow artifacts).

Usage::

    PYTHONPATH=src python -m benchmarks.emit                 # all modules
    PYTHONPATH=src python -m benchmarks.emit ensemble table2 # a subset
    PYTHONPATH=src python -m benchmarks.emit --only sched    # exactly one
    PYTHONPATH=src python -m benchmarks.emit --out-dir bench-artifacts
    PYTHONPATH=src python -m benchmarks.emit table1 table2 \
        --out-dir /tmp/fresh --compare bench-artifacts

``--compare DIR`` checks every emitted report's ``modeled_*`` metrics
against the same-named report in ``DIR`` and exits 1 if any differs by
more than 1e-12 relative (:func:`repro.telemetry.bench.modeled_drift`).
Use it only on modules whose modeled values read no clock: those of
``traced_sweep``, for one, divide by measured dispatch time, while
``sched`` times its overhead gate beside modeled values that come from
the cost model alone.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import sys

from repro.telemetry.bench import bench_filename, modeled_drift, write_bench_report

__all__ = ["bench_module_names", "emit", "main"]


def bench_module_names() -> list[str]:
    """All ``bench_*`` module short names (``table2``, ``ensemble``, ...)."""
    import benchmarks

    names = []
    for info in pkgutil.iter_modules(benchmarks.__path__):
        if info.name.startswith("bench_"):
            names.append(info.name[len("bench_"):])
    return sorted(names)


def emit(name: str, out_dir: str | None = None) -> str:
    """Import one bench module, run its payload, write its JSON artifact."""
    module = importlib.import_module(f"benchmarks.bench_{name}")
    payload = getattr(module, "bench_payload", None)
    if payload is None:
        raise ValueError(f"benchmarks.bench_{name} defines no bench_payload()")
    metrics, meta = payload()
    return write_bench_report(name, metrics, meta, out_dir=out_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.emit",
        description="Write BENCH_<name>.json artifacts for bench modules.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="bench short names (e.g. 'ensemble', 'table2'); default: all",
    )
    parser.add_argument(
        "--only",
        metavar="NAME",
        default=None,
        help="emit exactly one bench module (mutually exclusive with "
        "positional names)",
    )
    parser.add_argument(
        "--out-dir",
        default=None,
        help="output directory (default: $BENCH_OUT_DIR or '.')",
    )
    parser.add_argument(
        "--compare",
        metavar="DIR",
        default=None,
        help="fail if any emitted modeled_* metric differs from DIR's "
        "report by more than 1e-12 relative",
    )
    args = parser.parse_args(argv)
    if args.only is not None and args.names:
        print("--only and positional names are mutually exclusive", file=sys.stderr)
        return 2
    names = [args.only] if args.only is not None else (
        args.names or bench_module_names()
    )
    unknown = set(names) - set(bench_module_names())
    if unknown:
        print(
            f"unknown bench names: {sorted(unknown)}; "
            f"choose from {bench_module_names()}",
            file=sys.stderr,
        )
        return 2
    drifted = 0
    for name in names:
        path = emit(name, out_dir=args.out_dir)
        print(f"wrote {path}")
        if args.compare is None:
            continue
        snapshot = os.path.join(args.compare, bench_filename(name))
        if os.path.abspath(snapshot) == os.path.abspath(path):
            print(f"--compare {args.compare} is the output directory", file=sys.stderr)
            return 2
        with open(path, encoding="utf-8") as fh, open(snapshot, encoding="utf-8") as old:
            problems = modeled_drift(json.load(fh), json.load(old))
        for problem in problems:
            print(f"  {name}: {problem}")
        drifted += bool(problems)
    if drifted:
        print(f"{drifted} report(s) moved a modeled metric", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
