"""Command-line entry point: regenerate any table or figure of the paper.

Installed as ``ising-tpu``::

    ising-tpu list                 # show available experiments
    ising-tpu table2               # regenerate one experiment
    ising-tpu figure4 --quick      # cheaper settings for the MCMC figures
    ising-tpu all                  # everything (quick mode for the figures)

Telemetry flags archive machine-readable artifacts next to the printed
tables (see ``docs/observability.md`` for the schemas)::

    ising-tpu smoke --telemetry-out run.json --trace-out trace.json
    ising-tpu figure4 --quick --telemetry-out figure4_run.json

``--telemetry-out`` writes a versioned RunReport JSON; ``--trace-out``
writes a Chrome trace-event file (load it at https://ui.perfetto.dev or
``chrome://tracing``) and is supported by experiments that execute on
simulated devices (currently ``smoke``, ``sched`` and ``serve``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from ..telemetry.report import RunTelemetry
from ..version import __version__
from . import figure4, figure7, figure8, figure9, sched_demo, serve, smoke
from . import table1, table2, table3, table4, table5, table6, table7

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

_QUICK_MCMC = dict(sizes=(8, 16), n_samples=300, burn_in=150)

EXPERIMENTS = {
    "table1": (table1.run, "single-core throughput vs lattice size"),
    "table2": (table2.run, "weak scaling (compact implementation)"),
    "table3": (table3.run, "per-category time breakdown"),
    "table4": (table4.run, "step vs collective_permute time grid"),
    "table5": (table5.run, "roofline placement"),
    "table6": (table6.run, "weak scaling (conv implementation)"),
    "table7": (table7.run, "strong scaling (conv implementation)"),
    "figure4": (figure4.run, "m(T) and U4(T), float32 vs bfloat16 [runs MCMC]"),
    "figure7": (figure7.run, "conv-implementation correctness [runs MCMC]"),
    "figure8": (figure8.run, "throughput vs problem size, all platforms"),
    "figure9": (figure9.run, "strong scaling vs ideal"),
    "smoke": (smoke.run, "instrumented distributed run + telemetry artifacts [runs MCMC]"),
    "sched": (sched_demo.run, "mixed-priority job mix through the repro.sched service"),
    "serve": (serve.run, "multi-tenant HTTP workload through the repro.serve front door"),
}

_MCMC_EXPERIMENTS = {"figure4", "figure7"}


def run_experiment(
    name: str,
    quick: bool = False,
    telemetry: RunTelemetry | None = None,
    record_trace: bool = False,
):
    """Run one experiment by name and return its ExperimentResult.

    ``telemetry`` / ``record_trace`` are forwarded to experiments whose
    ``run`` signature accepts them.
    """
    try:
        fn, _ = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    kwargs: dict = {}
    if quick and name in _MCMC_EXPERIMENTS:
        kwargs.update(_QUICK_MCMC)
    params = inspect.signature(fn).parameters
    if telemetry is not None and "telemetry" in params:
        kwargs["telemetry"] = telemetry
    if record_trace and "record_trace" in params:
        kwargs["record_trace"] = True
    return fn(**kwargs)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ising-tpu",
        description="Regenerate the tables and figures of 'High Performance "
        "Monte Carlo Simulation of Ising Model on TPU Clusters' (SC19) on "
        "the simulated TPU substrate.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the repro package version and exit",
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'list', or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller lattices / shorter chains for the MCMC figures",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="write the run's telemetry RunReport JSON to PATH",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Chrome trace (chrome://tracing / Perfetto) to PATH",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (_, description) in EXPERIMENTS.items():
            print(f"{name:10s} {description}")
        return 0

    wants_artifacts = bool(args.telemetry_out or args.trace_out)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if wants_artifacts and len(names) != 1:
        print(
            "--telemetry-out/--trace-out require a single experiment, not 'all'",
            file=sys.stderr,
        )
        return 2

    for name in names:
        telemetry = RunTelemetry() if wants_artifacts else None
        try:
            from time import perf_counter

            start = perf_counter()
            result = run_experiment(
                name,
                quick=args.quick or args.experiment == "all",
                telemetry=telemetry,
                record_trace=bool(args.trace_out),
            )
            harness_wall = perf_counter() - start
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(result.render())
        print()

        if args.telemetry_out:
            report = result.artifacts.get("run_report")
            if report is None:
                # Experiments without their own instrumented run still
                # archive a harness-level report (wall time + metrics).
                telemetry.registry.gauge("harness_wall_seconds").set(harness_wall)
                report = telemetry.build_report(
                    kind="harness", run={"experiment": name, "quick": args.quick}
                ).to_json_dict()
            _write_json(args.telemetry_out, report)
            print(f"telemetry report written to {args.telemetry_out}")
        if args.trace_out:
            trace = result.artifacts.get("trace")
            if trace is None:
                print(
                    f"experiment {name!r} produced no trace "
                    "(only instrumented runs like 'smoke' record one)",
                    file=sys.stderr,
                )
                return 2
            _write_json(args.trace_out, trace)
            print(f"chrome trace written to {args.trace_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
