"""Distributed telemetry smoke: a quick, fully-instrumented pod run.

Unlike the table/figure experiments (which model paper-scale workloads),
this experiment *executes* a small :class:`~repro.core.distributed.DistributedIsing`
chain on a simulated 2x2-core pod slice with telemetry and trace
recording on, and surfaces every observability artifact the repository
can produce: a per-core compute-vs-communication table (the same
attribution machinery behind Tables 3 and 4), a schema-valid
:class:`~repro.telemetry.report.RunReport`, and a Chrome trace with one
track per core.

Run it through the CLI to archive the artifacts::

    ising-tpu smoke --telemetry-out run.json --trace-out trace.json
"""

from __future__ import annotations

from ..core.distributed import DistributedIsing
from ..observables.onsager import T_CRITICAL
from ..telemetry.report import RunTelemetry
from ..telemetry.trace import chrome_trace
from .report import ExperimentResult

__all__ = ["run"]


def run(
    side: int = 64,
    core_grid: tuple[int, int] = (2, 2),
    n_sweeps: int = 30,
    temperature: float | None = None,
    seed: int = 7,
    telemetry: RunTelemetry | None = None,
    record_trace: bool = False,
) -> ExperimentResult:
    """Run the instrumented distributed smoke and return its result.

    A telemetry recorder is created when none is passed, so the smoke is
    always instrumented; the run report (and, with ``record_trace``, the
    Chrome trace) land in ``result.artifacts``.
    """
    if telemetry is None:
        telemetry = RunTelemetry(physics_interval=5)
    temp = float(temperature) if temperature is not None else 0.98 * T_CRITICAL
    sim = DistributedIsing(
        (side, side),
        temp,
        core_grid=core_grid,
        dtype="bfloat16",
        seed=seed,
        record_trace=record_trace,
        telemetry=telemetry,
    )
    sim.sweep(n_sweeps)
    report = sim.report()
    report_dict = report.to_json_dict()

    rows = []
    for core in report_dict["cores"]:
        rows.append(
            [
                core["core_id"],
                f"({core['coords'][0]}, {core['coords'][1]})",
                core["compute_seconds"] * 1e3,
                core["communication_seconds"] * 1e3,
                100.0 * core["communication_fraction"],
            ]
        )
    breakdown = report_dict["breakdown"]
    artifacts = {"run_report": report_dict}
    if record_trace:
        artifacts["trace"] = chrome_trace(sim)
    return ExperimentResult(
        name="Telemetry smoke",
        description=(
            f"instrumented {side}x{side} lattice on a "
            f"{core_grid[0]}x{core_grid[1]}-core pod, {n_sweeps} sweeps "
            f"at T={temp:.4g}"
        ),
        headers=[
            "core",
            "coords",
            "compute ms (modeled)",
            "comm ms (modeled)",
            "comm %",
        ],
        rows=rows,
        notes=(
            "Pod-wide breakdown: "
            + ", ".join(f"{k} {100 * v:.2f}%" for k, v in breakdown.items())
            + f".  Mean sweep wall {report_dict['sweeps']['wall_seconds_mean'] * 1e3:.2f} ms; "
            f"flip activity {report_dict['physics'].get('flip_activity_mean', float('nan')):.3f}.  "
            "Use --telemetry-out / --trace-out to archive the JSON artifacts."
        ),
        artifacts=artifacts,
    )
