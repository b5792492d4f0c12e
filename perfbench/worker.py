"""Child processes of a perfbench run: one solo chain, or the serve oracle.

    python -m perfbench.worker sweep WORKLOAD --seed N --seconds S
        [--trace] [--spans] [--smoke] [--setup-only]
    python -m perfbench.worker verify  < jobs.json

``sweep`` builds one chain through ``repro.api``, prints a ``READY`` line
once the warm-up ``run(2)`` has returned, times ``sim.run(chunk)`` calls,
each right after a run of the workload's reference kernel, and prints a
``RESULT`` line.  With ``--trace`` it times the untraced
chain for half the budget, then wraps the layers, builds a fresh chain
and times it for the other half.  ``verify`` recomputes served jobs as
solo chains.  Both answer in tagged JSON lines on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
from time import perf_counter

from . import workloads
from .reference import Reference

#: Sweeps run before the chain is "ready": the first sweep builds the
#: workspaces, the second records the traced program.
WARMUP_SWEEPS = 2


def emit(tag: str, payload: dict) -> None:
    print(tag, json.dumps(payload), flush=True)


def lattice_sha256(lattice) -> str:
    import numpy as np

    data = np.ascontiguousarray(lattice, dtype=np.float32).tobytes()
    return hashlib.sha256(data).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_chunks(sim, workload, seconds: float, untimed=contextlib.nullcontext):
    """Time ``sim.run(chunk)`` calls: at least ``check_units``, then until
    ``seconds`` have passed, each right after a timed run of the
    reference kernel.  Returns the call times, the kernel times and the
    lattice digests after the first call and after ``check_units`` calls;
    the kernel and digests run inside ``untimed()``."""
    reference = Reference(workload.reference)
    times: "list[float]" = []
    kernels: "list[float]" = []
    digests = {}
    deadline = perf_counter() + seconds
    while len(times) < workload.check_units or perf_counter() < deadline:
        with untimed():
            kernels.append(reference.time())
        start = perf_counter()
        sim.run(workload.chunk)
        times.append(perf_counter() - start)
        if len(times) in (1, workload.check_units):
            with untimed():
                digests[len(times)] = lattice_sha256(sim.lattice)
    return times, kernels, digests[1], digests[workload.check_units]


def reference_config(config):
    """The same chain on an independent path: the elementwise engine for
    float chains, the eager (unreplayed) engine for packed ones."""
    try:
        if config.dtype == "packed":
            return config.evolve(traced=False), "packed engine, traced=False"
        return config.evolve(fused=False), "elementwise engine, fused=False"
    except TypeError:  # the knob no longer exists: one path is left
        return config, "same config in one run() call"


def oracle(config, workload, expected: str) -> dict:
    """Replay warm-up + first chunk on the reference path and compare."""
    from repro.api import simulate

    reference, path = reference_config(config)
    sim = simulate(reference)
    sweeps = WARMUP_SWEEPS + workload.chunk
    sim.run(sweeps)
    return {"path": path, "sweeps": sweeps, "ok": lattice_sha256(sim.lattice) == expected}


def traced_phase(config, workload, seconds: float, keep_spans: bool) -> dict:
    from repro.api import simulate

    from .spans import Tracer, install_sweep_layers

    tracer = Tracer(keep_spans=keep_spans)
    install_sweep_layers(tracer)
    # Bytes and words per sweep come from one counting sweep on a
    # throwaway chain, so the timed chunks carry no counting cost.
    probe = simulate(config)
    probe.run(WARMUP_SWEEPS)
    tracer.count_work = True
    probe.run(1)
    tracer.count_work = False
    per_sweep = dict(tracer.counters)

    sim = simulate(config)
    sim.run(WARMUP_SWEEPS)
    tracer.reset()
    times, kernels, _, digest = time_chunks(sim, workload, seconds, tracer.paused)
    snapshot = tracer.snapshot()
    sweeps = len(times) * workload.chunk
    for counter in ("backend.bytes", "rng.words"):
        snapshot["counters"][counter] = per_sweep.get(counter, 0.0) * sweeps
    return {
        "snapshot": snapshot,
        "window_s": sum(times),
        "units": sweeps,
        "chunk_s": times,
        "kernel_s": kernels,
        "digest": digest,
        "spans": tracer.spans,
    }


def sweep(args) -> None:
    t0 = perf_counter()
    from repro.api import SimulationConfig, simulate

    t1 = perf_counter()
    workload = workloads.get(args.workload, args.smoke)
    config = SimulationConfig(**workload.config_kwargs(args.seed))
    sim = simulate(config)
    t2 = perf_counter()
    sim.run(WARMUP_SWEEPS)
    setup = {"import_s": t1 - t0, "build_s": t2 - t1, "warmup_s": perf_counter() - t2}
    emit("READY", setup)
    if args.setup_only:
        return
    seconds = args.seconds / 2 if args.trace else args.seconds
    times, kernels, first, digest = time_chunks(sim, workload, seconds)
    result = {
        "setup": setup,
        "chunk_s": times,
        "kernel_s": kernels,
        "digest": digest,
        "rss_mb": peak_rss_mb(),
    }
    if args.trace:
        result["traced"] = traced_phase(config, workload, seconds, args.spans)
    result["oracle"] = oracle(config, workload, first)
    emit("RESULT", result)


def verify(args) -> None:
    """Recompute each job read from stdin as a solo ``repro.simulate`` chain."""
    from repro.api import SimulationConfig, simulate

    shas = []
    for job in json.load(sys.stdin):
        sim = simulate(SimulationConfig(**job["config"]))
        sim.run(job["sweeps"])
        shas.append(lattice_sha256(sim.lattice))
    emit("RESULT", {"sha256": shas})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("sweep")
    run.add_argument("workload")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--spans", action="store_true")
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--setup-only", action="store_true")
    sub.add_parser("verify")
    args = parser.parse_args(argv)
    sweep(args) if args.mode == "sweep" else verify(args)


if __name__ == "__main__":
    main()
