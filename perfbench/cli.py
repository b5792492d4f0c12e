"""``python -m perfbench run|compare``: run workloads, print and compare metrics.

``run`` starts each workload in fresh child processes with one BLAS/OpenMP
thread, measures it, checks its outputs, prints every metric by name with
its unit, and ends with one JSON result line.  Times are reported in
reference seconds (see ``reference.py``).  End-to-end metrics come from
untraced runs; ``--trace`` runs the same workload with the layers
wrapped and prints the per-layer metrics instead.  Names, units and
bounds live in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from . import loadgen, workloads
from .reference import CALLS, Reference
from .spans import chrome_trace, layer_metrics, median, percentile

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up samples per untraced run; setup_s is their median.
N_SETUP = 5
#: Longest wait for any child to answer (seconds).
CHILD_TIMEOUT_S = 150


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    """The stamp every result carries."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    head = "unknown"
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git": head,
        "threads": {var: "1" for var in THREAD_VARS},
        "seed": seed,
    }


# -- child processes ----------------------------------------------------------


class Children:
    """Every child process a run starts; :meth:`close` ends them all."""

    def __init__(self) -> None:
        self.procs: "list[subprocess.Popen]" = []

    def spawn(self, module: str, *args: str) -> subprocess.Popen:
        env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        proc = subprocess.Popen(
            [sys.executable, "-m", module, *args], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.procs.append(proc)
        return proc

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                if pipe is not None:
                    pipe.close()


def _tagged(line: str, tag: str) -> "dict | None":
    if line.startswith(tag + " "):
        return json.loads(line[len(tag) + 1:])
    return None


def wait_ready(proc: subprocess.Popen) -> dict:
    """Block until the child prints its READY line."""
    deadline = perf_counter() + CHILD_TIMEOUT_S
    while perf_counter() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            payload = _tagged(line, "READY")
            if payload is not None:
                return payload
    proc.kill()
    raise RuntimeError(f"child {proc.args[2:]} exited or hung before READY")


def finish(proc: subprocess.Popen, stdin: "str | None" = None) -> dict:
    """Wait for the child to exit cleanly; returns its RESULT payload."""
    out, _ = proc.communicate(stdin, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {proc.args[2:]} exited with {proc.returncode}")
    for line in reversed(out.splitlines()):
        payload = _tagged(line, "RESULT")
        if payload is not None:
            return payload
    return {}


class SetupClock:
    """Times set-ups in reference seconds: against the mean of a
    reference run just before the spawn and one just after it is ready."""

    def __init__(self) -> None:
        self.reference = Reference(CALLS)

    def start(self) -> None:
        self.kernel_s = self.reference.time()
        self.started = perf_counter()

    def stop(self) -> float:
        elapsed = perf_counter() - self.started
        kernel_s = (self.kernel_s + self.reference.time()) / 2
        return CALLS.seconds(elapsed, kernel_s)


def timed_start(clock: SetupClock, children: Children, module: str, *args: str):
    """Spawn a child; returns it, spawn-to-READY reference seconds and
    the READY payload."""
    clock.start()
    proc = children.spawn(module, *args)
    ready = wait_ready(proc)
    return proc, clock.stop(), ready


# -- digests ------------------------------------------------------------------


def golden_key(name: str, seed: int, smoke: bool) -> str:
    return f"{name}/{'smoke' if smoke else 'full'}/seed={seed}"


def check_digest(name: str, seed: int, smoke: bool, digests: "list[str]") -> dict:
    """Compare the run's digest(s) with ``golden.json``.

    A traced run yields two digests (untraced and traced chain) that
    must agree with each other as well.
    """
    key = golden_key(name, seed, smoke)
    golden = json.loads(GOLDEN.read_text()).get(key)
    if len(set(digests)) != 1:
        status = "mismatch"
    elif golden is None:
        status = "unchecked"
    else:
        status = "ok" if digests[0] == golden else "mismatch"
    return {"value": digests[0], "golden": golden, "key": key, "status": status}


# -- sweep workloads ----------------------------------------------------------


def run_sweep(w, seed, seconds, trace, smoke, keep_spans, children, clock) -> dict:
    base = ["sweep", w.name, "--seed", str(seed), "--seconds", repr(seconds)]
    if smoke:
        base.append("--smoke")
    setups = []
    for _ in range(0 if trace or smoke else N_SETUP - 1):
        proc, ready_s, _ = timed_start(clock, children, "perfbench.worker", *base, "--setup-only")
        setups.append(ready_s)
        finish(proc)
    flags = ["--trace"] * trace + ["--spans"] * keep_spans
    proc, ready_s, _ = timed_start(clock, children, "perfbench.worker", *base, *flags)
    setups.append(ready_s)
    result = finish(proc)

    # One client running one chain: a job is one run(chunk) call, and
    # the closed loop's throughput is the inverse of its median latency.
    times = chunk_seconds(w, result)
    metrics = {
        "flips_per_ns": w.sites * w.chunk / median(times) / 1e9,
        "jobs_per_s": 1.0 / median(times),
        "latency_ms_p50": median(times) * 1e3,
        "setup_s": median(setups),
        "peak_rss_mb": result["rss_mb"],
    }
    details = {
        "units": f"{len(times)} calls of run({w.chunk}) at {w.side}^2 {w.dtype}",
        "latency_ms_p90": percentile(times, 90) * 1e3,
        "latency_ms_p99": percentile(times, 99) * 1e3,
        "wall_latency_ms_p50": median(result["chunk_s"]) * 1e3,
        "host_slowdown": median(result["kernel_s"]) / w.reference.nominal_s,
    }
    digests = [result["digest"]]
    attempted = len(times)
    spans = None
    if trace:
        traced = result["traced"]
        layer = layer_metrics(traced["snapshot"], traced["window_s"], traced["units"])
        layer["serve.loop_busy_frac"] = 0.0  # no event loop in a solo chain
        layer.update({f"setup.{k}": v for k, v in result["setup"].items()})
        layer["trace.overhead_frac"] = median(chunk_seconds(w, traced)) / median(times) - 1.0
        details["span_coverage"] = (
            layer["backend.ops_frac"] + layer["rng.philox_frac"] + layer["core.driver_frac"]
        )
        metrics = layer
        digests.append(traced["digest"])
        attempted += len(traced["chunk_s"])
        spans = [("worker", traced["spans"])]
    return {
        "metrics": metrics,
        "details": details,
        "digests": digests,
        "oracle": result["oracle"],
        "attempted": attempted,
        "failed": 0,
        "spans": spans,
    }


def chunk_seconds(w, result: dict) -> "list[float]":
    """A worker's ``run(chunk)`` times in reference seconds."""
    return [w.reference.seconds(t, k) for t, k in zip(result["chunk_s"], result["kernel_s"])]


# -- serve workloads ----------------------------------------------------------


def start_server(clock, children: Children, trace: bool = False, keep_spans: bool = False):
    """Spawn a server; returns it, a healthy client connection, the
    spawn-to-healthz reference seconds and the READY payload."""
    clock.start()
    proc = children.spawn("perfbench.server", *["--trace"] * trace, *["--spans"] * keep_spans)
    ready = wait_ready(proc)
    client = loadgen.connect_healthy(ready["port"], keep_spans)
    return proc, client, clock.stop(), ready


def measure_server(proc, client, w, seed, seconds) -> dict:
    """Warm up, then one measured closed-loop window; stops the server."""
    reference = Reference(w.reference)
    loadgen.closed_loop(client, iter([w.warmup(seed)]), 1, reference)
    proc.stdin.write("begin\n")
    proc.stdin.flush()
    jobs, blocks, window_s = loadgen.closed_loop(
        client, w.units(seed), w.n_units(seconds), reference, w.units_per_block
    )
    proc.stdin.write("end\n")
    proc.stdin.flush()
    client.close()
    server = finish(proc, "stop\n")
    done = [job for job in jobs if loadgen.check(job)]
    return {
        "jobs": jobs,
        "done": done,
        "failed": len(jobs) - len(done),
        "blocks": blocks,
        "window_s": window_s,
        "kernel_s": sum(block["kernel_s"] for block in blocks),
        "server": server,
        "client_spans": client.spans,
    }


def block_rates(w, run: dict) -> "tuple[list[float], list[float]]":
    """Completed jobs and flips per reference second, block by block."""
    jobs = [0] * len(run["blocks"])
    flips = [0] * len(run["blocks"])
    for job in run["done"]:
        jobs[job["block"]] += 1
        flips[job["block"]] += job["payload"]["config"]["shape"] ** 2 * job["payload"]["sweeps"]
    seconds = [w.reference.seconds(b["seconds"], b["kernel_s"]) for b in run["blocks"]]
    return (
        [n / s for n, s in zip(jobs, seconds)],
        [f / s for f, s in zip(flips, seconds)],
    )


def serve_metrics(w, run: dict, setups: "list[float]") -> "tuple[dict, dict]":
    done, blocks = run["done"], run["blocks"]
    latencies = [
        w.reference.seconds(job["latency_s"], blocks[job["block"]]["kernel_s"]) for job in done
    ]
    admits = [job["admit_s"] for job in run["jobs"]]
    job_rates, flip_rates = block_rates(w, run)
    metrics = {
        "flips_per_ns": median(flip_rates) / 1e9,
        "jobs_per_s": median(job_rates),
        "latency_ms_p50": median(latencies) * 1e3,
        "setup_s": median(setups),
        "peak_rss_mb": run["server"]["rss_mb"],
    }
    cache = run["server"]["stats"]
    measured_s = run["window_s"] - run["kernel_s"]
    details = {
        "units": f"{len(done)} jobs in {len(blocks)} blocks, {measured_s:.2f} s",
        "latency_ms_p90": percentile(latencies, 90) * 1e3,
        "latency_ms_p99": percentile(latencies, 99) * 1e3,
        "admit_ms_p50": percentile(admits, 50) * 1e3,
        "admit_ms_p90": percentile(admits, 90) * 1e3,
        "admit_ms_p99": percentile(admits, 99) * 1e3,
        "wall_jobs_per_s": len(done) / measured_s,
        "host_slowdown": median([b["kernel_s"] for b in blocks]) / w.reference.nominal_s,
        "cache_hits": f"{cache['hits']} of {cache['hits'] + cache['misses']} lookups",
    }
    return metrics, details


def run_serve(w, seed, seconds, trace, smoke, keep_spans, children, clock) -> dict:
    setups = []
    for _ in range(0 if trace or smoke else N_SETUP - 1):
        proc, client, ready_s, _ = start_server(clock, children)
        setups.append(ready_s)
        client.close()
        finish(proc, "stop\n")
    proc, client, ready_s, ready = start_server(clock, children)
    setups.append(ready_s)
    phase = seconds / 2 if trace else seconds
    run = measure_server(proc, client, w, seed, phase)
    metrics, details = serve_metrics(w, run, setups)
    check_jobs = w.check_units * w.jobs_per_unit
    digests = [loadgen.digest(run["done"][:check_jobs])]
    attempted, failed = len(run["jobs"]), run["failed"]
    spans = None
    if trace:
        proc, client, _, _ = start_server(clock, children, trace=True, keep_spans=keep_spans)
        traced = measure_server(proc, client, w, seed, phase)
        window = traced["server"]["window"]
        layer = layer_metrics(window["snapshot"], window["seconds"], len(traced["done"]))
        layer["serve.loop_busy_frac"] = window["loop_busy_frac"]
        layer.update({f"setup.{k}": ready[k] for k in ("import_s", "build_s", "warmup_s")})
        layer["trace.overhead_frac"] = metrics["jobs_per_s"] / median(block_rates(w, traced)[0]) - 1.0
        metrics = layer
        digests.append(loadgen.digest(traced["done"][:check_jobs]))
        attempted += len(traced["jobs"])
        failed += traced["failed"]
        spans = [("server", window["spans"]), ("client", traced["client_spans"])]
    return {
        "metrics": metrics,
        "details": details,
        "digests": digests,
        # The first n_temps jobs cover a whole scan, or every hot config.
        "oracle": verify_jobs(run["done"][: w.n_temps], children),
        "attempted": attempted,
        "failed": failed,
        "spans": spans,
    }


def verify_jobs(jobs: "list[dict]", children: Children) -> dict:
    """Recompute served jobs as solo chains in a fresh child and compare."""
    proc = children.spawn("perfbench.worker", "verify")
    payload = [{"config": job["payload"]["config"], "sweeps": job["payload"]["sweeps"]} for job in jobs]
    shas = finish(proc, json.dumps(payload))["sha256"]
    ok = shas == [job["sha256"] for job in jobs]
    return {"path": "repro.api.simulate per job", "jobs": len(jobs), "ok": ok}


# -- one workload -------------------------------------------------------------


def run_workload(name, seed, seconds, trace=False, smoke=False, trace_out=None) -> dict:
    """Run one workload in fresh children; returns its result record."""
    w = workloads.get(name, smoke)
    runner = run_sweep if w.kind == "sweep" else run_serve
    children = Children()
    started = time.time()
    try:
        out = runner(w, seed, seconds, trace, smoke, trace_out is not None, children, SetupClock())
    finally:
        children.close()
    digest = check_digest(name, seed, smoke, out["digests"])
    # A wrong digest or oracle answer fails every operation of the run.
    outputs_ok = digest["status"] != "mismatch" and out["oracle"]["ok"]
    failed = out["failed"] if outputs_ok else out["attempted"]
    if trace_out is not None and out["spans"]:
        path = Path(trace_out)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"{name}.json").write_text(json.dumps(chrome_trace(out["spans"])))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "smoke": smoke,
        "started_at": started,
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "digest": digest,
        "oracle": out["oracle"],
        "metrics": out["metrics"],
        "details": out["details"],
    }


def result_line(record: dict, declared: "list[dict]") -> dict:
    """The contract's last line: declared metrics only, with units."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def print_record(record: dict, declared: "list[dict]") -> None:
    mode = "traced" if record["trace"] else "untraced"
    size = "smoke" if record["smoke"] else "full"
    print(f"== {record['workload']}  seed={record['seed']}  {mode}  {size}  "
          f"{record['seconds']:g} s ==")
    for m in declared:
        direction = f"  {m['better']} is better" if "better" in m else ""
        print(f"  {m['name']:<34} {record['metrics'][m['name']]:<14.6g} {m['unit']}{direction}")
    for key, value in record["details"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  ({key}: {shown})")
    d = record["digest"]
    print(f"  digest {d['value'][:16]}: {d['status']}"
          + (f" against {d['key']}" if d["golden"] else f" (no golden entry {d['key']})"))
    o = record["oracle"]
    print(f"  oracle: {'ok' if o['ok'] else 'MISMATCH'} ({o['path']})")
    print(f"  attempted {record['attempted']}, failed {record['failed']}, "
          f"{'correct' if record['correct'] else 'INCORRECT'}")


# -- entry point --------------------------------------------------------------


def _run(args) -> int:
    bench = load_benchmark()
    trace = bool(args.trace) or args.trace_out is not None
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    env = environment(args.seed)
    print("perfbench env: " + "  ".join(
        f"{k}={v}" for k, v in env.items() if k != "threads"
    ) + "  threads=" + ",".join(f"{k}=1" for k in THREAD_VARS), flush=True)
    all_correct = True
    for name in args.workload or list(workloads.WORKLOADS):
        record = run_workload(name, args.seed, seconds, trace, args.smoke, args.trace_out)
        record["env"] = env
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
        print_record(record, declared)
        print(json.dumps(result_line(record, declared)), flush=True)
        all_correct &= record["correct"]
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                     help="repeat for several; default: all five")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured time per run (default: run_seconds)")
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                     help="per-layer run (also accepts --trace 0|1)")
    run.add_argument("--trace-out", metavar="DIR",
                     help="write one Chrome trace per workload (implies --trace)")
    run.add_argument("--out", metavar="FILE", help="append each result as a JSON line")
    run.add_argument("--smoke", action="store_true", help="reduced sizes (self-test)")
    cmp_ = sub.add_parser("compare", help="compare parent and change result files")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "compare":
        from .compare import main as compare_main

        return compare_main(args.parent, args.change, load_benchmark())
    try:
        return _run(args)
    except Exception as exc:  # report and fail without a result line
        print(f"perfbench: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
