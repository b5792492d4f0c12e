"""Telemetry layer: schema round-trips, trace export, and the invariants
that make it safe to ship — disabled telemetry is free and enabled
telemetry never perturbs the physics (bit-identical chains)."""

from __future__ import annotations

import json
import platform

import numpy as np
import pytest

from repro.core.distributed import DistributedIsing
from repro.core.ensemble import EnsembleSimulation
from repro.core.simulation import IsingSimulation
from repro.harness import smoke
from repro.telemetry import (
    BENCH_REPORT_SCHEMA,
    MetricsRegistry,
    NULL_REGISTRY,
    RUN_REPORT_SCHEMA,
    RunReport,
    RunTelemetry,
    bench_report,
    chrome_trace,
    validate_bench_report,
    validate_run_report,
    write_bench_report,
    write_chrome_trace,
)
from repro.telemetry.bench import modeled_drift

UPDATERS = ("compact", "conv", "checkerboard", "masked_conv")


# -- metrics registry ------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_decrements(self):
        reg = MetricsRegistry()
        c = reg.counter("events")
        c.inc()
        c.inc(2.5)
        assert reg.counter("events").value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_histogram_streaming_moments(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 4
        assert d["mean"] == pytest.approx(2.5)
        assert d["min"] == 1.0 and d["max"] == 4.0
        assert d["std"] == pytest.approx(np.std([1, 2, 3, 4]))

    def test_name_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_as_dict_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(1.5)
        reg.histogram("c").observe(0.25)
        decoded = json.loads(json.dumps(reg.as_dict()))
        assert decoded["a"]["type"] == "counter"
        assert decoded["c"]["count"] == 1

    def test_empty_histogram_serialises_without_inf(self):
        reg = MetricsRegistry()
        reg.histogram("empty")
        d = reg.as_dict()["empty"]
        assert d["min"] is None and d["max"] is None

    def test_null_registry_is_inert(self):
        NULL_REGISTRY.counter("x").inc()
        NULL_REGISTRY.gauge("y").set(3)
        NULL_REGISTRY.histogram("z").observe(1)
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.as_dict() == {}


# -- run report schema -----------------------------------------------------


class TestRunReport:
    def _single_report(self) -> RunReport:
        sim = IsingSimulation(
            16, 2.2, seed=5, telemetry=RunTelemetry(physics_interval=2)
        )
        sim.run(8)
        return sim.report()

    def test_json_round_trip_validates(self):
        report = self._single_report()
        payload = json.loads(json.dumps(report.to_json_dict()))
        validate_run_report(payload)
        back = RunReport.from_json_dict(payload)
        assert back.schema == RUN_REPORT_SCHEMA
        assert back.kind == "single"
        assert back.sweeps["count"] == 8
        assert back.run["updater"] == "compact"
        assert back.rng["streams"][0]["counter"] > 0

    def test_physics_block_has_drift_and_activity(self):
        physics = self._single_report().to_json_dict()["physics"]
        for key in (
            "magnetization_first",
            "magnetization_last",
            "magnetization_drift",
            "energy_drift",
            "flip_activity_mean",
        ):
            assert key in physics
        assert 0.0 <= physics["flip_activity_mean"] <= 1.0

    def test_validation_rejects_wrong_schema_kind_and_shapes(self):
        good = self._single_report().to_json_dict()
        bad = dict(good, schema="repro.telemetry/run-report/v0")
        with pytest.raises(ValueError, match="schema"):
            validate_run_report(bad)
        with pytest.raises(ValueError, match="kind"):
            validate_run_report(dict(good, kind="mystery"))
        with pytest.raises(ValueError, match="sweeps.count"):
            validate_run_report(
                dict(good, sweeps=dict(good["sweeps"], count=-1))
            )
        with pytest.raises(ValueError, match="cores"):
            validate_run_report(dict(good, cores={}))

    def test_report_without_telemetry_raises(self):
        sim = IsingSimulation(8, 2.0)
        with pytest.raises(RuntimeError, match="telemetry"):
            sim.report()

    def test_physics_interval_zero_disables_sampling(self):
        sim = IsingSimulation(
            8, 2.0, seed=1, telemetry=RunTelemetry(physics_interval=0)
        )
        sim.run(5)
        payload = sim.report().to_json_dict()
        assert payload["physics"] == {}
        assert payload["sweeps"]["count"] == 5

    def test_negative_physics_interval_rejected(self):
        with pytest.raises(ValueError):
            RunTelemetry(physics_interval=-1)


# -- bit-identity regressions ---------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("updater", UPDATERS)
    def test_enabled_telemetry_keeps_chains_bit_identical(self, updater):
        """Telemetry must observe, never perturb: same lattice, same RNG
        counter as a seed-equivalent uninstrumented run, per updater."""
        plain = IsingSimulation(16, 2.3, updater=updater, seed=9)
        instrumented = IsingSimulation(
            16,
            2.3,
            updater=updater,
            seed=9,
            telemetry=RunTelemetry(physics_interval=1),
        )
        plain.run(12)
        instrumented.run(12)
        np.testing.assert_array_equal(plain.lattice, instrumented.lattice)
        assert plain.stream.counters == instrumented.stream.counters

    @pytest.mark.parametrize("updater", UPDATERS)
    def test_ensemble_telemetry_bit_identical(self, updater):
        temps = [2.0, 2.3, 2.6]
        plain = EnsembleSimulation(16, temps, updater=updater, seed=4)
        instrumented = EnsembleSimulation(
            16, temps, updater=updater, seed=4, telemetry=RunTelemetry()
        )
        plain.run(6)
        instrumented.run(6)
        np.testing.assert_array_equal(plain.lattices, instrumented.lattices)
        assert plain.stream.counters == instrumented.stream.counters

    def test_distributed_telemetry_bit_identical(self):
        plain = DistributedIsing((32, 32), 2.2, core_grid=(2, 2), seed=3)
        instrumented = DistributedIsing(
            (32, 32),
            2.2,
            core_grid=(2, 2),
            seed=3,
            telemetry=RunTelemetry(physics_interval=2),
        )
        plain.sweep(5)
        instrumented.sweep(5)
        np.testing.assert_array_equal(
            plain.gather_lattice(), instrumented.gather_lattice()
        )


# -- distributed report ----------------------------------------------------


class TestDistributedReport:
    @pytest.fixture(scope="class")
    def sim(self):
        sim = DistributedIsing(
            (32, 64),
            2.1,
            core_grid=(2, 2),
            seed=11,
            record_trace=True,
            telemetry=RunTelemetry(physics_interval=3),
        )
        sim.sweep(6)
        return sim

    def test_report_validates_and_has_one_row_per_core(self, sim):
        payload = sim.report().to_json_dict()
        validate_run_report(payload)
        assert payload["kind"] == "distributed"
        assert len(payload["cores"]) == sim.num_cores
        assert payload["run"]["core_grid"] == [2, 2]

    def test_comm_fractions_match_breakdown_machinery(self, sim):
        """The report's communication attribution must agree with the
        Table 3/4 breakdown path (pod-aggregated profiler fractions)."""
        payload = sim.report().to_json_dict()
        assert payload["breakdown"] == pytest.approx(sim.breakdown())
        for core_row, core in zip(payload["cores"], sim.pod.cores):
            total = core.profiler.total_seconds
            expected = core.profiler.seconds["communication"] / total
            assert core_row["communication_fraction"] == pytest.approx(expected)
            assert core_row["compute_seconds"] + core_row[
                "communication_seconds"
            ] == pytest.approx(total)

    def test_rng_counters_cover_every_core_stream(self, sim):
        payload = sim.report().to_json_dict()
        streams = payload["rng"]["streams"]
        assert [s["stream_id"] for s in streams] == [1, 2, 3, 4]
        assert all(s["counter"] > 0 for s in streams)

    def test_collective_metrics_booked(self, sim):
        metrics = sim.report().to_json_dict()["metrics"]
        # 8 halo exchanges per sweep (4 slabs x 2 colour phases).
        assert metrics["collectives_total"]["value"] == 8 * sim.sweeps_done
        assert metrics["collective_bytes_total"]["value"] > 0


# -- chrome trace export ---------------------------------------------------


class TestChromeTrace:
    def test_one_track_per_core_and_valid_events(self, tmp_path):
        sim = DistributedIsing(
            (32, 32), 2.2, core_grid=(2, 2), seed=1, record_trace=True
        )
        sim.sweep(2)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, sim)
        trace = json.loads(path.read_text())

        events = trace["traceEvents"]
        assert events, "trace must contain events"
        tids = {e["tid"] for e in events}
        assert tids == {0, 1, 2, 3}, "one track per simulated core"

        names = [
            e for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert len(names) == 4
        for e in events:
            assert e["ph"] in ("M", "X")
            if e["ph"] == "X":
                assert isinstance(e["ts"], float) and e["ts"] >= 0.0
                assert isinstance(e["dur"], float) and e["dur"] >= 0.0
                assert e["cat"] in (
                    "mxu",
                    "conv",
                    "vpu",
                    "formatting",
                    "communication",
                )

    def test_halo_exchanges_appear_on_every_core(self):
        sim = DistributedIsing(
            (32, 32), 2.2, core_grid=(2, 2), seed=1, record_trace=True
        )
        sim.sweep(1)
        trace = chrome_trace(sim)
        for tid in range(4):
            comm = [
                e
                for e in trace["traceEvents"]
                if e.get("cat") == "communication" and e["tid"] == tid
            ]
            assert len(comm) == 8  # 4 halos x 2 colour phases

    def test_trace_without_recording_raises(self):
        sim = DistributedIsing((32, 32), 2.2, core_grid=(2, 2), seed=1)
        sim.sweep(1)
        with pytest.raises(ValueError, match="record_trace"):
            chrome_trace(sim)

    def test_tempering_swap_track(self):
        from repro.core.tempering import TemperingEnsemble

        sim = TemperingEnsemble(
            16, (0.40, 0.43, 0.46), n_replicas=2, swap_interval=2, seed=1
        )
        sim.run(8)
        trace = chrome_trace(sim)
        events = trace["traceEvents"]
        swap_tid = next(
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        )
        assert swap_tid == "tempering swaps"
        spans = [e for e in events if e.get("cat") == "tempering"]
        assert len(spans) == sim.swap_rounds == 4
        for span in spans:
            assert span["ph"] == "X"
            assert span["args"]["attempted"] >= 0
            assert 0 <= span["args"]["accepted"] <= span["args"]["attempted"]
        assert trace["otherData"]["num_tempering_spans"] == 4

    def test_span_tracks_follow_the_core_tracks_in_order(self):
        from types import SimpleNamespace

        from repro.tpu.profiler import Profiler
        from repro.tpu.tensorcore import TensorCore

        core = TensorCore(core_id=0, profiler=Profiler(record_trace=True))
        core.charge_communication(1e-6, bytes_moved=8.0, name="halo")

        def spans(name, n):
            return [
                {"name": f"{name}{i}", "start": i * 1e-6, "duration": 1e-6}
                for i in range(n)
            ]

        source = SimpleNamespace(
            cores=[core],
            sched_log=spans("batch", 1),
            serve_log=spans("accept", 2),
            swap_log=[
                {**span, "args": {"attempted": 2, "accepted": 1}}
                for span in spans("swap", 3)
            ],
        )
        trace = chrome_trace(source)
        events = trace["traceEvents"]
        tracks = [
            (e["tid"], e["args"]["name"])
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert tracks == [
            (0, "core 0 (0, 0)"),
            (1, "scheduler batches"),
            (2, "serve front door"),
            (3, "tempering swaps"),
        ]
        spans_by_tid = {
            tid: [
                (e["cat"], e["name"])
                for e in events
                if e["ph"] == "X" and e["tid"] == tid
            ]
            for tid in (1, 2, 3)
        }
        assert spans_by_tid == {
            1: [("sched", "batch0")],
            2: [("serve", "accept0"), ("serve", "accept1")],
            3: [("tempering", f"swap{i}") for i in range(3)],
        }
        swap = next(e for e in events if e.get("cat") == "tempering")
        assert swap["args"] == {"attempted": 2, "accepted": 1}
        assert swap["ts"] == 0.0 and swap["dur"] == pytest.approx(1.0)
        other = trace["otherData"]
        assert (
            other["num_sched_spans"],
            other["num_serve_spans"],
            other["num_tempering_spans"],
        ) == (1, 2, 3)


# -- bench report schema ---------------------------------------------------


class TestBenchReport:
    def test_write_and_validate_round_trip(self, tmp_path):
        path = write_bench_report(
            "unit",
            {"throughput_flips_per_ns": 1.5, "sweeps": 10},
            meta={"side": 64},
            out_dir=str(tmp_path),
        )
        assert path.endswith("BENCH_unit.json")
        payload = json.loads((tmp_path / "BENCH_unit.json").read_text())
        validate_bench_report(payload)
        assert payload["schema"] == BENCH_REPORT_SCHEMA
        assert payload["metrics"]["throughput_flips_per_ns"] == 1.5
        assert payload["meta"]["side"] == 64

    def test_non_numeric_metric_rejected(self):
        with pytest.raises(ValueError, match="metrics"):
            bench_report("bad", {"label": "fast"})

    def test_empty_metrics_rejected(self):
        with pytest.raises(ValueError, match="metrics"):
            bench_report("bad", {})

    def test_env_stamped_into_meta(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        write_bench_report("unit", {"x_seconds": 1.0}, meta={"side": 8}, out_dir=str(tmp_path))
        payload = json.loads((tmp_path / "BENCH_unit.json").read_text())
        validate_bench_report(payload)
        env = payload["meta"]["env"]
        assert set(env) == {
            "cpu", "nproc", "python", "numpy", "platform",
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        }
        # The BLAS thread variables are recorded, unset ones as null.
        assert env["OPENBLAS_NUM_THREADS"] == "1"
        assert env["MKL_NUM_THREADS"] is None
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert isinstance(env["nproc"], int) and env["nproc"] >= 1
        assert env["cpu"] and env["platform"]
        assert payload["meta"]["side"] == 8
        # Reports written before the stamp still validate.
        del payload["meta"]["env"]
        validate_bench_report(payload)

    def test_modeled_drift_flags_moved_and_missing_metrics(self):
        old = bench_report("unit", {"modeled_a": 1.0, "modeled_b": 2.0, "measured_s": 5.0})
        same = bench_report("unit", {"modeled_a": 1.0 + 1e-13, "modeled_b": 2.0, "measured_s": 9.0})
        assert modeled_drift(same, old) == []
        moved = bench_report("unit", {"modeled_a": 1.0 + 1e-9, "modeled_c": 3.0})
        assert modeled_drift(moved, old) == [
            "modeled_a: 1.0 -> 1.000000001",
            "modeled_b: only in the snapshot",
            "modeled_c: only in the fresh run",
        ]


# -- harness smoke ---------------------------------------------------------


class TestSmokeExperiment:
    def test_artifacts_are_schema_valid(self):
        result = smoke.run(side=32, n_sweeps=4, record_trace=True)
        validate_run_report(result.artifacts["run_report"])
        trace = result.artifacts["trace"]
        assert {e["tid"] for e in trace["traceEvents"]} == {0, 1, 2, 3}
        rendered = result.render()
        assert "comm" in rendered
        # Round-trips through the json module (no numpy leakage).
        json.dumps(result.artifacts)
