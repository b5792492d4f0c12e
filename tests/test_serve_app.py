"""The HTTP front door end to end, over real loopback sockets.

Every test stands up a :class:`~repro.serve.ServeApp` inside
``asyncio.run`` and talks to it with the dependency-free client in
:mod:`repro.serve.protocol` — the same wire path a tenant would use.
The load-bearing assertions: a result fetched over HTTP is bit-identical
to the in-process client (exact float equality, matching lattice hash),
shedding always carries ``Retry-After``, and a 202 means the result is
eventually retrievable.
"""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.api import SimulationConfig, simulate
from repro.sched import Client, Scheduler
from repro.serve import (
    PROTOCOL_VERSION,
    ProtocolError,
    RateLimiter,
    ServeApp,
    ShardRouter,
    TenantQuota,
    config_from_wire,
    http_request,
    result_to_wire,
    stream_frames,
)


def with_app(coro_fn, **app_kwargs):
    """Run ``coro_fn(app)`` against a live server on a private loop."""

    async def main():
        async with ServeApp(**app_kwargs) as app:
            return await coro_fn(app)

    return asyncio.run(main())


def wire_config(**overrides):
    base = {"shape": [12, 12], "temperature": 2.1, "seed": 4}
    base.update(overrides)
    return base


async def post_job(app, config=None, sweeps=30, **fields):
    payload = {"config": config or wire_config(), "sweeps": sweeps, **fields}
    return await http_request(
        "127.0.0.1", app.port, "POST", "/v1/jobs", payload
    )


class TestLifecycle:
    def test_submit_status_result_roundtrip(self):
        async def scenario(app):
            status, _, body = await post_job(app)
            assert status == 202
            assert body["protocol"] == PROTOCOL_VERSION
            assert body["id"].startswith("j")
            status, _, info = await http_request(
                "127.0.0.1", app.port, "GET", f"/v1/jobs/{body['id']}"
            )
            assert status == 200
            assert info["state"] in ("queued", "admitted", "running", "done")
            status, _, res = await http_request(
                "127.0.0.1", app.port, "GET", f"/v1/jobs/{body['id']}/result"
            )
            assert status == 200
            assert res["state"] == "done"
            assert res["cache_key"] == body["cache_key"]
            return res

        res = with_app(scenario)
        # Bit-identity with the in-process client: exact float equality,
        # exact lattice, matching integrity hash.
        client = Client()
        local = client.result(
            client.submit(
                SimulationConfig(shape=(12, 12), temperature=2.1, seed=4), 30
            )
        )
        wire = res["result"]
        assert wire["magnetization"] == float(local.magnetization)
        assert wire["energy"] == float(local.energy)
        assert wire["sweeps"] == local.sweeps
        lattice = np.asarray(wire["lattice"], dtype=np.float32)
        np.testing.assert_array_equal(lattice, local.lattice)
        assert (
            wire["lattice_sha256"]
            == hashlib.sha256(
                np.ascontiguousarray(local.lattice.astype(np.float32)).tobytes()
            ).hexdigest()
        )

    def test_duplicate_submission_dedups(self):
        async def scenario(app):
            _, _, first = await post_job(app)
            _, _, second = await post_job(app)
            assert second["cache_key"] == first["cache_key"]
            results = []
            for body in (first, second):
                _, _, res = await http_request(
                    "127.0.0.1", app.port, "GET",
                    f"/v1/jobs/{body['id']}/result",
                )
                results.append(res["result"])
            assert results[0]["lattice_sha256"] == results[1]["lattice_sha256"]
            # The duplicate was deduped, not recomputed: at most one
            # compute landed an entry in the whole fleet's caches.
            assert app.router.aggregate_cache_stats()["entries"] == 1

        with_app(scenario, router=ShardRouter(n_shards=1))


class TestErrors:
    def test_unknown_job_404(self):
        async def scenario(app):
            status, _, body = await http_request(
                "127.0.0.1", app.port, "GET", "/v1/jobs/j999999"
            )
            assert status == 404
            assert "no such job" in body["error"]
            status, _, _ = await http_request(
                "127.0.0.1", app.port, "GET", "/v1/nope"
            )
            assert status == 404

        with_app(scenario)

    def test_bad_requests_400(self):
        async def scenario(app):
            status, _, body = await post_job(
                app, config=wire_config(bogus_field=1)
            )
            assert status == 400
            assert "bogus_field" in body["error"]
            status, _, body = await post_job(app, sweeps="ten")
            assert status == 400
            assert "sweeps" in body["error"]
            status, _, body = await http_request(
                "127.0.0.1", app.port, "POST", "/v1/jobs",
                {"config": wire_config(), "surprise": True},
            )
            assert status == 400
            assert "surprise" in body["error"]

        with_app(scenario)

    @pytest.mark.parametrize(
        "overrides, rule",
        [
            ({"shape": 33}, "lattice sides must be even"),
            ({"shape": [64, 64], "dtype": "packed"}, "multiple of 128"),
            (
                {"updater": "masked_conv", "block_shape": [4, 4]},
                "masked_conv does not take a block_shape",
            ),
            (
                {"shape": [12, 12], "block_shape": [4, 4]},
                "block_shape (4, 4) does not tile",
            ),
        ],
        ids=["odd-side", "narrow-packed", "masked-conv-block", "untiled-block"],
    )
    def test_unsupported_config_is_400_at_post(self, overrides, rule):
        async def scenario(app):
            status, _, body = await post_job(
                app, config=wire_config(**overrides)
            )
            assert status == 400, body
            assert rule in body["error"]
            assert app.accepted == 0

        with_app(scenario)

    def test_wrong_method_405(self):
        async def scenario(app):
            status, _, body = await http_request(
                "127.0.0.1", app.port, "GET", "/v1/jobs"
            )
            assert status == 405
            status, _, _ = await http_request(
                "127.0.0.1", app.port, "POST", "/v1/healthz", {}
            )
            assert status == 405

        with_app(scenario)


class TestPackedJobs:
    @pytest.mark.parametrize("updater", ["compact", "checkerboard"])
    @pytest.mark.parametrize("backend", ["numpy", "tpu"])
    def test_packed_job_over_http_matches_simulate(self, updater, backend):
        config = wire_config(
            shape=[128, 128], dtype="packed", updater=updater, backend=backend
        )

        async def scenario(app):
            status, _, body = await post_job(app, config=config, sweeps=4)
            assert status == 202, body
            status, _, res = await http_request(
                "127.0.0.1", app.port, "GET", f"/v1/jobs/{body['id']}/result"
            )
            assert status == 200, res
            assert res["state"] == "done"
            return res["result"]

        wire = with_app(scenario)
        sim = simulate(config_from_wire(config))
        sim.run(4)
        np.testing.assert_array_equal(
            np.asarray(wire["lattice"], dtype=np.float32), sim.lattice
        )


class TestBackpressure:
    def test_quota_429_carries_retry_after(self):
        limiter = RateLimiter(
            per_tenant={"meek": TenantQuota(rate=0.001, burst=1.0)}
        )

        async def scenario(app):
            status, _, _ = await post_job(app, tenant="meek")
            assert status == 202
            status, headers, body = await post_job(
                app, config=wire_config(seed=5), tenant="meek"
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert body["retry_after_s"] > 0
            assert app.throttled == 1

        with_app(scenario, limiter=limiter)

    def test_saturated_429_and_zero_accepted_loss(self):
        """Past capacity the server sheds with 429 + Retry-After, and
        every job it answered 202 for still completes."""

        def factory(shard_id):
            return Scheduler(n_devices=1, max_batch=1, quantum=4, max_queue=1)

        async def scenario(app):
            accepted, shed = [], 0
            for seed in range(6):
                status, headers, body = await post_job(
                    app, config=wire_config(seed=seed), sweeps=200
                )
                if status == 202:
                    accepted.append(body["id"])
                else:
                    assert status == 429
                    assert int(headers["retry-after"]) >= 1
                    shed += 1
            assert accepted, "nothing was admitted"
            assert shed >= 1, "offered load never exceeded capacity"
            for ref_id in accepted:
                status, _, res = await http_request(
                    "127.0.0.1", app.port, "GET", f"/v1/jobs/{ref_id}/result"
                )
                assert status == 200
                assert res["state"] == "done"

        with_app(
            scenario,
            router=ShardRouter(n_shards=1, scheduler_factory=factory),
            autoscale=False,
        )


class TestStream:
    def test_stream_frames_progress_then_final(self):
        # max_batch=1 serializes jobs, so the last submission is still
        # queued when its stream opens — the first frames must show
        # pre-completion states before the final result frame.
        def factory(shard_id):
            return Scheduler(n_devices=1, max_batch=1, quantum=4, max_queue=16)

        async def scenario(app):
            ids = []
            for seed in range(4):
                _, _, body = await post_job(
                    app, config=wire_config(seed=seed), sweeps=60
                )
                ids.append(body["id"])
            frames = await stream_frames(
                "127.0.0.1", app.port, f"/v1/jobs/{ids[-1]}/stream"
            )
            assert len(frames) >= 2
            assert all(frame["id"] == ids[-1] for frame in frames)
            final = frames[-1]
            assert final["final"] is True
            assert final["state"] == "done"
            assert "lattice_sha256" in final["result"]
            progress = [f["sweeps_done"] for f in frames[:-1]]
            assert progress == sorted(progress)
            assert frames[0]["state"] != "done"

        with_app(
            scenario,
            router=ShardRouter(n_shards=1, scheduler_factory=factory),
            autoscale=False,
        )

    def test_stream_of_finished_job_still_closes_with_result(self):
        async def scenario(app):
            _, _, body = await post_job(app, sweeps=10)
            # Ensure it is done before the stream opens.
            await http_request(
                "127.0.0.1", app.port, "GET", f"/v1/jobs/{body['id']}/result"
            )
            frames = await stream_frames(
                "127.0.0.1", app.port, f"/v1/jobs/{body['id']}/stream"
            )
            assert frames[-1]["final"] is True
            assert frames[-1]["state"] == "done"

        with_app(scenario)


class TestIntrospection:
    def test_healthz_and_statsz(self):
        async def scenario(app):
            status, _, health = await http_request(
                "127.0.0.1", app.port, "GET", "/v1/healthz"
            )
            assert status == 200
            assert health["status"] == "ok"
            assert health["n_shards"] == app.router.n_shards
            await post_job(app)
            status, _, stats = await http_request(
                "127.0.0.1", app.port, "GET", "/v1/statsz"
            )
            assert status == 200
            assert stats["http"]["accepted"] == 1
            assert stats["router"]["n_shards"] == app.router.n_shards
            assert "autoscaler" in stats and "limiter" in stats
            assert "serve_http_accepted" in stats["metrics"]

        with_app(scenario)


class TestProtocolUnits:
    def test_config_from_wire_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError, match="unknown config field"):
            config_from_wire({"shape": [8, 8], "wat": 1})
        with pytest.raises(ProtocolError, match="unknown config field"):
            config_from_wire({"shape": [8, 8], "traced": True})
        # Fields of the removed multi-pod tier and fault injection.
        for removed, value in (
            ("pod_grid", [2, 2]),
            ("overlap", True),
            ("fault_plan", {}),
            ("checkpoint_interval", 4),
        ):
            with pytest.raises(ProtocolError, match="unknown config field"):
                config_from_wire({"shape": [8, 8], removed: value})
        with pytest.raises(ProtocolError, match="JSON object"):
            config_from_wire([1, 2, 3])
        with pytest.raises(ProtocolError, match="backend"):
            config_from_wire({"shape": [8, 8], "backend": "gpu"})

    def test_config_from_wire_builds_equivalent_config(self):
        wire = config_from_wire(
            {"shape": [16, 16], "temperature": 2.0, "seed": 9}
        )
        native = SimulationConfig(shape=(16, 16), temperature=2.0, seed=9)
        from repro.sched import canonical_cache_key

        assert canonical_cache_key(wire, 10) == canonical_cache_key(native, 10)

    def test_result_to_wire_hash_matches_payload(self):
        client = Client()
        result = client.result(
            client.submit(SimulationConfig(shape=8, temperature=2.0, seed=0), 5)
        )
        wire = result_to_wire(result)
        lattice = np.asarray(wire["lattice"], dtype=np.float32)
        assert (
            hashlib.sha256(np.ascontiguousarray(lattice).tobytes()).hexdigest()
            == wire["lattice_sha256"]
        )
