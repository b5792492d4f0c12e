"""Tests for the unified ``repro.api`` surface.

SimulationConfig validation, the three factories, kind-dispatching
``load()``, removed-kwarg rejections, and the checkpoint-resume
bit-identity matrix across solo / ensemble / distributed with the fused
engine on and off (the pod always runs the elementwise engine).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.api import (
    LadderSpec,
    ModelSpec,
    SimulationConfig,
    distributed,
    ensemble,
    load,
    simulate,
    tempering,
)
from repro.backend import NumpyBackend
from repro.core.distributed import DistributedIsing
from repro.core.ensemble import EnsembleSimulation
from repro.core.simulation import IsingSimulation


class TestSimulationConfig:
    def test_default_config_is_runnable(self):
        sim = simulate(SimulationConfig())
        assert sim.shape == (64, 64)
        assert sim.temperature == 2.0

    def test_temperature_and_beta_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            SimulationConfig(temperature=2.0, beta=0.5)

    def test_beta_resolves_to_temperature(self):
        assert SimulationConfig(beta=0.5).resolved_temperature == 2.0
        assert SimulationConfig(temperature=1.5).resolved_temperature == 1.5
        assert SimulationConfig().resolved_temperature == 2.0

    def test_frozen(self):
        cfg = SimulationConfig()
        with pytest.raises(AttributeError):
            cfg.seed = 1

    def test_evolve_switches_temperature_spelling(self):
        cfg = SimulationConfig(temperature=2.5)
        assert cfg.evolve(beta=0.5).resolved_temperature == 2.0
        assert cfg.evolve(temperature=3.0).beta is None

    def test_validation_rejects_junk(self):
        with pytest.raises(ValueError):
            SimulationConfig(updater="quantum")
        with pytest.raises(ValueError):
            SimulationConfig(fused="sometimes")
        with pytest.raises(ValueError):
            SimulationConfig(backend="gpu")
        with pytest.raises(ValueError):
            SimulationConfig(temperature=-1.0)

    def test_every_field_has_a_default(self):
        # The check_api.py lint enforces this too; keep it in-suite so a
        # missing default fails fast with a readable message.
        SimulationConfig()


class TestFactories:
    def test_simulate_carries_config_through(self):
        cfg = SimulationConfig(
            shape=32, temperature=1.9, updater="conv", seed=3, field=0.1
        )
        sim = simulate(cfg)
        assert isinstance(sim, IsingSimulation)
        assert sim.shape == (32, 32)
        assert sim.temperature == 1.9
        assert sim.updater_name == "conv"
        assert sim.field == 0.1

    def test_simulate_backend_and_dtype(self):
        sim = simulate(SimulationConfig(shape=16, backend="numpy", dtype="bfloat16"))
        assert isinstance(sim.backend, NumpyBackend)
        assert sim.backend.dtype.name == "bfloat16"
        explicit = NumpyBackend()
        assert simulate(SimulationConfig(shape=16, backend=explicit)).backend is explicit

    def test_simulate_rejects_distributed_fields(self):
        with pytest.raises(ValueError, match="grid"):
            simulate(SimulationConfig(grid=(2, 2)))

    def test_ensemble_n_chains(self):
        ens = ensemble(SimulationConfig(shape=16, temperature=2.2), n_chains=5)
        assert isinstance(ens, EnsembleSimulation)
        assert ens.n_chains == 5
        assert np.allclose(ens.temperatures, 2.2)

    @pytest.mark.parametrize("n_chains", [2, 8])
    def test_ensemble_starts_every_chain_from_one_explicit_lattice(
        self, n_chains
    ):
        # Regression: a 2-D initial lattice was read as a stack of rows.
        lat = np.ones((8, 8), np.float32)
        cfg = SimulationConfig(shape=8, initial=lat)
        ens = ensemble(cfg, n_chains=n_chains)
        np.testing.assert_array_equal(
            ens.lattices, np.broadcast_to(lat, (n_chains, 8, 8))
        )
        ens.run(3)
        solo = simulate(cfg)
        solo.run(3)
        np.testing.assert_array_equal(ens.lattices[0], solo.lattice)

    def test_ensemble_temperature_scan(self):
        ens = ensemble(SimulationConfig(shape=16), temperatures=[1.5, 2.0, 3.0])
        assert list(ens.temperatures) == [1.5, 2.0, 3.0]

    def test_ensemble_needs_exactly_one_mode(self):
        cfg = SimulationConfig(shape=16)
        with pytest.raises(ValueError, match="exactly one"):
            ensemble(cfg)
        with pytest.raises(ValueError, match="exactly one"):
            ensemble(cfg, n_chains=2, temperatures=[2.0])

    def test_distributed_needs_grid(self):
        with pytest.raises(ValueError, match="grid"):
            distributed(SimulationConfig(shape=32))

    def test_distributed_rejects_host_backend(self):
        with pytest.raises(ValueError, match="backend"):
            distributed(SimulationConfig(shape=32, grid=(2, 2), backend="numpy"))

    @pytest.mark.parametrize("updater", ["checkerboard", "masked_conv"])
    def test_grid_config_rejects_updaters_the_pod_cannot_run(self, updater):
        # Regression: distributed() used to run these as "compact".
        with pytest.raises(ValueError, match="'compact' or 'conv'"):
            SimulationConfig(shape=32, grid=(2, 2), updater=updater)

    def test_grid_config_rejects_fused_true(self):
        # The pod runs the elementwise engine only; "auto" and False
        # both resolve to it.
        with pytest.raises(ValueError, match="fused=True"):
            SimulationConfig(grid=(2, 2), fused=True)
        with pytest.raises(TypeError, match="fused"):
            DistributedIsing(16, 2.0, core_grid=(2, 2), fused=True)
        for fused in ("auto", False):
            cfg = SimulationConfig(shape=16, grid=(2, 2), fused=fused)
            assert distributed(cfg).fused is False

    @pytest.mark.parametrize("updater", ["compact", "conv"])
    def test_distributed_runs_the_updater_it_was_given(self, updater):
        sim = distributed(SimulationConfig(shape=32, grid=(2, 2), updater=updater))
        assert sim.updater_name == updater
        nn_method = "conv" if updater == "conv" else "matmul"
        assert all(u.nn_method == nn_method for u in sim._updaters)

    def test_factory_output_matches_direct_construction(self):
        cfg = SimulationConfig(shape=32, temperature=2.0, seed=9)
        via_api = simulate(cfg)
        direct = IsingSimulation(32, 2.0, seed=9)
        via_api.run(5)
        direct.run(5)
        assert np.array_equal(via_api.lattice, direct.lattice)


class TestLoadDispatch:
    @pytest.mark.parametrize(
        "fused, extra",
        [
            pytest.param(False, {}, id="elementwise"),
            pytest.param(True, {}, id="fused"),
            # Checkpoints written before the traced= knob was removed
            # carry its setting; the key is ignored on load.
            pytest.param(True, {"traced": True}, id="legacy-traced-key"),
            # Pod checkpoints written while the pod could run the fused
            # engine carry "fused": true; the key is ignored on load,
            # and fused and elementwise sweeps are bit-identical.
            pytest.param(True, {"fused": True}, id="legacy-pod-fused-key"),
            # Distributed checkpoints written before the multi-pod tier
            # and elastic degrade were removed carry their mesh keys, with
            # the values a flat run wrote; the keys are ignored on load.
            pytest.param(
                False,
                {
                    "pod_grid": None,
                    "overlap": "auto",
                    "generation": 0,
                    "topology_events": [],
                },
                id="legacy-mesh-keys",
            ),
        ],
    )
    def test_round_trip_bit_identity_all_kinds(self, fused, extra):
        cfg = SimulationConfig(shape=16, temperature=2.1, seed=4, fused=fused)
        solo = simulate(cfg)
        ens = ensemble(cfg, n_chains=3)
        # The pod runs the elementwise engine whatever the chains run.
        dist = distributed(cfg.evolve(grid=(2, 2), fused="auto"))
        solo.run(3)
        ens.run(3)
        dist.sweep(3)
        for sim, advance, final in (
            (solo, lambda s: s.run(2), lambda s: s.lattice),
            (ens, lambda s: s.run(2), lambda s: s.lattices),
            (dist, lambda s: s.sweep(2), lambda s: s.gather_lattice()),
        ):
            restored = load({**sim.state_dict(), **extra})
            assert type(restored) is type(sim)
            advance(sim)
            advance(restored)
            assert np.array_equal(final(restored), final(sim)), type(sim).__name__

    def test_dicts_without_schema_are_refused(self):
        # A v1 checkpoint (no schema key) names no version this build
        # reads: load() and every driver refuse it by name.
        cfg = SimulationConfig(shape=16, seed=4)
        ladder = LadderSpec(betas=(0.4, 0.5))
        for sim in (
            simulate(cfg),
            ensemble(cfg, n_chains=2),
            distributed(cfg.evolve(grid=(2, 2))),
            tempering(SimulationConfig(shape=16, seed=4, ladder=ladder)),
        ):
            v1 = {
                k: v
                for k, v in sim.state_dict().items()
                if k not in ("schema", "kind")
            }
            for restore in (load, type(sim).from_state_dict):
                with pytest.raises(ValueError, match="checkpoint/v2"):
                    restore(v1)

    def test_wrong_kind_is_an_error(self):
        solo = simulate(SimulationConfig(shape=16))
        with pytest.raises(ValueError, match="repro.api.load"):
            DistributedIsing.from_state_dict(solo.state_dict())

    def test_unknown_schema_is_an_error(self):
        with pytest.raises(ValueError, match="unsupported checkpoint schema"):
            load({"schema": "checkpoint/v99", "kind": "single"})


class TestDeprecatedKwargs:
    """The retired ``core_grid=`` and ``T=`` spellings are not fields:
    passing one is Python's own TypeError for an unknown keyword."""

    def test_core_grid_spelling_removed(self):
        with pytest.raises(TypeError, match="'core_grid'"):
            SimulationConfig(shape=32, core_grid=(2, 2))

    def test_T_spelling_removed(self):
        with pytest.raises(TypeError, match="'T'"):
            SimulationConfig(T=2.5)

    def test_removed_spellings_do_not_warn_they_raise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(TypeError, match="unexpected keyword"):
                SimulationConfig(T=2.5)


class TestModelSpec:
    def test_default_is_the_clean_ferromagnet(self):
        spec = ModelSpec()
        assert spec.couplings == "ferro"
        assert spec.field == 0.0
        assert spec.disorder_seed == 0

    def test_frozen_and_hashable(self):
        spec = ModelSpec(couplings="bimodal", disorder_seed=3)
        with pytest.raises(AttributeError):
            spec.couplings = "gaussian"
        assert spec == ModelSpec(couplings="bimodal", disorder_seed=3)
        assert hash(spec) == hash(ModelSpec(couplings="bimodal", disorder_seed=3))

    def test_validation(self):
        with pytest.raises(ValueError, match="couplings"):
            ModelSpec(couplings="antiferro")
        # The lattice is always the square torus: no geometry field.
        with pytest.raises(TypeError, match="lattice"):
            ModelSpec(lattice="triangular")

    def test_resolved_model_folds_flat_field(self):
        """Flat kwargs and spec-built configs of the same physics
        resolve to equal ModelSpecs."""
        flat = SimulationConfig(field=0.25)
        spec = SimulationConfig(model=ModelSpec(field=0.25))
        assert flat.resolved_model == spec.resolved_model
        mixed = SimulationConfig(
            field=0.25,
            updater="masked_conv",
            model=ModelSpec(couplings="bimodal"),
        )
        assert mixed.resolved_model == ModelSpec(couplings="bimodal", field=0.25)

    def test_conflicting_field_spellings_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            SimulationConfig(field=0.1, model=ModelSpec(field=0.2))


class TestLadderSpec:
    def test_betas_or_temperatures_not_both(self):
        with pytest.raises(ValueError, match="not both"):
            LadderSpec(betas=(0.4, 0.5), temperatures=(2.0, 2.5))

    def test_two_spellings_canonicalise_to_same_betas(self):
        by_beta = LadderSpec(betas=(0.4, 0.5))
        by_temp = LadderSpec(temperatures=(2.5, 2.0))
        assert by_beta.resolved_betas == by_temp.resolved_betas

    def test_order_is_preserved(self):
        # Adjacency order is part of the trajectory — never sorted.
        assert LadderSpec(betas=(0.5, 0.3, 0.4)).resolved_betas == (0.5, 0.3, 0.4)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LadderSpec(betas=(0.4, -0.5))
        with pytest.raises(ValueError, match="positive"):
            LadderSpec(temperatures=(2.0, 0.0))
        with pytest.raises(ValueError, match="n_replicas"):
            LadderSpec(betas=(0.4,), n_replicas=0)
        with pytest.raises(ValueError, match="swap_interval"):
            LadderSpec(betas=(0.4,), swap_interval=0)

    def test_ladder_config_rejects_flat_temperature(self):
        with pytest.raises(ValueError, match="ladder"):
            SimulationConfig(
                temperature=2.0, ladder=LadderSpec(betas=(0.4, 0.5))
            )


class TestTemperingFactory:
    def test_builds_the_described_ladder(self):
        cfg = SimulationConfig(
            shape=16,
            updater="masked_conv",
            model=ModelSpec(couplings="bimodal", disorder_seed=7),
            ladder=LadderSpec(betas=(0.4, 0.5, 0.6), n_replicas=2,
                              swap_interval=3),
            seed=11,
        )
        sim = tempering(cfg)
        assert sim.n_temps == 3
        assert sim.n_replicas == 2
        assert sim.swap_interval == 3
        assert sim.couplings.kind == "bimodal"
        assert sim.couplings.disorder_seed == 7
        np.testing.assert_array_equal(sim.betas, [0.4, 0.5, 0.6])

    def test_factory_matches_direct_construction(self):
        from repro.core.tempering import TemperingEnsemble

        cfg = SimulationConfig(
            shape=16, ladder=LadderSpec(betas=(0.4, 0.45)), seed=3
        )
        a = tempering(cfg)
        b = TemperingEnsemble(16, (0.4, 0.45), n_replicas=2, seed=3)
        a.run(8)
        b.run(8)
        np.testing.assert_array_equal(a.lattices, b.lattices)
        np.testing.assert_array_equal(a.pairing, b.pairing)

    def test_needs_a_ladder(self):
        with pytest.raises(ValueError, match="ladder"):
            tempering(SimulationConfig(shape=16))

    def test_starts_every_chain_from_one_explicit_lattice(self):
        lat = np.ones((8, 8), np.float32)
        sim = tempering(
            SimulationConfig(
                shape=8, initial=lat, ladder=LadderSpec(betas=(0.4, 0.5))
            )
        )
        np.testing.assert_array_equal(
            sim.lattices, np.broadcast_to(lat, (4, 8, 8))
        )

    def test_other_factories_reject_ladder(self):
        cfg = SimulationConfig(
            shape=16, ladder=LadderSpec(betas=(0.4, 0.5))
        )
        with pytest.raises(ValueError, match="ladder"):
            simulate(cfg)
        with pytest.raises(ValueError, match="ladder"):
            ensemble(cfg, n_chains=2)
        with pytest.raises(ValueError, match="ladder"):
            distributed(cfg.evolve(grid=(1, 1)))


class TestPublicSurface:
    def test_api_symbols_reexported_from_repro(self):
        for name in (
            "SimulationConfig",
            "ModelSpec",
            "LadderSpec",
            "simulate",
            "ensemble",
            "tempering",
            "distributed",
            "load",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_check_api_lint_passes(self):
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "tools" / "check_api.py")],
            capture_output=True,
            text=True,
            cwd=root,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestLoadSchemaVersioning:
    """Regression: an unknown envelope version must fail by *name*,
    before any kind dispatch can produce a misleading error."""

    def test_unknown_schema_names_found_and_supported(self):
        with pytest.raises(ValueError) as excinfo:
            load({"schema": "checkpoint/v9", "kind": "pod"})
        message = str(excinfo.value)
        assert "checkpoint/v9" in message  # the version it found
        assert "checkpoint/v2" in message  # the version it supports
        assert "v1" in message  # and that v1 dicts are no longer read

    def test_unknown_schema_beats_kind_guessing(self):
        # Even a recognisable kind must not be dispatched under an
        # unknown schema (the payload layout may have changed).
        with pytest.raises(ValueError, match="checkpoint/v3"):
            load({"schema": "checkpoint/v3", "kind": "single"})

    def test_non_dict_is_a_type_error(self):
        with pytest.raises(TypeError, match="dict"):
            load("not-a-checkpoint")



class TestUpdaterWhitelist:
    """Regression: the config accepts exactly the core's four updaters
    (the stale list accepted 'naive', which crashed downstream)."""

    @pytest.mark.parametrize(
        "updater", ["compact", "conv", "checkerboard", "masked_conv"]
    )
    def test_all_core_updaters_buildable(self, updater):
        sim = simulate(SimulationConfig(shape=8, updater=updater, seed=2))
        sim.run(1)

    def test_naive_is_rejected_up_front(self):
        with pytest.raises(ValueError, match="updater"):
            SimulationConfig(updater="naive")


class TestSubmitSurface:
    def test_submit_and_client_reexported(self):
        for name in ("submit", "Client", "Scheduler"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_module_level_submit_shares_a_cache(self):
        from repro.sched.client import default_client, reset_default_client

        reset_default_client()
        try:
            config = SimulationConfig(shape=8, seed=5)
            first = repro.submit(config, sweeps=4)
            second = repro.submit(config, sweeps=4)
            np.testing.assert_array_equal(first.lattice, second.lattice)
            assert default_client().scheduler.cache.hits >= 1
            solo = simulate(config)
            solo.run(4)
            np.testing.assert_array_equal(first.lattice, solo.lattice)
        finally:
            reset_default_client()

    def test_client_builds_config_from_keywords(self):
        client = repro.Client(n_devices=1)
        job = client.submit(shape=8, temperature=2.2, seed=9, sweeps=3)
        result = client.result(job)
        solo = simulate(SimulationConfig(shape=8, temperature=2.2, seed=9))
        solo.run(3)
        np.testing.assert_array_equal(result.lattice, solo.lattice)

    def test_client_rejects_config_plus_keywords(self):
        client = repro.Client(n_devices=1)
        with pytest.raises(ValueError, match="not both"):
            client.submit(SimulationConfig(shape=8), 3, shape=16)

    def test_client_result_reraises_failure(self):
        client = repro.Client(n_devices=1)
        job = client.submit(
            SimulationConfig(shape=8, initial="lukewarm"), 3
        )
        with pytest.raises(ValueError, match="hot"):
            client.result(job)
