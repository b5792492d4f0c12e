"""No production path draws through the allocating Philox oracle.

``philox4x32`` and the ``philox_uniform_bits*`` functions stay in
``repro.rng.philox`` as the tests' independent oracle only.  Every draw
a run makes, hot starts and ``fused=False`` phases included, runs the
in-place generator; this guard makes the oracle raise in every
``repro`` module that holds it, then runs each driver for a sweep.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro
import repro.sched
import repro.serve
from repro.api import LadderSpec, ModelSpec, SimulationConfig
from repro.rng import philox

ORACLE = ("philox4x32", "philox_uniform_bits", "philox_uniform_bits_batched")


@pytest.fixture
def no_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a production path drew through the allocating oracle")

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr in ORACLE:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)


def test_the_guard_bites(no_oracle):
    for attr in ORACLE:
        with pytest.raises(AssertionError, match="allocating oracle"):
            getattr(philox, attr)()


@pytest.mark.parametrize(
    "config",
    [
        SimulationConfig(shape=16, seed=1),
        SimulationConfig(shape=16, seed=1, fused=False),
        SimulationConfig(shape=16, seed=1, updater="checkerboard", fused=False),
        SimulationConfig(shape=16, seed=1, dtype="bfloat16", updater="masked_conv"),
        SimulationConfig(shape=128, seed=1, dtype="packed"),
    ],
    ids=["fused", "compact-elementwise", "checkerboard-elementwise", "masked-bf16", "packed"],
)
def test_simulate(no_oracle, config):
    repro.simulate(config).run(1)


def test_ensemble(no_oracle):
    config = SimulationConfig(
        shape=16, seed=2, updater="masked_conv",
        model=ModelSpec(couplings="gaussian", disorder_seed=3),
    )
    repro.ensemble(config, n_chains=3).run(1)
    repro.ensemble(SimulationConfig(shape=16, seed=2), n_chains=3).run(1)


def test_tempering(no_oracle):
    config = SimulationConfig(
        shape=16, seed=3, ladder=LadderSpec(betas=(0.40, 0.42, 0.44), swap_interval=1)
    )
    ladder = repro.api.tempering(config)
    ladder.run(2)
    assert ladder.swap_rounds == 2


def test_scheduler_batch(no_oracle):
    scheduler = repro.sched.Scheduler(n_devices=1, max_batch=4)
    jobs = [
        scheduler.submit(SimulationConfig(shape=16, temperature=2.0 + 0.1 * i, seed=i), 1)
        for i in range(3)
    ]
    scheduler.drain()
    assert all(job.state == "done" for job in jobs)


def test_distributed(no_oracle):
    sim = repro.distributed(SimulationConfig(shape=32, grid=(2, 2), seed=4))
    sim.sweep(1)
    assert sim.sweeps_done == 1
