"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.core.lattice import random_lattice
from repro.rng import PhiloxStream


@pytest.fixture
def stream() -> PhiloxStream:
    """A fresh reproducible uniform stream."""
    return PhiloxStream(seed=20190317, stream_id=0)


@pytest.fixture
def backend() -> NumpyBackend:
    """A plain float32 numpy backend."""
    return NumpyBackend()


@pytest.fixture
def bf16_backend() -> NumpyBackend:
    """A bfloat16-rounding numpy backend."""
    return NumpyBackend("bfloat16")


def make_lattice(shape: tuple[int, int], seed: int = 7) -> np.ndarray:
    """A reproducible random +/-1 lattice."""
    return random_lattice(shape, PhiloxStream(seed, 99))


def count_draws(backend) -> list:
    """Record the shape of every ``uniform_into`` draw made on ``backend``."""
    shapes = []
    draw = backend.uniform_into

    def counting(stream, out):
        shapes.append(out.shape)
        return draw(stream, out)

    backend.uniform_into = counting
    return shapes
