"""Reference kernels: how fast the host runs at this moment.

perfbench shares a few vCPUs of a host with other tenants.  Their load
slows every process here by up to 2x for seconds or minutes at a time,
and a whole run can fall inside one slow spell: the median unit time of
runs of the same code moved by 30-80% from run to run.  So every timed
unit of work is paired with a run of a fixed kernel just before it, and
the benchmark reports the unit's time in *reference seconds*::

    unit_s / kernel_s * nominal_s

Both halves of a pair sit in the same spell, so the quotient holds still
where each time swings.  A spell slows some work more than other work,
so the kernel does the same kind of work as the workload: numpy passes
over large arrays for the large lattices, many calls on small arrays
plus interpreter work (dicts, JSON, hashing) for the small lattices, the
service and set-up.  ``nominal_s`` is about the kernel's median time on
a 2-vCPU container, which keeps reported values close to wall time
there.  The kernels use only numpy and the standard library, never
the program under test, so no change to ``src/`` can move them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Kernel:
    """``rounds`` numpy passes over ``elements``-long arrays, then
    ``interpreter`` passes of JSON and hashing."""

    elements: int
    rounds: int
    interpreter: int
    #: Seconds per run, rounded, on the container of README.md; it only
    #: sets the scale, and changing it changes every baseline.
    nominal_s: float

    def seconds(self, unit_s: float, kernel_s: float) -> float:
        """``unit_s``, timed right after a ``kernel_s`` run, in reference
        seconds."""
        return unit_s / kernel_s * self.nominal_s


#: Large-array work: the 512^2 and packed 1024^2 chains.
ARRAYS = Kernel(elements=1 << 15, rounds=8, interpreter=1, nominal_s=1.0e-3)
#: Per-call and interpreter work: small lattices, the service, set-up.
CALLS = Kernel(elements=1 << 10, rounds=48, interpreter=4, nominal_s=1.0e-3)


#: Buffer sets a :class:`Reference` rotates through.  Where a set's
#: arrays land in memory moves its kernel time by up to 10% for the life
#: of the process; a run's median over several sets does not keep that.
N_BUFFER_SETS = 8


class Buffers:
    """One set of the kernel's inputs and work arrays."""

    def __init__(self, n: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.words = rng.integers(0, 2**32, size=n, dtype=np.uint64)
        self.mixed = np.empty_like(self.words)
        self.uniform = rng.random(n, dtype=np.float32)
        self.index = rng.integers(0, 19, size=n)
        self.gathered = np.empty_like(self.uniform)
        self.mask = np.empty(n, dtype=bool)


class Reference:
    """A kernel's fixed inputs and work buffers; :meth:`time` runs it."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.sets = [Buffers(kernel.elements, seed) for seed in range(N_BUFFER_SETS)]
        self.next = 0
        self.table = np.linspace(0.0, 1.0, 19, dtype=np.float32)
        self.document = {
            "jobs": [
                {"id": f"job-{k}", "temperature": 1.5 + 0.1 * k, "sweeps": 64, "seed": k}
                for k in range(64)
            ]
        }
        for _ in self.sets:
            self.run()  # first-touch every set

    def run(self) -> int:
        """One pass on the next buffer set: Philox-style word mixing, a
        table gather and compare, then interpreter work."""
        b = self.sets[self.next]
        self.next = (self.next + 1) % len(self.sets)
        for _ in range(self.kernel.rounds):
            np.multiply(b.words, 0xD2511F53, out=b.mixed)
            np.right_shift(b.mixed, 32, out=b.mixed)
            np.bitwise_xor(b.mixed, b.words, out=b.mixed)
            np.take(self.table, b.index, out=b.gathered)
            np.less(b.uniform, b.gathered, out=b.mask)
            np.multiply(b.uniform, b.gathered, out=b.gathered)
        total = 0
        for _ in range(self.kernel.interpreter):
            text = json.dumps(self.document)
            jobs = json.loads(text)["jobs"]
            total += sum(len(job["id"]) + job["seed"] for job in jobs)
            total += hashlib.sha256(text.encode()).digest()[0]
        return total

    def time(self) -> float:
        """Seconds one run of the kernel takes now."""
        start = perf_counter()
        self.run()
        return perf_counter() - start
