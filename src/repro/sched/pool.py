"""The device pool: simulated TensorCores handed out under leases.

Rack-scale work is scheduled, not launched (Bisson et al.) — the
scheduler never touches a core directly.  It acquires a
:class:`DeviceLease` from the :class:`DevicePool`, binds the batch's
backend to the leased core, and releases the lease when the batch
retires, fails or is preempted.

All time on this pool is the *cost-model clock*: every op a leased
backend executes books modeled seconds into the core's profiler, so
``makespan()`` is the modeled wall-clock of a run (devices execute
concurrently) and ``total_busy()`` the serial-equivalent device time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..tpu.profiler import Profiler
from ..tpu.tensorcore import TensorCore

__all__ = ["DeviceLease", "Device", "DevicePool"]


@dataclass
class DeviceLease:
    """One holder's exclusive claim on a device until released."""

    device: "Device"
    holder: str


@dataclass
class Device:
    """One poolable simulated TensorCore plus its lease bookkeeping."""

    core: TensorCore
    lease: DeviceLease | None = field(default=None, repr=False)

    @property
    def core_id(self) -> int:
        return self.core.core_id

    @property
    def busy_seconds(self) -> float:
        """Modeled seconds booked on this core so far (cost-model clock)."""
        return self.core.profiler.total_seconds


class DevicePool:
    """A fixed fleet of simulated TensorCores with lease bookkeeping.

    Parameters
    ----------
    n_devices:
        Pool size; each device is an independent
        :class:`~repro.tpu.tensorcore.TensorCore` with its own profiler
        (and so its own modeled timeline).
    record_trace:
        Build the per-core profilers with trace recording on, so a
        scheduler run exports per-device op tracks to the Chrome trace.
    """

    def __init__(self, n_devices: int = 2, record_trace: bool = False) -> None:
        if n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {n_devices}")
        self.devices = [
            Device(
                core=TensorCore(
                    core_id=i,
                    coords=(0, i),
                    profiler=Profiler(record_trace=record_trace),
                )
            )
            for i in range(n_devices)
        ]
        self.record_trace = bool(record_trace)

    # -- interop: telemetry.trace renders anything exposing ``cores`` -------

    @property
    def cores(self) -> "list[TensorCore]":
        """The simulated cores (the Chrome-trace exporter's contract)."""
        return [device.core for device in self.devices]

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def n_available(self) -> int:
        return sum(1 for d in self.devices if d.lease is None)

    # -- leasing -------------------------------------------------------------

    def acquire(self, holder: str) -> DeviceLease | None:
        """Lease a free device to ``holder``, or None if saturated."""
        for device in self.devices:
            if device.lease is None:
                lease = DeviceLease(device=device, holder=str(holder))
                device.lease = lease
                return lease
        return None

    def release(self, lease: DeviceLease) -> None:
        """Return a lease; idempotent."""
        if lease.device.lease is lease:
            lease.device.lease = None

    # -- cost-model clock ----------------------------------------------------

    def makespan(self) -> float:
        """Modeled completion time: devices run concurrently, so the
        pool-level clock is the busiest device's timeline."""
        return max(d.busy_seconds for d in self.devices)

    def total_busy(self) -> float:
        """Serial-equivalent modeled device seconds (sum over devices)."""
        return sum(d.busy_seconds for d in self.devices)
