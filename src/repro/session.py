"""High-level convenience facade: one warm device behind one object.

Most examples, tests and benchmarks follow the same pattern — create a
driver and a GPU with some shield configuration, allocate buffers, launch
a kernel, run it and read the results.  :class:`GpuSession` packages that
pattern as a thin facade over :class:`~repro.device.device.GpuDevice`,
which owns the driver/GPU/shield stack:

>>> from repro import GpuSession, nvidia_config
>>> session = GpuSession(nvidia_config(num_cores=2))
>>> buf = session.driver.malloc(1024)
>>> # ... build a kernel, then:
>>> # result, violations = session.run(kernel, {"a": buf}, workgroups=2,
>>> #                                   wg_size=64)

Pass ``device=`` to wrap an existing (e.g. cache-acquired) device; the
session then adds nothing but the historical attribute surface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.shield import GPUShield, ShieldConfig
from repro.core.violations import ViolationRecord
from repro.device.device import GpuDevice
from repro.driver.driver import ArgValue, GpuDriver, LaunchContext
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU, LaunchResult
from repro.isa.program import Kernel


class GpuSession:
    """A GPU context: one device (driver + GPU + optional shield)."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 shield: Optional[ShieldConfig] = None,
                 seed: int = 0xC0FFEE,
                 device: Optional[GpuDevice] = None):
        if device is None:
            device = GpuDevice(config, shield=shield, seed=seed)
        self.device = device
        self.config = device.config

    @property
    def driver(self) -> GpuDriver:
        return self.device.driver

    @property
    def gpu(self) -> GPU:
        return self.device.gpu

    @property
    def shield(self) -> GPUShield:
        return self.device.shield

    @property
    def seed(self) -> int:
        """The seed the device currently runs under (§5.4 key/ID RNG)."""
        return self.device.seed

    @property
    def stats(self):
        """The GPU's unified :class:`~repro.analysis.stats.StatsRegistry`."""
        return self.device.stats

    def run(self, kernel: Kernel, args: Dict[str, ArgValue],
            workgroups: int, wg_size: int
            ) -> Tuple[LaunchResult, List[ViolationRecord]]:
        """Launch, execute and finish one kernel; returns (result, report)."""
        return self.device.run(kernel, args, workgroups, wg_size)

    def run_pair(self, launches: Sequence[LaunchContext], mode: str
                 ) -> Tuple[LaunchResult, List[ViolationRecord]]:
        """Run prepared launches concurrently (§6.2 multi-kernel modes)."""
        return self.device.run_pair(launches, mode)
