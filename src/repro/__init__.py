"""GPUShield reproduction: region-based bounds checking for GPUs.

Public API surface (see README.md for a tour):

* :class:`GpuSession` — one-stop driver + GPU context;
* :class:`GpuDevice` — the lifecycle layer underneath every session:
  reset/snapshot/restore, single and co-resident runs, and the warm
  device cache (:func:`acquire_device` / :func:`release_device` /
  :func:`warm_devices`);
* :class:`GpuDriver` / :class:`GPU` — the two halves explicitly;
* :class:`GPUShield` / :class:`ShieldConfig` / :class:`BCUConfig` —
  mechanism configuration;
* :class:`KernelBuilder` — write kernels for the simulator;
* :func:`nvidia_config` / :func:`intel_config` — Table 5 presets.
"""

from repro.core.bcu import BCUConfig
from repro.core.shield import GPUShield, ShieldConfig
from repro.core.violations import ReportPolicy, ViolationRecord
from repro.device import (
    DeviceSnapshot,
    GpuDevice,
    acquire_device,
    release_device,
    warm_devices,
)
from repro.driver.driver import GpuDriver, LaunchContext
from repro.errors import (
    BoundsViolation,
    DeviceError,
    IllegalAddressError,
    KernelAborted,
    ReproError,
)
from repro.gpu.config import GPUConfig, intel_config, nvidia_config
from repro.gpu.gpu import GPU, LaunchResult
from repro.isa.builder import KernelBuilder
from repro.session import GpuSession

__version__ = "1.0.0"

__all__ = [
    "BCUConfig",
    "GPUShield",
    "ShieldConfig",
    "ReportPolicy",
    "ViolationRecord",
    "GpuDevice",
    "DeviceSnapshot",
    "acquire_device",
    "release_device",
    "warm_devices",
    "GpuDriver",
    "LaunchContext",
    "BoundsViolation",
    "DeviceError",
    "IllegalAddressError",
    "KernelAborted",
    "ReproError",
    "GPUConfig",
    "intel_config",
    "nvidia_config",
    "GPU",
    "LaunchResult",
    "KernelBuilder",
    "GpuSession",
    "__version__",
]
