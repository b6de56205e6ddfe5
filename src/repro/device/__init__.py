"""The device layer: long-lived GPUs with reset/snapshot and a warm cache."""

from repro.device.cache import (
    acquire_device,
    device_cache_stats,
    device_fingerprint,
    release_device,
    reset_device_cache,
    set_warm_devices,
    warm_devices,
    warm_devices_enabled,
)
from repro.device.device import DeviceSnapshot, GpuDevice
from repro.device.memo import (
    clear_warm_memo,
    warm_memo_stats,
    workload_fingerprint,
)

__all__ = [
    "clear_warm_memo",
    "warm_memo_stats",
    "workload_fingerprint",
    "DeviceSnapshot",
    "GpuDevice",
    "acquire_device",
    "device_cache_stats",
    "device_fingerprint",
    "release_device",
    "reset_device_cache",
    "set_warm_devices",
    "warm_devices",
    "warm_devices_enabled",
]
