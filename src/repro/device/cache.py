"""The per-process warm device cache.

Harnesses that used to build a fresh :class:`~repro.device.device.GpuDevice`
per run instead :func:`acquire_device` / :func:`release_device` around
it.  Released devices idle in a pool keyed by a **configuration
fingerprint** — ``(GPUConfig, ShieldConfig, resolved engine)``.  A
device entering the pool is :meth:`reset
<repro.device.device.GpuDevice.reset>` there and then, so an idle device
holds only its construction image: no memory, caches, memos, observers
or violation records of its last owner.  A later acquisition with the
same fingerprint pops one and only :meth:`reseeds
<repro.device.device.GpuDevice.reseed>` it under the caller's seed
instead of reconstructing the whole stack.  Reset is bit-identical to
fresh construction, so the warm path changes wall-clock only.

The seed is deliberately *not* part of the key: campaigns vary the seed
per case, and reseeding is free.  The resolved engine *is* part
of the key: the engine-differential drivers flip the process default
mid-run, and a device built under one engine must never serve the
other.

The cache is per process.  Runner workers fork per job, so each child
starts cold and warms up across the cases of its own shard; the inline
(``--jobs 0``) path shares one pool across every job.  The counters
here stay in the process that bumped them: :func:`device_cache_stats`
reads them (``bench/child.py`` reports its warm-hit ratios from it).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.core.shield import ShieldConfig
from repro.device.device import GpuDevice
from repro.engine import resolve as resolve_engine
from repro.gpu.config import GPUConfig, nvidia_config

#: Idle devices kept per fingerprint; beyond this, released devices are
#: evicted.  An idle device is reset at release, so each one pins only
#: its (near-empty) construction image plus the simulator's structures.
MAX_IDLE_PER_KEY = 4

_idle: Dict[Tuple[str, str, str], List[GpuDevice]] = {}
_stats: Dict[str, int] = {}
_warm = True


def _zeroed_stats() -> Dict[str, int]:
    return {"hits": 0, "misses": 0, "cold_builds": 0,
            "releases": 0, "discards": 0, "evictions": 0}


_stats.update(_zeroed_stats())


def device_fingerprint(config: Optional[GPUConfig],
                       shield: Optional[ShieldConfig]) -> Tuple[str, str, str]:
    """The reuse key: full config repr, shield repr, resolved engine.

    Both configs are flat dataclasses whose reprs enumerate every field,
    so two fingerprints are equal exactly when fresh devices built from
    them would be indistinguishable (given equal seeds).
    """
    cfg = config or nvidia_config()
    return (repr(cfg), repr(shield), resolve_engine(cfg.engine))


def warm_devices_enabled() -> bool:
    return _warm


def set_warm_devices(enabled: bool) -> bool:
    """Globally enable/disable reuse; returns the previous setting.

    Disabled, :func:`acquire_device` always cold-builds and
    :func:`release_device` always drops — every run is cold.
    """
    global _warm
    previous = _warm
    _warm = bool(enabled)
    return previous


@contextmanager
def warm_devices(enabled: bool = True):
    """Scoped :func:`set_warm_devices`."""
    previous = set_warm_devices(enabled)
    try:
        yield
    finally:
        set_warm_devices(previous)


def acquire_device(config: Optional[GPUConfig] = None,
                   shield: Optional[ShieldConfig] = None,
                   seed: int = 0xC0FFEE) -> GpuDevice:
    """A device for ``(config, shield)`` in the fresh state for ``seed``.

    Pops an idle device with the same fingerprint when warm reuse is
    on and reseeds it (it was reset when released), else constructs
    one.  Either way the returned device is in the bit-identical fresh
    state for ``seed``.
    """
    cfg = config or nvidia_config()
    if not _warm:
        _stats["cold_builds"] += 1
        return GpuDevice(cfg, shield=shield, seed=seed)
    key = device_fingerprint(cfg, shield)
    pool = _idle.get(key)
    if pool:
        device = pool.pop()
        device.reseed(seed)
        _stats["hits"] += 1
        return device
    _stats["misses"] += 1
    device = GpuDevice(cfg, shield=shield, seed=seed)
    device._cache_key = key
    return device


def release_device(device: Optional[GpuDevice]) -> None:
    """Reset a device into the idle pool (or drop it).

    A pooled device is reset at once, so nothing of its last owner —
    memory, caches, statistics, observers, a swapped-in checker,
    undrained violation records — idles with it or reaches the next
    owner.  Cold-built, duplicate and evicted releases are dropped
    without a reset; the caller must not read the device afterwards
    either way.  Safe to call with ``None`` and idempotent per device
    object: a device already idling is not enqueued twice.
    """
    if device is None:
        return
    key = device._cache_key
    if key is None or not _warm:
        _stats["discards"] += 1
        return
    pool = _idle.setdefault(key, [])
    if device in pool:
        _stats["discards"] += 1
        return
    if len(pool) >= MAX_IDLE_PER_KEY:
        _stats["evictions"] += 1
        return
    device.reset()
    pool.append(device)
    _stats["releases"] += 1


def reset_device_cache() -> None:
    """Drop every idle device, the warm memos, and all counters.

    One call returns the whole warm layer to a cold, just-imported
    state — what each leg of a cold-vs-warm comparison starts from.
    """
    from repro.device.memo import clear_warm_memo
    _idle.clear()
    _stats.clear()
    _stats.update(_zeroed_stats())
    clear_warm_memo()


def device_cache_stats() -> Dict[str, int]:
    """A copy of the counters plus the current idle population and the
    simulated-memory bytes it holds (``idle_bytes``)."""
    out = dict(_stats)
    idle = [device for pool in _idle.values() for device in pool]
    out["idle"] = len(idle)
    out["idle_bytes"] = sum(device.driver.memory.resident_bytes()
                            for device in idle)
    out["keys"] = len(_idle)
    return out
