"""The long-lived GPU device: one driver + GPU + shield, reusable.

Every harness used to cold-construct the whole stack per run (driver,
GPU, caches, TLBs, RCaches, RBT plumbing) and throw it away afterwards.
:class:`GpuDevice` inverts that lifetime: the device outlives any one
workload, and callers return it to a known state instead of rebuilding.

The device's operations:

* :meth:`reset` — back to a **bit-identical post-construction state**
  (optionally under a new seed).  This is the warm path: a reset device
  is observably indistinguishable — cycles, stats, memory contents,
  violation records — from a freshly constructed one with the same
  seed, under both the slow and fast engines.  The warm pool resets a
  device when it is released, and on the next acquisition only
  reseeds it (:meth:`reseed`).
* :meth:`snapshot` / :meth:`restore` — capture and re-install the
  *architectural* state (memory, page table, allocations, heap, RNG
  stream, kernel counter, undrained violations).  Scratch state —
  caches, TLBs, RCaches, statistics, memo tables — is scrubbed on
  restore, exactly like the §5.5 context-switch RCache flush: timing
  structures never survive a context transition.
* :meth:`run` / :meth:`run_pair` — execute one launch, or prepared
  §6.2 co-resident launches, and ``finish`` each; per-kernel teardown
  runs through the existing scoped RCache flush (partitioned flush per
  terminating ``kernel_id`` when §6.2 banking is on).

The distinction that makes reset correct is *architectural vs scratch*
state.  Architectural state defines what software can observe across
launches (memory bytes, mappings, allocator cursors, the RNG stream
feeding §5.4's key/ID draws, the kernel counter); scratch state only
shapes timing (cache/TLB/RCache contents, statistics) or memoizes pure
recomputation (pointer-decode and BAT caches).  Reset restores the
former to the construction image and flushes the latter in place — in
place because the fast engine binds line arrays, the page dict and
stats objects once at construction and must never see them replaced.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.shield import GPUShield, ShieldConfig
from repro.core.violations import ViolationRecord
from repro.driver.driver import ArgValue, GpuDriver, LaunchContext
from repro.gpu.config import GPUConfig, nvidia_config
from repro.gpu.gpu import GPU, LaunchResult
from repro.isa.program import Kernel


class DeviceSnapshot:
    """Opaque capture of one device's architectural state.

    Snapshots capture :class:`~repro.driver.allocator.Buffer` objects by
    identity (the allocation list is append-only), so restoring an
    earlier snapshot invalidates any snapshot taken after it.
    """

    __slots__ = ("_driver_state", "_device_id")

    def __init__(self, driver_state: dict, device_id: int):
        self._driver_state = driver_state
        self._device_id = device_id


class GpuDevice:
    """One long-lived simulated GPU: driver, GPU and shield."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 shield: Optional[ShieldConfig] = None,
                 seed: int = 0xC0FFEE):
        self.config = config or nvidia_config()
        gpushield = GPUShield(shield) if shield is not None else None
        self.driver = GpuDriver(self.config, shield=gpushield, seed=seed)
        self.gpu = GPU(self.driver)
        self.engine = self.gpu.engine
        self.seed = seed
        self._cache_key = None   # set by repro.device.cache on build
        # The reset target: the device exactly as constructed.  Taken
        # before any launch, so the image is small (a fresh device has
        # written almost nothing) and reset == "as new".
        self._baseline = self.snapshot()

    # -- convenience views ----------------------------------------------------

    @property
    def shield(self) -> GPUShield:
        return self.driver.shield

    @property
    def stats(self):
        """The GPU's unified :class:`~repro.analysis.stats.StatsRegistry`."""
        return self.gpu.stats

    # -- lifecycle -------------------------------------------------------------

    def snapshot(self) -> DeviceSnapshot:
        """Capture the current architectural state."""
        return DeviceSnapshot(self.driver.state_snapshot(), id(self))

    def restore(self, snap: DeviceSnapshot) -> None:
        """Re-install a snapshot's architectural state.

        Scratch state (caches, TLBs, RCaches, stats, memo tables, any
        checker/tracer the harness attached) is scrubbed rather than
        restored — the §5.5 context-switch contract — so the device
        resumes with cold timing structures and exact architecture.
        """
        if snap._device_id != id(self):
            raise ValueError("snapshot belongs to a different device")
        self.driver.restore_state(snap._driver_state)
        self.gpu.reset()

    def reset(self, seed: Optional[int] = None) -> None:
        """Return to the bit-identical post-construction state.

        With ``seed`` the device behaves exactly like a fresh
        ``GpuDevice(config, shield, seed=seed)``; without it, like a
        fresh device under its current seed.
        """
        self.restore(self._baseline)
        self.reseed(self.driver.seed if seed is None else seed)

    def reseed(self, seed: int) -> None:
        """Restart the driver's key/ID RNG from ``seed``.

        On a device in its construction state (just built, or just
        :meth:`reset`) this gives exactly a fresh device under ``seed``:
        the RNG stream is the only architectural state the seed shapes.
        """
        self.driver.reseed(seed)
        self.seed = seed

    # -- running launches ------------------------------------------------------

    def run(self, kernel: Kernel, args: Dict[str, ArgValue],
            workgroups: int, wg_size: int
            ) -> Tuple[LaunchResult, List[ViolationRecord]]:
        """Prepare, run and finish one launch: (result, violation report)."""
        launch = self.driver.launch(kernel, args, workgroups, wg_size)
        result = self.gpu.run(launch)
        return result, self.driver.finish(launch)

    def run_pair(self, launches: Sequence[LaunchContext], mode: str
                 ) -> Tuple[LaunchResult, List[ViolationRecord]]:
        """Run prepared co-resident launches (§6.2 modes), then finish
        each in order: (result, violations of every launch)."""
        result = self.gpu.run(list(launches), mode=mode)
        violations: List[ViolationRecord] = []
        for launch in launches:
            violations.extend(self.driver.finish(launch))
        return result, violations
