"""Shared fixtures: small GPU configs, simple kernels, sessions."""

from __future__ import annotations

import pytest

from repro import GpuSession, KernelBuilder, ShieldConfig, nvidia_config
from repro.gpu.config import intel_config

try:
    from hypothesis import settings as _hyp_settings

    # Pinned CI profile: property tests must not flake the tier-1 gate.
    # ``deadline=None`` removes wall-clock sensitivity on loaded runners;
    # ``derandomize=True`` makes example generation a pure function of
    # the test body, so every run draws the same cases.
    _hyp_settings.register_profile("ci", deadline=None, derandomize=True)
    _hyp_settings.load_profile("ci")
except ImportError:          # pragma: no cover - hypothesis not installed
    pass


def run_warp_to_exit(executor, warp, max_steps=200_000, on_mem=None):
    """Drive one warp until its program exits; returns steps taken.

    The shared run-to-exit loop: loads are satisfied with zeroes (or by
    ``on_mem(executor, warp, request)`` when given), stores/barriers/
    mallocs need no completion action.  Raises if the program does not
    terminate within ``max_steps``.
    """
    for step in range(max_steps):
        kind, payload = executor.step(warp)
        if kind == "exit":
            return step
        if kind == "mem":
            if on_mem is not None:
                on_mem(executor, warp, payload)
            elif not payload.is_store:
                executor.deliver_load(
                    warp, payload,
                    {lane: 0 for lane in payload.active_lanes})
        # "alu" / "bar" / "malloc" complete without a host action here.
    raise AssertionError(f"did not terminate within {max_steps} steps")


@pytest.fixture
def tiny_config():
    """A 2-core Nvidia config for fast end-to-end tests."""
    return nvidia_config(num_cores=2)


@pytest.fixture
def tiny_intel_config():
    return intel_config(num_cores=2)


@pytest.fixture
def session(tiny_config):
    """Session without GPUShield (native behaviour)."""
    return GpuSession(tiny_config)


@pytest.fixture
def shielded(tiny_config):
    """Session with GPUShield enabled (default BCU, LOG policy)."""
    return GpuSession(tiny_config, shield=ShieldConfig(enabled=True))


def memory_bytes(memory):
    """Every chunk of a ``PhysicalMemory``, by index, as ``bytes``: a
    copy that later stores leave alone, to compare by value."""
    return {index: bytes(chunk) for index, chunk in memory._chunks.items()}


def build_vecadd():
    """c[i] = a[i] + b[i] with an n-guard (the paper's Figure 3 kernel)."""
    b = KernelBuilder("vecadd")
    a = b.arg_ptr("a", read_only=True)
    bb = b.arg_ptr("b", read_only=True)
    c = b.arg_ptr("c")
    n = b.arg_scalar("n")
    gtid = b.gtid()
    p = b.setp("lt", gtid, n)
    with b.if_(p):
        va = b.ld_idx(a, gtid, dtype="i32")
        vb = b.ld_idx(bb, gtid, dtype="i32")
        b.st_idx(c, gtid, b.add(va, vb), dtype="i32")
    return b.build()


def build_oob_store(offset_elems: int, dtype: str = "i32"):
    """Writes A[offset] from thread 0 only — the Figure 4 probe."""
    b = KernelBuilder(f"oob_{offset_elems:#x}")
    a = b.arg_ptr("A")
    p = b.setp("eq", b.gtid(), 0)
    with b.if_(p):
        b.st_idx(a, offset_elems, 0xBAD, dtype=dtype)
    return b.build()


@pytest.fixture
def vecadd_kernel():
    return build_vecadd()
