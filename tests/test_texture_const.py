"""Constant & texture memory (Table 1: read-only, no overflow possible)."""

import struct

import pytest

from repro import GpuSession, KernelBuilder, ShieldConfig, nvidia_config
from repro.analysis.harness import run_workload
from repro.workloads.suite import get_benchmark
from repro.workloads.templates import stencil1d


def conv_kernel():
    """out[i] = img[i] * coef[i % 4] via texture + constant paths."""
    b = KernelBuilder("texconv")
    img = b.arg_ptr("img", read_only=True)
    coef = b.arg_ptr("coef", read_only=True)
    out = b.arg_ptr("out")
    n = b.arg_scalar("n")
    i = b.gtid()
    p = b.setp("lt", i, n)
    with b.if_(p):
        c = b.ld_const(coef, b.mod(i, 4), dtype="f32")
        v = b.ld_tex(img, i, dtype="f32")
        b.st_idx(out, i, b.fmul(v, c), dtype="f32")
    return b.build()


def setup(shield=True, n=128):
    session = GpuSession(
        nvidia_config(num_cores=2),
        shield=ShieldConfig(enabled=True) if shield else None)
    img = session.driver.malloc_texture(n * 4, name="img")
    coef = session.driver.malloc_const(16, name="coef")
    out = session.driver.malloc(n * 4, name="out")
    session.driver.memory.write(
        img.va, struct.pack(f"<{n}f", *[float(x) for x in range(n)]))
    session.driver.memory.write(coef.va,
                                struct.pack("<4f", 1.0, 2.0, 3.0, 4.0))
    return session, img, coef, out, n


class TestFunctional:
    @pytest.mark.parametrize("shield", [False, True])
    def test_convolution_correct(self, shield):
        session, img, coef, out, n = setup(shield)
        result, viol = session.run(
            conv_kernel(), {"img": img, "coef": coef, "out": out, "n": n},
            2, 64)
        assert result.ok and viol == []
        values = struct.unpack(f"<{n}f", session.driver.read(out))
        assert all(values[i] == pytest.approx(i * [1, 2, 3, 4][i % 4])
                   for i in range(n))

    def test_dedicated_caches_used(self):
        session, img, coef, out, n = setup()
        session.run(conv_kernel(),
                    {"img": img, "coef": coef, "out": out, "n": n}, 2, 64)
        pipes = [core.pipeline for core in session.gpu.cores]
        tex = sum(p.tex_cache.stats.accesses for p in pipes)
        const = sum(p.const_cache.stats.accesses for p in pipes)
        assert tex > 0 and const > 0
        # L1D only sees the global stores.
        d_accesses = sum(p.l1d.stats.accesses for p in pipes)
        assert d_accesses < tex + const + d_accesses

    def test_regions_distinct(self):
        session, img, coef, out, _n = setup()
        assert img.region == "texture"
        assert coef.region == "constant"
        assert out.region == "global"
        assert img.va < out.va   # texture region below global


class TestReadOnlyEnforcement:
    def _store_kernel(self, target):
        b = KernelBuilder("st_ro")
        t = b.arg_ptr(target)
        p = b.setp("eq", b.gtid(), 0)
        with b.if_(p):
            j = b.ld_idx(t, 0, dtype="i32")
            b.st_idx(t, b.mul(j, 0), 0xBAD, dtype="i32")
        return b.build()

    def test_native_store_to_texture_aborts(self):
        """Texture pages are read-only at page granularity (own region:
        never shared with writable buffers)."""
        session, img, _coef, _out, _n = setup(shield=False)
        result, _ = session.run(self._store_kernel("img"), {"img": img},
                                1, 32)
        assert result.aborted

    def test_shield_reports_readonly_store(self):
        session, img, _coef, _out, _n = setup(shield=True)
        _res, viol = session.run(self._store_kernel("img"), {"img": img},
                                 1, 32)
        assert any(v.reason == "read-only" for v in viol)

    def test_const_store_blocked_both_ways(self):
        session, _img, coef, _out, _n = setup(shield=True)
        _res, viol = session.run(self._store_kernel("coef"),
                                 {"coef": coef}, 1, 32)
        assert viol
        assert session.driver.memory.read_f32(coef.va) == 1.0


class TestTextureWorkloads:
    def test_texture_stencil_runs_clean(self):
        wl = stencil1d("t", n=256, wg_size=64, radius=1,
                       src_space="texture")
        record = run_workload(wl, nvidia_config(num_cores=2),
                              ShieldConfig(enabled=True), "tex")
        assert record.violations == 0
        assert record.check_reduction_percent == 100.0

    def test_registry_texture_benchmarks(self):
        for name in ("convolutionTexture", "simpleTexture"):
            wl = get_benchmark(name).build()
            src = next(s for s in wl.buffers if s.name == "src")
            assert src.region == "texture"
