"""Direct tests of the workload templates: each builds, runs cleanly
under GPUShield, and exhibits the access-pattern class it promises."""


from repro import ShieldConfig, nvidia_config
from repro.analysis.harness import run_workload
from repro.workloads import templates as T

CFG = nvidia_config(num_cores=2)
SHIELD = ShieldConfig(enabled=True)


def run_clean(workload):
    record = run_workload(workload, CFG, SHIELD, "t")
    assert not record.aborted
    assert record.violations == 0
    return record


class TestAffineTemplates:
    def test_streaming(self):
        rec = run_clean(T.streaming("s", n=128, wg_size=64, inputs=3))
        assert rec.check_reduction_percent == 100.0

    def test_streaming_workloop(self):
        base = run_clean(T.streaming("s", n=128, wg_size=64))
        deep = run_clean(T.streaming("s", n=128, wg_size=64, work=4))
        assert deep.instructions > 2 * base.instructions

    def test_stencil(self):
        rec = run_clean(T.stencil1d("st", n=128, wg_size=64, radius=2))
        assert rec.check_reduction_percent == 100.0

    def test_kmeans_swap(self):
        rec = run_clean(T.kmeans_swap("k", npoints=128, nfeatures=3,
                                      wg_size=64))
        assert rec.check_reduction_percent == 100.0

    def test_matmul_tiled(self):
        rec = run_clean(T.matmul_tiled("m", dim=64, tile=8, wg_size=64))
        assert rec.check_reduction_percent == 100.0

    def test_reduction(self):
        rec = run_clean(T.reduction("r", n=256, wg_size=64))
        assert rec.check_reduction_percent == 100.0

    def test_multi_buffer_stream(self):
        wl = T.multi_buffer_stream("mb", n=128, wg_size=64, nbuffers=7)
        assert wl.num_buffers == 7
        run_clean(wl)


class TestIndirectTemplates:
    def test_gather_partial_reduction(self):
        rec = run_clean(T.gather("g", n=128, wg_size=64, data_len=128))
        assert 0.0 < rec.check_reduction_percent < 100.0

    def test_gather_levels_increase_checks(self):
        one = run_clean(T.gather("g", n=128, wg_size=64, data_len=128,
                                 levels=1))
        two = run_clean(T.gather("g", n=128, wg_size=64, data_len=128,
                                 levels=2))
        assert two.check_reduction_percent < one.check_reduction_percent

    def test_scatter(self):
        rec = run_clean(T.scatter("sc", n=128, wg_size=64, out_len=128))
        assert rec.check_reduction_percent < 100.0

    def test_spmv(self):
        rec = run_clean(T.spmv_csr("sp", rows=128, degree=2, wg_size=64))
        assert 0.0 < rec.check_reduction_percent < 100.0

    def test_spmv_extra_buffers_raise_reduction(self):
        lean = run_clean(T.spmv_csr("sp", rows=128, degree=2, wg_size=64))
        fat = run_clean(T.spmv_csr("sp", rows=128, degree=2, wg_size=64,
                                   affine_frac_buffers=3))
        assert fat.check_reduction_percent > lean.check_reduction_percent

    def test_bfs_like_launch_count(self):
        wl = T.bfs_like("b", nodes=128, degree=2, wg_size=64, iterations=3)
        rec = run_clean(wl)
        assert rec.launches == 3

    def test_bitonic_defeats_static(self):
        rec = run_clean(T.bitonic_step("bit", n=128, wg_size=64, stages=2))
        assert rec.check_reduction_percent < 100.0


class TestOtherTemplates:
    def test_local_array(self):
        run_clean(T.local_array("la", n=128, wg_size=64, words=4))

    def test_compute_heavy_low_mem(self):
        rec = run_clean(T.compute_heavy("c", n=128, wg_size=64, iters=8))
        assert rec.mem_instructions * 5 < rec.instructions


class TestBufferSpecs:
    def test_streaming_declared_footprint(self):
        wl = T.streaming("s", n=64, wg_size=64, elem_mb=2.0)
        assert all(spec.nbytes == 2 << 20 for spec in wl.buffers)

    def test_gather_index_init_targets_data(self):
        wl = T.gather("g", n=64, wg_size=64, data_len=64)
        idx_spec = next(s for s in wl.buffers if s.name == "idx")
        assert idx_spec.init == "index:data:64"
