"""Benchmark registry: the paper's benchmark names -> template instances.

The evaluation uses 88 CUDA benchmarks (Rodinia, Parboil, GraphBig,
CUDA-SDK; Table 6 groups them into seven domains) and 17 OpenCL
benchmarks for the Intel architecture.  Each entry here picks a template
and parameters that match the benchmark's relevant behaviour: buffer
count, affine vs indirect addressing, launch count, memory intensity.

Instance sizes are scaled for simulator throughput via the
``REPRO_SCALE`` environment variable (default 1.0); declared buffer
sizes (``decl_mb``) are kept realistic for the Figure 11 page-count
characterisation even when only a prefix is touched.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.workloads import templates as T
from repro.workloads.templates import Workload


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_SCALE", "1.0"))
    except ValueError:
        return 1.0


@dataclass(frozen=True)
class BenchmarkDef:
    """One registered benchmark."""

    name: str
    category: str          # ML/LA/GT/GI/PS/IM/DM (Table 6) or OCL
    source: str            # rodinia/parboil/graphbig/cuda-sdk/opencl
    factory: Callable[[float], Workload]
    rcache_sensitive: bool = False
    decl_mb: float = 0.5   # declared per-buffer footprint (Figure 11)

    def build(self, scale: Optional[float] = None) -> Workload:
        """Build the workload; ``scale`` overrides REPRO_SCALE."""
        workload = self.factory(_scale() if scale is None else scale)
        workload.category = self.category
        workload.suite = self.source
        # Inflate declared footprints to the benchmark's realistic
        # per-buffer size (Figure 11).  Only a prefix is initialised and
        # touched, so this changes allocation metadata, not simulation
        # cost (the backing store is sparse).
        floor = int(self.decl_mb * (1 << 20))
        workload.buffers = [
            spec if spec.nbytes >= floor else
            type(spec)(name=spec.name, nbytes=floor, init=spec.init,
                       read_only=spec.read_only, region=spec.region)
            for spec in workload.buffers
        ]
        return workload


def _n(base: int, scale: float, wg: int) -> int:
    """Scaled thread count, kept a multiple of the workgroup size."""
    n = max(int(base * scale), wg)
    return -(-n // wg) * wg


# Template shorthands.  CUDA workgroup size 64 (two 32-wide warps);
# OpenCL workgroup size 32 (four SIMD8 sub-workgroups).
_WG = 64
_WGI = 32


def _stream(base_n, inputs=2, flops=4, mb=0.0, work=1, repeats=1, wg=_WG):
    return lambda s: T.streaming(
        "", n=_n(base_n, s, wg), wg_size=wg, inputs=inputs, flops=flops,
        elem_mb=mb, work=work, repeats=repeats)


def _stencil(base_n, radius=1, mb=0.0, work=1, repeats=1, wg=_WG,
             src_space="global"):
    return lambda s: T.stencil1d("", n=_n(base_n, s, wg), wg_size=wg,
                                 radius=radius, elem_mb=mb, work=work,
                                 repeats=repeats, src_space=src_space)


def _gather(base_n, levels=1, extra=0, repeats=1, wg=_WG):
    return lambda s: T.gather("", n=_n(base_n, s, wg), wg_size=wg,
                              data_len=_n(base_n, s, wg), levels=levels,
                              extra_buffers=extra, repeats=repeats)


def _scatter(base_n, repeats=1, wg=_WG):
    return lambda s: T.scatter("", n=_n(base_n, s, wg), wg_size=wg,
                               out_len=_n(base_n, s, wg), repeats=repeats)


def _spmv(base_rows, degree=4, extra=0, repeats=1, wg=_WG):
    return lambda s: T.spmv_csr("", rows=_n(base_rows, s, wg), degree=degree,
                                wg_size=wg, affine_frac_buffers=extra,
                                repeats=repeats)


def _bfs(base_nodes, degree=2, iterations=2, extra=0, wg=_WG):
    def make(s):
        spmv = T.spmv_csr("", rows=_n(base_nodes, s, wg), degree=degree,
                          wg_size=wg, affine_frac_buffers=extra)
        run = spmv.runs[0]
        return T.Workload(name="", buffers=spmv.buffers,
                          runs=[run] * iterations)
    return make


def _mm(dim, tile=16, wg=_WG):
    return lambda s: T.matmul_tiled("", dim=_n(dim, s, wg), tile=tile,
                                    wg_size=wg)


def _reduce(base_n, wg=_WG):
    return lambda s: T.reduction("", n=_n(base_n, s, wg), wg_size=wg)


def _multi(base_n, nbuffers, rounds=2, wg=_WG):
    return lambda s: T.multi_buffer_stream("", n=_n(base_n, s, wg),
                                           wg_size=wg, nbuffers=nbuffers,
                                           rounds=rounds)


def _kmeans(points, features=4, wg=_WG):
    return lambda s: T.kmeans_swap("", npoints=_n(points, s, wg),
                                   nfeatures=features, wg_size=wg)


def _bitonic(base_n, stages=3, wg=_WG):
    return lambda s: T.bitonic_step("", n=_n(base_n, s, wg), wg_size=wg,
                                    stages=stages)


def _local(base_n, words=8, wg=_WG):
    return lambda s: T.local_array("", n=_n(base_n, s, wg), wg_size=wg,
                                   words=words)


def _compute(base_n, iters=16, nbuffers=2, wg=_WG):
    return lambda s: T.compute_heavy("", n=_n(base_n, s, wg), wg_size=wg,
                                     iters=iters, nbuffers=nbuffers)


def _sc_mix(base_n, launches, wg=_WG):
    """streamcluster: memory-bound, ~half indirect, many launches."""
    def make(s):
        n = _n(base_n, s, wg)
        w = T.gather("", n=n, wg_size=wg, data_len=n, levels=2,
                     extra_buffers=3)
        w.repeats = max(4, int(launches * s))
        return w
    return make


# ---------------------------------------------------------------------------
# CUDA registry (Nvidia architecture; Table 6 domains) — 88 entries
# ---------------------------------------------------------------------------

_S = True   # marks the 17 RCache-sensitive benchmarks of Figure 15

_CUDA_SPECS = [
    # --- Machine learning (ML) ---
    ("mm",            "ML", "cuda-sdk",  _mm(256),                   False, 0.25),
    ("ConvSep",       "ML", "cuda-sdk",  _multi(2048, 5, rounds=2),  _S,   1.0),
    ("kmeans",        "ML", "rodinia",   _kmeans(8192, 8),           False, 5.0),
    ("backprop",      "ML", "rodinia",   _stream(2048, inputs=3),    False, 2.5),
    # --- Linear algebra (LA) ---
    ("sad",           "LA", "parboil",   _stencil(2048, radius=2),   False, 1.5),
    ("spmv",          "LA", "parboil",   _spmv(1024, degree=4),      False, 2.0),
    ("stencil",       "LA", "parboil",   _stencil(2048, radius=1),   False, 3.0),
    ("ScalarProd",    "LA", "cuda-sdk",  _multi(2048, 6, rounds=2),  _S,   0.5),
    ("vectoradd",     "LA", "cuda-sdk",  _stream(2048, inputs=2),    False, 0.5),
    ("dct",           "LA", "cuda-sdk",  _stencil(2048, radius=3),   False, 0.25),
    ("Reduction",     "LA", "cuda-sdk",  _reduce(4096),              _S,   1.0),
    # --- Graph traversal (GT) ---
    ("bc",            "GT", "graphbig",  _spmv(1024, degree=3, extra=2), _S, 2.0),
    ("bfs-dtc",       "GT", "graphbig",  _bfs(1024, degree=2, extra=4), _S, 2.0),
    ("gc-dtc",        "GT", "graphbig",  _spmv(768, degree=3),       _S,   2.0),
    ("sssp-dwc",      "GT", "graphbig",  _spmv(768, degree=4),       _S,   2.0),
    ("lavaMD",        "GT", "rodinia",   _local(8192, words=16),     False, 3.0),
    ("gaussian",      "GT", "rodinia",   _stream(6144, inputs=2, flops=12, work=12), False, 1.0),
    ("nn",            "GT", "rodinia",   _stream(2048, inputs=1, flops=8), False, 5.5),
    # --- Graph iterative (GI) ---
    ("pagerank",      "GI", "graphbig",  _spmv(768, degree=3, extra=1), False, 2.0),
    ("kcore",         "GI", "graphbig",  _spmv(640, degree=3),       False, 2.0),
    ("trianglecount", "GI", "graphbig",  _gather(1024, levels=2),    False, 2.0),
    # --- Physics & modelling (PS) ---
    ("cutcp",         "PS", "parboil",   _compute(1536, iters=12),   False, 1.0),
    ("tpacf",         "PS", "parboil",   _compute(1024, iters=16, nbuffers=3), False, 1.0),
    ("blackscholes",  "PS", "cuda-sdk",  _compute(2048, iters=10, nbuffers=3), False, 1.5),
    ("mersennetwister", "PS", "cuda-sdk", _compute(2048, iters=8),   False, 0.5),
    ("sorting",       "PS", "cuda-sdk",  _bitonic(2048, stages=3),   False, 1.0),
    ("MergeSort",     "PS", "cuda-sdk",  _bitonic(2048, stages=4),   _S,   1.0),
    # --- Image & media (IM) ---
    ("mri-q",         "IM", "parboil",   _compute(1536, iters=12, nbuffers=4), False, 1.0),
    ("SobolQRNG",     "IM", "cuda-sdk",  _multi(2048, 3, rounds=2),  _S,   0.5),
    ("Dct8x8",        "IM", "cuda-sdk",  _stencil(2048, radius=3),   False, 0.25),
    ("DwtHaar",       "IM", "cuda-sdk",  _stencil(2048, radius=1),   False, 0.5),
    ("hotspot",       "IM", "rodinia",   _stencil(6144, radius=2, mb=1.0, work=12), False, 1.0),
    ("lud",           "IM", "rodinia",   _mm(192),                   False, 0.5),
    ("lud-64",        "IM", "rodinia",   _mm(128, tile=8),           _S,   0.1),
    ("lud-256",       "IM", "rodinia",   _mm(256, tile=16),          _S,   0.5),
    ("LineOfSight",   "IM", "cuda-sdk",  _multi(2048, 4, rounds=3),  _S,   0.5),
    ("Dxtc",          "IM", "cuda-sdk",  _multi(2048, 5, rounds=2),  _S,   0.5),
    ("Histogram",     "IM", "cuda-sdk",  _scatter(2048),             _S,   0.5),
    ("HSOpticalFlow", "IM", "cuda-sdk",  _stream(2048, inputs=4),    False, 2.0),
    ("nn-256k-1",     "IM", "cuda-sdk",  _multi(3072, 3, rounds=3),  _S,   4.0),
    # --- Data mining (DM) ---
    ("streamcluster", "DM", "rodinia",   _sc_mix(2048, launches=32), _S,   1.5),
    ("nw",            "DM", "rodinia",   _gather(1536, levels=2),    _S,   1.0),
    # --- Remaining Rodinia (Figures 11/19 need the full suite) ---
    ("b+tree",        "GT", "rodinia",   _gather(1024, levels=2, extra=1), False, 10.0),
    ("bfs",           "GT", "rodinia",   _bfs(3072, degree=2, extra=4), False, 4.5),
    ("cfd",           "PS", "rodinia",   _stream(1536, inputs=4, flops=8, repeats=2), False, 6.0),
    ("dwt2d",         "IM", "rodinia",   _stencil(2048, radius=2),   False, 2.0),
    ("heartwall",     "IM", "rodinia",   _multi(4096, 6, rounds=10), False, 8.0),
    ("hotspot3D",     "PS", "rodinia",   _stencil(2048, radius=3),   False, 3.0),
    ("hybridsort",    "PS", "rodinia",   _bitonic(2048, stages=4),   False, 40.0),
    ("myocyte",       "PS", "rodinia",   _compute(512, iters=24, nbuffers=4), False, 0.5),
    ("particlefilter", "PS", "rodinia",  _gather(6144, levels=2, extra=2), False, 2.0),
    ("pathfinder",    "GT", "rodinia",   _stencil(2048, radius=1),   False, 6.0),
    ("srad",          "IM", "rodinia",   _stencil(2048, radius=2, mb=2.0), False, 2.0),
    ("mummergpu",     "GT", "rodinia",   _gather(1024, levels=3),    False, 14.0),
    # --- Remaining Parboil ---
    ("histo",         "IM", "parboil",   _scatter(2048),             False, 1.0),
    ("lbm",           "PS", "parboil",   _stream(1536, inputs=5, flops=10), False, 8.0),
    ("mri-gridding",  "IM", "parboil",   _scatter(1536),             False, 2.0),
    ("sgemm",         "LA", "parboil",   _mm(192),                   False, 1.0),
    ("bfs-parboil",   "GT", "parboil",   _bfs(1024, degree=2),       False, 2.0),
    # --- Remaining GraphBig ---
    ("bfs-topo",      "GT", "graphbig",  _bfs(768, degree=2),        False, 2.0),
    ("dfs",           "GT", "graphbig",  _gather(768, levels=3),     False, 2.0),
    ("degree-centr",  "GI", "graphbig",  _spmv(768, degree=2),       False, 2.0),
    ("connected-comp", "GI", "graphbig", _spmv(768, degree=3),       False, 2.0),
    ("shortest-path", "GT", "graphbig",  _spmv(768, degree=4),       False, 2.0),
    ("graph-coloring", "GI", "graphbig", _spmv(768, degree=3),       False, 2.0),
    # --- Remaining CUDA-SDK ---
    ("matrixMul",     "LA", "cuda-sdk",  _mm(192),                   False, 0.25),
    ("transpose",     "LA", "cuda-sdk",  _stream(2048, inputs=1),    False, 1.0),
    ("scan",          "LA", "cuda-sdk",  _reduce(4096),              False, 1.0),
    ("fastWalsh",     "LA", "cuda-sdk",  _bitonic(2048, stages=3),   False, 1.0),
    ("binomialOptions", "PS", "cuda-sdk", _compute(1536, iters=16),  False, 0.5),
    ("MonteCarloCUDA", "PS", "cuda-sdk", _compute(2048, iters=12, nbuffers=3), False, 1.0),
    ("quasirandom",   "PS", "cuda-sdk",  _compute(2048, iters=8),    False, 0.5),
    ("eigenvalues",   "LA", "cuda-sdk",  _compute(1024, iters=20, nbuffers=3), False, 0.5),
    ("radixSort",     "PS", "cuda-sdk",  _scatter(2048),             False, 1.0),
    ("sortingNetworks", "PS", "cuda-sdk", _bitonic(2048, stages=4),  False, 1.0),
    ("convolutionTexture", "IM", "cuda-sdk", _stencil(2048, radius=2, src_space="texture"), False, 0.5),
    ("FDTD3d",        "PS", "cuda-sdk",  _stencil(2048, radius=3),   False, 4.0),
    ("dxtc-hq",       "IM", "cuda-sdk",  _multi(1536, 5, rounds=2),  False, 0.5),
    ("interval",      "PS", "cuda-sdk",  _compute(1024, iters=16),   False, 0.25),
    ("BlackScholesSDK", "PS", "cuda-sdk", _compute(2048, iters=10, nbuffers=3), False, 1.5),
    ("dwtHaar1D",     "IM", "cuda-sdk",  _stencil(2048, radius=1),   False, 0.25),
    ("histogram256",  "IM", "cuda-sdk",  _scatter(2048),             False, 0.5),
    ("reduction-sdk", "LA", "cuda-sdk",  _reduce(4096),              False, 1.0),
    ("scalarProd-sdk", "LA", "cuda-sdk", _multi(2048, 6, rounds=2),  False, 0.5),
    ("vectorAddDrv",  "LA", "cuda-sdk",  _stream(2048, inputs=2),    False, 0.5),
    ("clock",         "PS", "cuda-sdk",  _compute(512, iters=8),     False, 0.1),
    ("simpleTexture", "IM", "cuda-sdk",  _stencil(2048, radius=1, src_space="texture"), False, 0.5),
    ("convolutionFFT", "IM", "cuda-sdk", _stencil(2048, radius=4),   False, 1.0),
]

# ---------------------------------------------------------------------------
# OpenCL registry (Intel architecture; Figure 16's 17 benchmarks)
# ---------------------------------------------------------------------------

_OPENCL_SPECS = [
    ("backprop",      _stream(1024, inputs=3, wg=_WGI)),
    ("bfs",           _bfs(512, degree=2, wg=_WGI)),
    ("BitonicSort",   _bitonic(1024, stages=3, wg=_WGI)),
    ("GEMM",          _mm(128, tile=8, wg=_WGI)),
    ("image",         _stencil(1024, radius=2, wg=_WGI)),
    ("lavaMD",        _local(512, words=8, wg=_WGI)),
    ("MedianFilter",  _stencil(1024, radius=2, wg=_WGI)),
    ("MonteCarlo",    _compute(1024, iters=12, wg=_WGI)),
    ("pathfinder",    _stencil(1024, radius=1, wg=_WGI)),
    ("svm",           _stream(1024, inputs=3, flops=8, wg=_WGI)),
    ("cfd",           _stream(768, inputs=4, flops=8, wg=_WGI)),
    ("hotspot",       _stencil(1024, radius=1, wg=_WGI)),
    ("hotspot3D",     _stencil(1024, radius=3, wg=_WGI)),
    ("hybridsort",    _bitonic(1024, stages=4, wg=_WGI)),
    ("kmeans",        _kmeans(1024, 4, wg=_WGI)),
    ("nn",            _multi(1024, 3, rounds=3, wg=_WGI)),
    ("streamcluster", _sc_mix(1024, launches=10, wg=_WGI)),
]


def _finalize(specs, opencl=False) -> Dict[str, BenchmarkDef]:
    registry: Dict[str, BenchmarkDef] = {}
    for spec in specs:
        if opencl:
            name, factory = spec
            category, source, sensitive, decl = "OCL", "opencl", False, 1.0
        else:
            name, category, source, factory, sensitive, decl = spec

        def named_factory(scale, _f=factory, _name=name):
            workload = _f(scale)
            workload.name = _name
            for run in workload.runs:
                run.kernel.name = f"{_name}:{run.kernel.name or 'kernel'}"
            return workload

        registry[name] = BenchmarkDef(
            name=name, category=category, source=source,
            factory=named_factory, rcache_sensitive=sensitive,
            decl_mb=decl)
    return registry


CUDA_BENCHMARKS: Dict[str, BenchmarkDef] = _finalize(_CUDA_SPECS)
OPENCL_BENCHMARKS: Dict[str, BenchmarkDef] = _finalize(_OPENCL_SPECS,
                                                       opencl=True)

#: Figure 15's RCache-sensitive set (Nvidia).
RCACHE_SENSITIVE: List[str] = [
    name for name, b in CUDA_BENCHMARKS.items() if b.rcache_sensitive]

#: Figure 19's Rodinia subset.
RODINIA_FIG19: List[str] = [
    "bfs", "gaussian", "heartwall", "hotspot", "kmeans", "lavaMD",
    "lud", "particlefilter", "streamcluster",
]

#: Figure 18's seven OpenCL benchmarks, paired in all 21 combinations.
MULTIKERNEL_SET: List[str] = [
    "bfs", "cfd", "hotspot3D", "hybridsort", "kmeans", "nn",
    "streamcluster",
]


def get_benchmark(name: str, opencl: bool = False) -> BenchmarkDef:
    """Look up a benchmark by paper name."""
    registry = OPENCL_BENCHMARKS if opencl else CUDA_BENCHMARKS
    try:
        return registry[name]
    except KeyError:
        raise KeyError(f"unknown {'OpenCL' if opencl else 'CUDA'} "
                       f"benchmark {name!r}") from None
