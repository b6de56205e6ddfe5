"""Parametric kernel templates.

Each template builds a :class:`Workload`: buffers, one or more kernel
launches, and metadata.  Templates span the behaviour axes the paper's
figures depend on:

* **affine** access (streaming, stencil, tiled matmul, kmeans-swap) —
  statically provable, so GPUShield's compiler filters their checks;
* **indirect** access (gather, scatter, SpMV, BFS, histogram) — the graph
  workloads whose checks must stay at runtime (Figure 17's tail);
* **buffer-count** pressure (multi-buffer streaming) — drives L1 RCache
  hit rates (Figures 15/16);
* **shared-memory + barrier** phases (reduction, matmul) and **local
  memory** arrays (lavaMD-style) — the other protected regions;
* **launch-count** pressure (streamcluster-style outer repeats) — what
  makes per-launch tools (GMOD/clArmor) expensive in Figure 19.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.isa.builder import KernelBuilder
from repro.isa.program import Kernel

# ('buf', name) | ('sizeof', name) | ('scalar', v)
# | ('delta', (src, dst, extra))   -> dst.va - src.va + extra  (resolved
#   against the runner's actual allocations — cross-buffer strides)
# | ('heap_off', extra)            -> heap.limit + extra
ArgSpec = Union[Tuple[str, str], Tuple[str, int],
                Tuple[str, Tuple[str, str, int]]]


@dataclass(frozen=True)
class BufferSpec:
    """One device buffer a workload needs.

    ``init`` selects host-side initialisation:

    * ``zero`` — all zeroes;
    * ``iota`` — int32 0,1,2,...;
    * ``randf`` — deterministic pseudo-random f32 in [0, 1);
    * ``index:<target>:<limit>`` — int32 indices uniform in [0, limit)
      (valid element indices into buffer ``target``);
    * ``csr_rows:<degree>`` — monotone row offsets with ~degree step.
    """

    name: str
    nbytes: int
    init: str = "zero"
    read_only: bool = False
    region: str = "global"   # global | constant | texture


@dataclass(frozen=True)
class KernelRun:
    """One kernel launch inside a workload iteration."""

    kernel: Kernel
    args: Dict[str, ArgSpec]
    workgroups: int
    wg_size: int


@dataclass
class Workload:
    """A runnable benchmark instance."""

    name: str
    buffers: List[BufferSpec]
    runs: List[KernelRun]
    repeats: int = 1            # outer kernel-invocation loop (streamcluster!)
    category: str = ""
    suite: str = ""
    notes: str = ""

    @property
    def num_buffers(self) -> int:
        return len(self.buffers)


def _buf(name: str) -> ArgSpec:
    return ("buf", name)


def _scalar(value: int) -> ArgSpec:
    return ("scalar", value)


def _delta(src: str, dst: str, extra: int = 0) -> ArgSpec:
    """Byte distance from ``src``'s base to ``dst``'s base plus ``extra``."""
    return ("delta", (src, dst, extra))


def _heap_off(extra: int) -> ArgSpec:
    """Byte offset relative to the device heap base: ``heap.limit + extra``
    escapes the heap region by ``extra`` bytes."""
    return ("heap_off", extra)


# ---------------------------------------------------------------------------
# Affine templates (statically provable)
# ---------------------------------------------------------------------------


def streaming(name: str, *, n: int, wg_size: int, inputs: int = 2,
              flops: int = 4, guard: bool = True, elem_mb: float = 0.0,
              work: int = 1, repeats: int = 1) -> Workload:
    """``out[i] = f(in0[i], in1[i], ...)`` — vector add and friends.

    ``elem_mb`` inflates the *declared* buffer size (for the Figure 11
    page-count characterisation) while only ``n`` elements are touched;
    ``work`` iterates the body per thread (time-stepped kernels).
    """
    declared = max(n * 4, int(elem_mb * (1 << 20)))
    b = KernelBuilder(name)
    ins = [b.arg_ptr(f"in{i}", read_only=True) for i in range(inputs)]
    out = b.arg_ptr("out")
    nn = b.arg_scalar("n")
    gtid = b.gtid()
    pred = b.setp("lt", gtid, nn)

    def body():
        acc = b.ld_idx(ins[0], gtid, dtype="f32")
        for ptr in ins[1:]:
            acc = b.fadd(acc, b.ld_idx(ptr, gtid, dtype="f32"))
        for _ in range(flops):
            acc = b.fmad(acc, 1.0009765625, 0.5)
        b.st_idx(out, gtid, acc, dtype="f32")

    def iterated():
        if work > 1:
            with b.loop(work):
                body()
        else:
            body()

    if guard:
        with b.if_(pred):
            iterated()
    else:
        iterated()
    kernel = b.build()

    buffers = [BufferSpec(f"in{i}", declared, "randf", read_only=True)
               for i in range(inputs)]
    buffers.append(BufferSpec("out", declared, "zero"))
    args: Dict[str, ArgSpec] = {f"in{i}": _buf(f"in{i}") for i in range(inputs)}
    args["out"] = _buf("out")
    args["n"] = _scalar(n)
    return Workload(name=name, buffers=buffers, repeats=repeats,
                    runs=[KernelRun(kernel, args,
                                    workgroups=-(-n // wg_size),
                                    wg_size=wg_size)])


def stencil1d(name: str, *, n: int, wg_size: int, radius: int = 1,
              elem_mb: float = 0.0, work: int = 1, repeats: int = 1,
              src_space: str = "global") -> Workload:
    """1D stencil with clamped neighbours — min/max keep it provable.

    ``src_space="texture"`` reads the source through the texture path
    (read-only texture cache), like the SDK's convolutionTexture.
    """
    declared = max(n * 4, int(elem_mb * (1 << 20)))
    b = KernelBuilder(name)
    src = b.arg_ptr("src", read_only=True)
    dst = b.arg_ptr("dst")
    nn = b.arg_scalar("n")
    gtid = b.gtid()
    pred = b.setp("lt", gtid, nn)
    last = b.sub(nn, 1)

    def body():
        acc = b.ld_idx(src, gtid, dtype="f32", space=src_space)
        for d in range(1, radius + 1):
            left = b.max_(b.sub(gtid, d), 0)
            right = b.min_(b.add(gtid, d), last)
            acc = b.fadd(acc, b.ld_idx(src, left, dtype="f32",
                                       space=src_space))
            acc = b.fadd(acc, b.ld_idx(src, right, dtype="f32",
                                       space=src_space))
        acc = b.fmul(acc, 1.0 / (2 * radius + 1))
        b.st_idx(dst, gtid, acc, dtype="f32")

    with b.if_(pred):
        if work > 1:
            with b.loop(work):
                body()
        else:
            body()
    kernel = b.build()
    return Workload(
        name=name,
        buffers=[BufferSpec("src", declared, "randf", read_only=True,
                            region=("texture" if src_space == "texture"
                                    else "global")),
                 BufferSpec("dst", declared, "zero")],
        repeats=repeats,
        runs=[KernelRun(kernel,
                        {"src": _buf("src"), "dst": _buf("dst"),
                         "n": _scalar(n)},
                        workgroups=-(-n // wg_size), wg_size=wg_size)])


def kmeans_swap(name: str, *, npoints: int, nfeatures: int, wg_size: int,
                repeats: int = 1) -> Workload:
    """Figure 13's feature-layout swap: a double affine loop over scalars."""
    b = KernelBuilder(name)
    feat = b.arg_ptr("feat", read_only=True)
    feat_swap = b.arg_ptr("feat_swap")
    np_ = b.arg_scalar("npoints")
    nf = b.arg_scalar("nfeatures")
    tid = b.gtid()
    pred = b.setp("lt", tid, np_)
    with b.if_(pred):
        with b.loop(nf) as i:
            src_idx = b.mad(tid, nf, i)          # feat[tid*nfeatures+i]
            dst_idx = b.mad(i, np_, tid)         # feat_swap[i*npoints+tid]
            value = b.ld_idx(feat, src_idx, dtype="f32")
            b.st_idx(feat_swap, dst_idx, value, dtype="f32")
    kernel = b.build()
    nbytes = npoints * nfeatures * 4
    return Workload(
        name=name,
        buffers=[BufferSpec("feat", nbytes, "randf", read_only=True),
                 BufferSpec("feat_swap", nbytes, "zero")],
        repeats=repeats,
        runs=[KernelRun(kernel,
                        {"feat": _buf("feat"), "feat_swap": _buf("feat_swap"),
                         "npoints": _scalar(npoints),
                         "nfeatures": _scalar(nfeatures)},
                        workgroups=-(-npoints // wg_size), wg_size=wg_size)])


def matmul_tiled(name: str, *, dim: int, tile: int, wg_size: int,
                 repeats: int = 1) -> Workload:
    """Tiled dense matmul with a shared-memory staging phase + barriers."""
    b = KernelBuilder(name)
    a = b.arg_ptr("A", read_only=True)
    bm = b.arg_ptr("B", read_only=True)
    c = b.arg_ptr("C")
    n = b.arg_scalar("dim")
    tiles = b.arg_scalar("tiles")
    b.shared_mem(2 * wg_size * 4)
    tid = b.tid()
    row = b.gtid()                      # one output row per thread
    pred = b.setp("lt", row, n)
    acc = b.mov(0.0)
    with b.loop(tiles) as t:
        # Stage one tile strip of B into shared memory.
        col = b.mad(t, tile, b.mod(tid, tile))
        bval = b.ld_idx(bm, b.min_(col, b.sub(n, 1)), dtype="f32", pred=pred)
        b.st_shared(b.mul(tid, 4), bval, dtype="f32")
        b.bar()
        with b.loop(tile) as k:
            aidx = b.mad(row, n, b.mad(t, tile, k))
            av = b.ld_idx(a, b.min_(aidx, b.sub(b.mul(n, n), 1)),
                          dtype="f32", pred=pred)
            sv = b.ld_shared(b.mul(b.mod(b.add(k, tid), wg_size), 4),
                             dtype="f32")
            b.fmad(av, sv, acc, out=acc)
        b.bar()
    b.st_idx(c, row, acc, dtype="f32", pred=pred)
    kernel = b.build()
    ntiles = -(-dim // tile)
    return Workload(
        name=name,
        buffers=[BufferSpec("A", dim * dim * 4, "randf", read_only=True),
                 BufferSpec("B", dim * 4, "randf", read_only=True),
                 BufferSpec("C", dim * 4, "zero")],
        repeats=repeats,
        runs=[KernelRun(kernel,
                        {"A": _buf("A"), "B": _buf("B"), "C": _buf("C"),
                         "dim": _scalar(dim), "tiles": _scalar(ntiles)},
                        workgroups=-(-dim // wg_size), wg_size=wg_size)])


def reduction(name: str, *, n: int, wg_size: int,
              repeats: int = 1) -> Workload:
    """Shared-memory tree reduction with barriers at every level."""
    b = KernelBuilder(name)
    src = b.arg_ptr("src", read_only=True)
    dst = b.arg_ptr("dst")
    nn = b.arg_scalar("n")
    tid = b.tid()
    gtid = b.gtid()
    b.shared_mem(wg_size * 4)
    pred = b.setp("lt", gtid, nn)
    value = b.ld_idx(src, gtid, dtype="f32", pred=pred)
    value = b.sel(pred, value, 0.0)
    b.st_shared(b.mul(tid, 4), value, dtype="f32")
    b.bar()
    stride = wg_size // 2
    while stride >= 1:
        p = b.setp("lt", tid, stride)
        with b.if_(p):
            other = b.ld_shared(b.mul(b.add(tid, stride), 4), dtype="f32")
            mine = b.ld_shared(b.mul(tid, 4), dtype="f32")
            b.st_shared(b.mul(tid, 4), b.fadd(mine, other), dtype="f32")
        b.bar()
        stride //= 2
    p0 = b.setp("eq", tid, 0)
    with b.if_(p0):
        total = b.ld_shared(0, dtype="f32")
        b.st_idx(dst, b.ctaid(), total, dtype="f32")
    kernel = b.build()
    wgs = -(-n // wg_size)
    return Workload(
        name=name,
        buffers=[BufferSpec("src", n * 4, "randf", read_only=True),
                 BufferSpec("dst", max(wgs, 1) * 4, "zero")],
        repeats=repeats,
        runs=[KernelRun(kernel,
                        {"src": _buf("src"), "dst": _buf("dst"),
                         "n": _scalar(n)},
                        workgroups=wgs, wg_size=wg_size)])


def multi_buffer_stream(name: str, *, n: int, wg_size: int, nbuffers: int,
                        rounds: int = 2, repeats: int = 1) -> Workload:
    """Round-robin over many buffers — L1 RCache pressure knob (Fig. 15)."""
    b = KernelBuilder(name)
    ptrs = [b.arg_ptr(f"b{i}") for i in range(nbuffers)]
    nn = b.arg_scalar("n")
    gtid = b.gtid()
    pred = b.setp("lt", gtid, nn)
    with b.if_(pred):
        acc = b.mov(0.0)
        for _ in range(rounds):
            for ptr in ptrs:
                acc = b.fadd(acc, b.ld_idx(ptr, gtid, dtype="f32"))
        b.st_idx(ptrs[0], gtid, acc, dtype="f32")
    kernel = b.build()
    args: Dict[str, ArgSpec] = {f"b{i}": _buf(f"b{i}")
                                for i in range(nbuffers)}
    args["n"] = _scalar(n)
    return Workload(
        name=name,
        buffers=[BufferSpec(f"b{i}", n * 4, "randf")
                 for i in range(nbuffers)],
        repeats=repeats,
        runs=[KernelRun(kernel, args, workgroups=-(-n // wg_size),
                        wg_size=wg_size)])


# ---------------------------------------------------------------------------
# Indirect templates (defeat static analysis)
# ---------------------------------------------------------------------------


def gather(name: str, *, n: int, wg_size: int, data_len: int,
           levels: int = 1, repeats: int = 1,
           extra_buffers: int = 0) -> Workload:
    """``out[i] = data[idx[i]]`` (optionally chained) — graph-style."""
    b = KernelBuilder(name)
    idx = b.arg_ptr("idx", read_only=True)
    data = b.arg_ptr("data", read_only=True)
    out = b.arg_ptr("out")
    extras = [b.arg_ptr(f"aux{i}", read_only=True)
              for i in range(extra_buffers)]
    nn = b.arg_scalar("n")
    gtid = b.gtid()
    pred = b.setp("lt", gtid, nn)
    with b.if_(pred):
        j = b.ld_idx(idx, gtid, dtype="i32")
        value = b.ld_idx(data, j, dtype="f32")
        for _level in range(levels - 1):
            j = b.ld_idx(idx, b.mod(b.add(j, 1), nn), dtype="i32")
            value = b.fadd(value, b.ld_idx(data, j, dtype="f32"))
        for i, aux in enumerate(extras):
            value = b.fadd(value, b.ld_idx(aux, gtid, dtype="f32"))
        b.st_idx(out, gtid, value, dtype="f32")
    kernel = b.build()
    buffers = [
        BufferSpec("idx", n * 4, f"index:data:{data_len}", read_only=True),
        BufferSpec("data", data_len * 4, "randf", read_only=True),
        BufferSpec("out", n * 4, "zero"),
    ]
    buffers.extend(BufferSpec(f"aux{i}", n * 4, "randf", read_only=True)
                   for i in range(extra_buffers))
    args: Dict[str, ArgSpec] = {"idx": _buf("idx"), "data": _buf("data"),
                                "out": _buf("out"), "n": _scalar(n)}
    args.update({f"aux{i}": _buf(f"aux{i}") for i in range(extra_buffers)})
    return Workload(name=name, buffers=buffers, repeats=repeats,
                    runs=[KernelRun(kernel, args,
                                    workgroups=-(-n // wg_size),
                                    wg_size=wg_size)])


def scatter(name: str, *, n: int, wg_size: int, out_len: int,
            repeats: int = 1) -> Workload:
    """``out[idx[i]] = data[i]`` — histogram-like indirect stores."""
    b = KernelBuilder(name)
    idx = b.arg_ptr("idx", read_only=True)
    data = b.arg_ptr("data", read_only=True)
    out = b.arg_ptr("out")
    nn = b.arg_scalar("n")
    gtid = b.gtid()
    pred = b.setp("lt", gtid, nn)
    with b.if_(pred):
        j = b.ld_idx(idx, gtid, dtype="i32")
        value = b.ld_idx(data, gtid, dtype="f32")
        b.st_idx(out, j, value, dtype="f32")
    kernel = b.build()
    return Workload(
        name=name,
        buffers=[
            BufferSpec("idx", n * 4, f"index:out:{out_len}", read_only=True),
            BufferSpec("data", n * 4, "randf", read_only=True),
            BufferSpec("out", out_len * 4, "zero"),
        ],
        repeats=repeats,
        runs=[KernelRun(kernel,
                        {"idx": _buf("idx"), "data": _buf("data"),
                         "out": _buf("out"), "n": _scalar(n)},
                        workgroups=-(-n // wg_size), wg_size=wg_size)])


def spmv_csr(name: str, *, rows: int, degree: int, wg_size: int,
             affine_frac_buffers: int = 0, repeats: int = 1) -> Workload:
    """CSR sparse matrix-vector product: the canonical indirect loop.

    Row offsets load affinely; the inner loop's trip count and column
    indices come from memory — exactly the mix that gives graph kernels
    their partial static-filtering rates (Figure 17).
    """
    nnz = rows * degree
    b = KernelBuilder(name)
    offs = b.arg_ptr("row_offsets", read_only=True)
    cols = b.arg_ptr("col_idx", read_only=True)
    vals = b.arg_ptr("values", read_only=True)
    x = b.arg_ptr("x", read_only=True)
    y = b.arg_ptr("y")
    extras = [b.arg_ptr(f"meta{i}", read_only=True)
              for i in range(affine_frac_buffers)]
    nn = b.arg_scalar("rows")
    gtid = b.gtid()
    pred = b.setp("lt", gtid, nn)
    with b.if_(pred):
        start = b.ld_idx(offs, gtid, dtype="i32")            # affine
        end = b.ld_idx(offs, b.add(gtid, 1), dtype="i32")    # affine
        count = b.sub(end, start)
        acc = b.mov(0.0)
        with b.loop(count) as k:                             # data-dependent
            e = b.add(start, k)
            col = b.ld_idx(cols, e, dtype="i32")             # indirect
            v = b.ld_idx(vals, e, dtype="f32")               # indirect
            xv = b.ld_idx(x, col, dtype="f32")               # indirect
            b.fmad(v, xv, acc, out=acc)
        for aux in extras:
            acc = b.fadd(acc, b.ld_idx(aux, gtid, dtype="f32"))  # affine
        b.st_idx(y, gtid, acc, dtype="f32")                  # affine
    kernel = b.build()
    buffers = [
        BufferSpec("row_offsets", (rows + 1) * 4, f"csr_rows:{degree}",
                   read_only=True),
        BufferSpec("col_idx", nnz * 4, f"index:x:{rows}", read_only=True),
        BufferSpec("values", nnz * 4, "randf", read_only=True),
        BufferSpec("x", rows * 4, "randf", read_only=True),
        BufferSpec("y", rows * 4, "zero"),
    ]
    buffers.extend(BufferSpec(f"meta{i}", rows * 4, "randf", read_only=True)
                   for i in range(affine_frac_buffers))
    args: Dict[str, ArgSpec] = {
        "row_offsets": _buf("row_offsets"), "col_idx": _buf("col_idx"),
        "values": _buf("values"), "x": _buf("x"), "y": _buf("y"),
        "rows": _scalar(rows),
    }
    args.update({f"meta{i}": _buf(f"meta{i}")
                 for i in range(affine_frac_buffers)})
    return Workload(name=name, buffers=buffers, repeats=repeats,
                    runs=[KernelRun(kernel, args,
                                    workgroups=-(-rows // wg_size),
                                    wg_size=wg_size)])


def bfs_like(name: str, *, nodes: int, degree: int, wg_size: int,
             iterations: int = 2, repeats: int = 1) -> Workload:
    """Frontier-relaxation step, launched ``iterations`` times per repeat."""
    spmv = spmv_csr(name, rows=nodes, degree=degree, wg_size=wg_size)
    run = spmv.runs[0]
    return Workload(name=name, buffers=spmv.buffers,
                    runs=[run] * iterations, repeats=repeats)


def bitonic_step(name: str, *, n: int, wg_size: int, stages: int = 3,
                 repeats: int = 1) -> Workload:
    """Bitonic compare-exchange: XOR-partner indexing is statically opaque."""
    b = KernelBuilder(name)
    data = b.arg_ptr("data")
    nn = b.arg_scalar("n")
    gtid = b.gtid()
    pred = b.setp("lt", gtid, nn)
    with b.if_(pred):
        for s in range(stages):
            stride = 1 << s
            partner = b.xor(gtid, stride)     # xor -> Unknown interval
            inb = b.setp("lt", partner, nn)
            with b.if_(inb):
                mine = b.ld_idx(data, gtid, dtype="f32")
                theirs = b.ld_idx(data, partner, dtype="f32")
                lo = b.fmin(mine, theirs)
                hi = b.fmax(mine, theirs)
                up = b.setp("lt", gtid, partner)
                b.st_idx(data, gtid, b.sel(up, lo, hi), dtype="f32")
    kernel = b.build()
    return Workload(
        name=name,
        buffers=[BufferSpec("data", n * 4, "randf")],
        repeats=repeats,
        runs=[KernelRun(kernel, {"data": _buf("data"), "n": _scalar(n)},
                        workgroups=-(-n // wg_size), wg_size=wg_size)])


# ---------------------------------------------------------------------------
# Local memory / compute-heavy templates
# ---------------------------------------------------------------------------


def local_array(name: str, *, n: int, wg_size: int, words: int = 8,
                repeats: int = 1) -> Workload:
    """lavaMD-style: a per-thread local array written then reduced."""
    b = KernelBuilder(name)
    src = b.arg_ptr("src", read_only=True)
    dst = b.arg_ptr("dst")
    nn = b.arg_scalar("n")
    tmp = b.local_var("tmp", words_per_thread=words)
    gtid = b.gtid()
    pred = b.setp("lt", gtid, nn)
    with b.if_(pred):
        base = b.ld_idx(src, gtid, dtype="f32")
        with b.loop(words) as w:
            b.st_local(tmp, w, b.fmad(base, 0.5, w), dtype="f32")
        acc = b.mov(0.0)
        with b.loop(words) as w:
            acc = b.fadd(acc, b.ld_local(tmp, w, dtype="f32"))
        b.st_idx(dst, gtid, acc, dtype="f32")
    kernel = b.build()
    return Workload(
        name=name,
        buffers=[BufferSpec("src", n * 4, "randf", read_only=True),
                 BufferSpec("dst", n * 4, "zero")],
        repeats=repeats,
        runs=[KernelRun(kernel,
                        {"src": _buf("src"), "dst": _buf("dst"),
                         "n": _scalar(n)},
                        workgroups=-(-n // wg_size), wg_size=wg_size)])


def compute_heavy(name: str, *, n: int, wg_size: int, iters: int = 24,
                  nbuffers: int = 2, repeats: int = 1) -> Workload:
    """Monte-Carlo / transcendental-heavy kernel: few memory operations."""
    b = KernelBuilder(name)
    ptrs = [b.arg_ptr(f"b{i}") for i in range(nbuffers)]
    nn = b.arg_scalar("n")
    gtid = b.gtid()
    pred = b.setp("lt", gtid, nn)
    with b.if_(pred):
        x = b.ld_idx(ptrs[0], gtid, dtype="f32")
        with b.loop(iters):
            x = b.fsqrt(b.fadd(b.fmul(x, x), 0.25))
            x = b.fexp(b.fmul(x, -0.125))
        b.st_idx(ptrs[-1], gtid, x, dtype="f32")
    kernel = b.build()
    args: Dict[str, ArgSpec] = {f"b{i}": _buf(f"b{i}")
                                for i in range(nbuffers)}
    args["n"] = _scalar(n)
    return Workload(
        name=name,
        buffers=[BufferSpec(f"b{i}", n * 4, "randf")
                 for i in range(nbuffers)],
        repeats=repeats,
        runs=[KernelRun(kernel, args, workgroups=-(-n // wg_size),
                        wg_size=wg_size)])
