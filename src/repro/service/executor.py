"""Placement execution: the plan's entries onto warm pooled devices.

Each :class:`~repro.service.scheduler.Placement` is executed in
isolation: acquire a warm device for the service fingerprint, reset to
a seed derived from (service seed, placement index), materialise every
request's fuzz workload under the owning tenant's buffer namespace,
run — co-resident requests as a §6.2 ``inter_core`` pair — then drain,
attribute, digest, and release the device.  Because placements never
share mutable state, a shard of them produces bit-identical results in
any process, which is what lets the simulator fan placements out over
the parallel runner (kind ``service.shard``).

Attribution plumbing: each prepared launch contributes

* ``kernel_id -> request``  (launch identity; co-resident kernels share
  one drained violation stream and are told apart by this), and
* ``(kernel_id, region id) -> namespaced buffer``  (region IDs
  decrypted from the launch's tagged pointers, exactly the ground-truth
  capture the fuzz :class:`~repro.fuzz.generator.ShieldMutator` does),

so every :class:`~repro.core.violations.ViolationRecord` resolves to a
(tenant, request, buffer) triple.  A forged-ID attack decrypts to
garbage by design — its buffer stays unresolved ("") but the kernel ID
still pins the attacking request.

Device failures heal by reset: any exception while materialising or
running a placement resets the device to the placement seed and retries
once.  Reset is bit-identical to fresh construction, so a retried
placement returns exactly what an undisturbed one would — failures cost
a ``device_reset`` audit event, never determinism.  The simulator can
also inject deterministic failures (``fail_every``) to exercise this
path under load.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import hashlib

from repro.core.pointer import PointerType, decode
from repro.core.shield import ShieldConfig
from repro.device import acquire_device, release_device
from repro.device import memo as warm_memo
from repro.fuzz.generator import ShieldMutator, build_workload
from repro.gpu.config import GPUConfig, nvidia_config
from repro.runner.job import JobContext, JobSpec
from repro.runner.shard import plan_slice_jobs
from repro.service.scheduler import Placement
from repro.service.tenant import buffer_namespace
from repro.service.traffic import ServiceRequest

SERVICE_KIND = "service.shard"

#: Per-shard wall-clock cap (a wedged placement is killed and retried).
DEFAULT_SHARD_TIMEOUT = 900.0

#: Shader-core count of the service device: co-resident ``inter_core``
#: pairs need at least two cores to split.
SERVICE_NUM_CORES = 2


def service_shield() -> ShieldConfig:
    """The shield every serving device runs: the fuzz campaign's
    default-on configuration, so detection semantics match PR 2."""
    return ShieldConfig(enabled=True)


def service_gpu(num_cores: int = SERVICE_NUM_CORES) -> GPUConfig:
    return nvidia_config(num_cores=num_cores)


def placement_seed(service_seed: int, index: int) -> int:
    """The device seed for one placement: derived, never wall-clock."""
    return ((service_seed * 0x9E3779B1) ^ (index * 0x85EBCA6B)) & 0x7FFFFFFF


@dataclass
class _Prepared:
    """One request materialised on a device, launches ready to run."""

    request: ServiceRequest
    buffers: Dict[str, object]          # plain name -> Buffer
    launches: List[object]              # LaunchContext, in run order
    mutator: ShieldMutator


def _prepare_request(device, request: ServiceRequest) -> _Prepared:
    """Allocate, initialise and launch-prepare one request.

    Buffer *contents* are seeded from the case alone (never from the
    device seed or allocation layout), so a request's data trajectory —
    and therefore its buffer digests — is identical whether it runs
    alone or co-resident with another tenant.
    """
    from repro.analysis.harness import _generate_init

    case = request.case
    workload = build_workload(case)
    driver = device.driver
    buffers: Dict[str, object] = {}
    for i, spec in enumerate(workload.buffers):
        buf = driver.allocator.malloc(
            spec.nbytes, name=buffer_namespace(request.tenant_id, spec.name),
            region="global", read_only=False)
        n_words = spec.nbytes // 4
        init_seed = (case.seed & 0xFFFF) * 1009 + i
        data = warm_memo.init_payload(
            spec.init, n_words, init_seed,
            lambda s=spec, n=n_words, sd=init_seed: _generate_init(
                s.init, n, sd))
        driver.write(buf, data)
        buffers[spec.name] = buf

    mutator = ShieldMutator(case)
    shim = SimpleNamespace(session=SimpleNamespace(driver=driver),
                           buffers=buffers, device=device)
    launches: List[object] = []
    for run in workload.runs:
        args = {}
        for pname, (kind, value) in run.args.items():
            if kind == "buf":
                args[pname] = buffers[value]
            elif kind == "sizeof":
                args[pname] = buffers[value].size
            elif kind == "delta":
                src, dst, extra = value
                args[pname] = buffers[dst].va - buffers[src].va + extra
            elif kind == "heap_off":
                args[pname] = driver.heap.limit + value
            else:
                args[pname] = value
        # The mutator's launch index is per *request* (stale-replay
        # captures at index 0, replays at index 1), matching the fuzz
        # harness's per-workload numbering.
        launch = driver.launch(run.kernel, args, run.workgroups,
                               run.wg_size)
        mutator(shim, launch, len(launches))
        launches.append(launch)
    return _Prepared(request=request, buffers=buffers, launches=launches,
                     mutator=mutator)


def _region_ids(device, prep: _Prepared) -> Dict[Tuple[int, int], str]:
    """(kernel_id, region id) -> namespaced buffer, per launch."""
    out: Dict[Tuple[int, int], str] = {}
    tenant = prep.request.tenant_id
    case = prep.request.case
    for launch in prep.launches:
        security = getattr(launch, "security", None)
        if security is None:
            continue
        kid = launch.kernel_id
        for name in case.buffer_names:
            tp = decode(launch.arg_values[name])
            if tp.ptype is PointerType.BASE:
                out[(kid, security.cipher.decrypt(tp.payload))] = \
                    buffer_namespace(tenant, name)
        for lname in launch.local_buffers:
            value = launch.arg_values.get(lname)
            if value is None:
                continue
            lp = decode(value)
            if lp.ptype is PointerType.BASE:
                out[(kid, security.cipher.decrypt(lp.payload))] = \
                    buffer_namespace(tenant, lname)
        if case.kind == "heap":
            hp = decode(launch.heap_pointer_tagger(device.driver.heap.base))
            if hp.ptype is PointerType.BASE:
                out[(kid, security.cipher.decrypt(hp.payload))] = \
                    buffer_namespace(tenant, "__heap")
    return out


def _buffer_digests(device, prep: _Prepared) -> Dict[str, str]:
    """Content digests of every buffer (plain names, layout-free)."""
    nbytes = prep.request.case.nbytes
    return {name: hashlib.sha256(
                device.driver.read(buf, nbytes)).hexdigest()[:16]
            for name, buf in prep.buffers.items()}


def _run_placement(device, wire: dict) -> List[dict]:
    """Materialise and execute one placement on a quiesced device."""
    requests = [ServiceRequest.from_dict(r) for r in wire["requests"]]
    prepared = [_prepare_request(device, request) for request in requests]

    # Pre-launches (the stale-replay capture launch) run solo first, in
    # request order; the final launch of each request forms the
    # co-resident pair (or runs solo for single placements).
    entry_owners: List[List[int]] = []
    for pos, prep in enumerate(prepared):
        for launch in prep.launches[:-1]:
            device.submit_prepared(launch)
            entry_owners.append([pos])
    finals = [prep.launches[-1] for prep in prepared]
    if len(finals) >= 2 and wire["mode"] != "single":
        device.submit_pair(finals, wire["mode"])
        entry_owners.append(list(range(len(prepared))))
    else:
        for pos, launch in enumerate(finals):
            device.submit_prepared(launch)
            entry_owners.append([pos])
    drained = device.drain()

    kernel_owner = {launch.kernel_id: pos
                    for pos, prep in enumerate(prepared)
                    for launch in prep.launches}
    region_map: Dict[Tuple[int, int], str] = {}
    for prep in prepared:
        region_map.update(_region_ids(device, prep))

    cycles = [0] * len(prepared)
    aborted = [False] * len(prepared)
    violations: List[List[dict]] = [[] for _ in prepared]
    for (result, records), owners in zip(drained, entry_owners):
        for pos in owners:
            cycles[pos] += result.cycles
            aborted[pos] = aborted[pos] or result.aborted
        for record in records:
            pos = kernel_owner.get(record.kernel_id)
            if pos is None:
                raise RuntimeError(
                    f"violation from unknown kernel {record.kernel_id}: "
                    f"stale records leaked into this placement")
            prep = prepared[pos]
            violations[pos].append({
                "tenant": prep.request.tenant_id,
                "request_id": prep.request.request_id,
                "buffer": region_map.get(
                    (record.kernel_id, record.buffer_id), ""),
                "kernel_id": record.kernel_id,
                "buffer_id": record.buffer_id,
                "lo": record.lo,
                "hi": record.hi,
                "is_store": record.is_store,
                "reason": record.reason,
                "cycle": record.cycle,
            })

    return [{
        "request_id": prep.request.request_id,
        "tenant": prep.request.tenant_id,
        "cycles": cycles[pos],
        "aborted": aborted[pos],
        "violations": violations[pos],
        "digests": _buffer_digests(device, prep),
    } for pos, prep in enumerate(prepared)]


def execute_placement(placement, *, seed: int,
                      num_cores: int = SERVICE_NUM_CORES,
                      fail_every: int = 0,
                      config: Optional[GPUConfig] = None,
                      shield: Optional[ShieldConfig] = None) -> dict:
    """Execute one placement end to end; returns its wire-form result.

    ``fail_every=N`` injects a simulated device failure on every Nth
    placement (by index — deterministic across sharding), exercising
    the reset-recovery path; real exceptions take the same path with
    one retry.
    """
    wire = placement if isinstance(placement, dict) else placement.to_dict()
    index = int(wire["index"])
    cfg = config or service_gpu(num_cores)
    shield_cfg = shield if shield is not None else service_shield()
    seed_for = placement_seed(seed, index)
    device = acquire_device(cfg, shield_cfg, seed=seed_for)
    resets = 0
    try:
        if fail_every and (index + 1) % fail_every == 0:
            # Injected fault, discovered before the placement runs: the
            # device is reset and the run proceeds on the healed device.
            device.reset(seed_for)
            resets += 1
        try:
            entries = _run_placement(device, wire)
        except Exception:
            device.reset(seed_for)
            resets += 1
            entries = _run_placement(device, wire)
        return {"index": index, "resets": resets, "entries": entries}
    finally:
        release_device(device)


# ---------------------------------------------------------------------------
# The runner kind: placements sharded across worker processes
# ---------------------------------------------------------------------------


def plan_service_shards(placements: Sequence[Placement], *, seed: int,
                        jobs: int, shards: Optional[int] = None,
                        num_cores: int = SERVICE_NUM_CORES,
                        fail_every: int = 0,
                        timeout: float = DEFAULT_SHARD_TIMEOUT,
                        max_retries: int = 1) -> List[JobSpec]:
    """Cut the plan into contiguous, self-contained shard jobs."""
    return plan_slice_jobs(
        [p.to_dict() for p in placements], kind=SERVICE_KIND,
        prefix="service", seed=seed, jobs=jobs, shards=shards,
        key="placements",
        payload={"num_cores": num_cores, "fail_every": fail_every},
        timeout=timeout, max_retries=max_retries)


def execute_placements(placements: Sequence, *, seed: int,
                       num_cores: int, fail_every: int,
                       stats) -> List[dict]:
    """Execute placements in order, counted under ``service.exec``."""
    results = [execute_placement(p, seed=seed, num_cores=num_cores,
                                 fail_every=fail_every)
               for p in placements]
    counters = stats.counters("service.exec")
    counters["placements"] = len(results)
    counters["resets"] = sum(r["resets"] for r in results)
    counters["violations"] = sum(len(e["violations"])
                                 for r in results for e in r["entries"])
    return results


def run_service_shard(payload: dict, ctx: JobContext) -> dict:
    """Worker entrypoint (kind ``service.shard``): one plan slice."""
    results = execute_placements(
        payload["placements"], seed=ctx.spec.seed,
        num_cores=int(payload["num_cores"]),
        fail_every=int(payload["fail_every"]), stats=ctx.stats)
    return {"index_base": payload["index_base"], "placements": results}
