"""Warm-path memoization riding on the long-lived device layer.

Two content-addressed caches, both alive only while warm device reuse
is enabled (a cold run, ``warm_devices(False)``, sees none of this):

* the **cell memo** — the full :class:`~repro.analysis.results.RunRecord`
  of a plain ``run_workload`` cell, keyed by everything that determines
  it: the workload's content fingerprint, the device fingerprint
  (config, shield, resolved engine) and the seed.  The artifact suite
  re-runs identical cells across figures (Figure 17 and the Figure 19
  matrix re-measure Figure 14's base and default-shield cells); under
  the determinism contract those repeats are bit-identical by
  construction, so the warm path replays the record instead of
  re-simulating.  Only the hook-free, pad-free, mutator-free path
  memoizes — tool runners and attack harnesses always execute.
* the **init-bytes cache** — the NumPy-generated initial contents of a
  workload buffer, keyed by ``(init kind, word count, seed)``.  The
  bytes still get written into device memory every run (memory state is
  an observable); only the generation is reused.  It is bounded by the
  bytes it holds as well as by its entry count, least recently used
  first out, so a pass keeps the payloads it is using rather than every
  payload it has ever generated.  Eviction is invisible: the key fully
  determines the generator's output, so a regenerated payload is
  byte-identical, and a device that shares an evicted payload through
  its copy-on-write chunk views keeps its own reference alive.

Everything here is telemetry or replay of already-verified-identical
results: none of it feeds the stats registries that run digests are
built from.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Callable, Dict, Optional, Tuple

from repro.device.cache import device_fingerprint, warm_devices_enabled

#: Bounds on retained entries.  The cell memo evicts oldest-first
#: (plain dict insertion order) — the suite's working set is far
#: smaller; the init-bytes cache evicts least recently used first.
_CELL_LIMIT = 4096
_INIT_LIMIT = 1024
#: Bound on the payload bytes the init-bytes cache holds: 8 buffers at
#: the harness's 2 MiB per-buffer init cap.  That holds all seven of
#: Figure 18's OpenCL inputs (13 MiB, so that sweep regenerates nothing)
#: and one benchmark's full input set (CUDA bfs is exactly 8 payloads at
#: the cap), while a figure sweep drops each benchmark's inputs once it
#: has moved on.  A larger bound keeps payloads of benchmarks long done.
#: The entry bound still caps the many small payloads of a fuzz pass.
_INIT_BYTES_LIMIT = 16 << 20

_cells: Dict[Tuple, object] = {}
#: Insertion order is recency order: a hit moves its key to the end.
_init_bytes: Dict[Tuple, bytes] = {}
_stats: Dict[str, int] = {}


def _zeroed() -> Dict[str, int]:
    return {"cell_hits": 0, "cell_misses": 0,
            "init_hits": 0, "init_misses": 0,
            "init_evictions": 0, "init_bytes": 0}


_stats.update(_zeroed())


def workload_fingerprint(workload) -> str:
    """Content digest of a workload: buffers, kernels, launch geometry.

    Every constituent is a dataclass whose repr enumerates all fields
    (``Instr`` down to operands and access IDs), so equal fingerprints
    mean the workloads would drive a device identically.
    """
    blob = repr((workload.name, workload.repeats,
                 tuple(workload.buffers), tuple(workload.runs)))
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_key(workload, config, shield, seed: int) -> Tuple:
    return (workload_fingerprint(workload),
            device_fingerprint(config, shield), seed)


def cell_get(key: Tuple):
    """The memoized record for ``key`` (a fresh copy), or ``None``."""
    if not warm_devices_enabled():
        return None
    record = _cells.get(key)
    if record is None:
        _stats["cell_misses"] += 1
        return None
    _stats["cell_hits"] += 1
    return type(record)(**asdict(record))


def cell_put(key: Tuple, record) -> None:
    if not warm_devices_enabled():
        return
    if len(_cells) >= _CELL_LIMIT:
        _cells.pop(next(iter(_cells)))
    _cells[key] = type(record)(**asdict(record))


def init_payload(kind: str, n_words: int, seed: int,
                 build: Callable[[], bytes]) -> bytes:
    """The initial bytes for a buffer spec, generated on a cache miss."""
    if not warm_devices_enabled():
        return build()
    key = (kind, n_words, seed)
    data = _init_bytes.pop(key, None)
    if data is None:
        _stats["init_misses"] += 1
        data = build()
        if len(data) > _INIT_BYTES_LIMIT:
            return data
        held = _stats["init_bytes"] + len(data)
        while len(_init_bytes) >= _INIT_LIMIT or held > _INIT_BYTES_LIMIT:
            held -= len(_init_bytes.pop(next(iter(_init_bytes))))
            _stats["init_evictions"] += 1
        _stats["init_bytes"] = held
    else:
        _stats["init_hits"] += 1
    _init_bytes[key] = data
    return data


def warm_memo_stats() -> Dict[str, int]:
    """Hit/miss counters, ``init_evictions``, ``init_bytes`` (payload
    bytes the init-bytes cache holds now) and ``cells`` (memoized
    records)."""
    out = dict(_stats)
    out["cells"] = len(_cells)
    return out


def clear_warm_memo() -> None:
    """Drop both caches and zero the counters."""
    _cells.clear()
    _init_bytes.clear()
    _stats.clear()
    _stats.update(_zeroed())


def memoized_run(workload, config, shield, config_name: str, seed: int,
                 run: Callable[[], object],
                 key: Optional[Tuple] = None):
    """Run-or-replay one plain cell; ``run`` executes on a miss."""
    key = key or cell_key(workload, config, shield, seed)
    record = cell_get(key)
    if record is None:
        record = run()
        cell_put(key, record)
    else:
        record.config = config_name
    return record
