"""The job-kind registry: names -> worker entrypoints.

A :class:`~repro.runner.job.JobSpec` names its entrypoint by *kind*.  A
kind is either a short name registered here (the built-in campaign and
bench kinds register lazily on first resolve, keeping import cycles out
of the runner core) or an explicit ``"package.module:function"`` path —
what tests use to point jobs at their own helpers.

Entrypoint contract::

    def entrypoint(payload: dict, ctx: JobContext) -> dict

The return value must be JSON-serializable; counters bumped on
``ctx.stats`` are snapshotted and shipped back to the parent for
cross-process merging.  Entrypoints must be module-level functions so a
``spawn``-start child can re-import them.

The ``util.*`` kinds below are tiny, dependency-free entrypoints used by
the runner's own tests and smoke checks to exercise every failure path
(clean error, hard crash, hang).
"""

from __future__ import annotations

import importlib
import os
import signal
import time
from typing import Callable, Dict

from repro.runner.job import JobContext

Entrypoint = Callable[[dict, JobContext], dict]

_REGISTRY: Dict[str, Entrypoint] = {}

#: kind -> "module:function" for entrypoints that live outside the
#: runner package; resolved (and imported) on first use.
_LAZY: Dict[str, str] = {
    "fuzz.shard": "repro.fuzz.parallel:run_shard_job",
    "bench.artifact": "repro.analysis.bench:run_artifact_job",
    "oracle.diff": "repro.oracle.runner:oracle_diff_job",
    "sweep.shard": "repro.runner.sweep:run_sweep_shard",
}


def register(name: str, fn: Entrypoint) -> Entrypoint:
    """Register ``fn`` under ``name`` (replacing any previous binding)."""
    _REGISTRY[name] = fn
    return fn


def _import_path(path: str) -> Entrypoint:
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(f"bad entrypoint path {path!r} "
                         "(want 'package.module:function')")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ValueError(f"module {module_name!r} has no attribute {attr!r}")


def resolve(kind: str) -> Entrypoint:
    """Resolve a kind to its entrypoint, importing lazily as needed."""
    if kind in _REGISTRY:
        return _REGISTRY[kind]
    if kind in _LAZY:
        fn = _import_path(_LAZY[kind])
        _REGISTRY[kind] = fn
        return fn
    if ":" in kind:
        return _import_path(kind)
    raise ValueError(f"unknown job kind {kind!r} "
                     f"(registered: {sorted(set(_REGISTRY) | set(_LAZY))})")


# ---------------------------------------------------------------------------
# util.* — self-test entrypoints covering every failure mode
# ---------------------------------------------------------------------------


def _echo(payload: dict, ctx: JobContext) -> dict:
    """Return the payload back, tagged with the job's seed."""
    ctx.stats.counters("util.echo")["calls"] = 1
    return {"echo": payload.get("value"), "seed": ctx.spec.seed}


def _sleep(payload: dict, ctx: JobContext) -> dict:
    """Sleep ``seconds`` then succeed — the timeout test's hang."""
    time.sleep(float(payload.get("seconds", 0.0)))
    return {"slept": payload.get("seconds", 0.0)}


def _raise(payload: dict, ctx: JobContext) -> dict:
    """Fail cleanly with an exception the child can still report."""
    raise RuntimeError(payload.get("message", "injected failure"))


def _kill_self(payload: dict, ctx: JobContext) -> dict:
    """Die without a trace — SIGKILL mid-job, the crash-isolation test."""
    os.kill(os.getpid(), signal.SIGKILL)
    return {}   # unreachable


register("util.echo", _echo)
register("util.sleep", _sleep)
register("util.raise", _raise)
register("util.kill_self", _kill_self)
