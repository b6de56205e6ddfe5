"""Execution-engine selection: the reference path vs. the fast lane.

The simulator ships two implementations of its hot path (coalesce ->
translate -> cache -> check -> commit, plus the functional executor):

* ``"slow"`` — the reference classes (:mod:`repro.gpu.pipeline`,
  :mod:`repro.gpu.cache`, :mod:`repro.core.bcu`, ...), written for
  clarity: one frozen dataclass per stage outcome, OrderedDict-backed
  set-associative structures.
* ``"fast"`` — the flat pre-bound structures of
  :mod:`repro.gpu.fastpath`: dict-per-set caches and TLBs probed
  inline, a reusable scratch :class:`~repro.gpu.pipeline.AccessResult`,
  memoized pointer decode, batched lane load/store loops, and a
  compiled executor.  The fast BCU keeps the reference RCaches.

Both engines are **bit-identical** in every observable: cycle counts,
stats counters, functional memory contents, violation records.  The
contract is enforced by ``python -m repro bench --compare-engines`` and
``tests/test_fastpath.py``; anything that cannot be made bit-identical
does not belong in the fast lane.

Selection is layered:

* the process default comes from ``REPRO_ENGINE`` (``fast`` when unset);
* :func:`set_engine` overrides it programmatically (the differential
  drivers flip it per leg; runner workers fork after the flip, so the
  whole worker pool inherits the selected engine);
* a :class:`~repro.gpu.config.GPUConfig` may pin ``engine`` explicitly,
  which beats the global default for that GPU instance.

:class:`~repro.gpu.gpu.GPU` resolves the name once, at construction:
it picks the pipeline class (whose ``cache_cls``/``tlb_cls`` also build
the shared L2 cache and L2 TLB), the executor class, and the BCU via
:meth:`~repro.core.shield.GPUShield.make_bcu`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

ENGINES = ("slow", "fast")
DEFAULT_ENGINE = "fast"

_current = os.environ.get("REPRO_ENGINE", "") or DEFAULT_ENGINE
if _current not in ENGINES:
    raise ValueError(
        f"REPRO_ENGINE={_current!r} is not one of {ENGINES}")


def current_engine() -> str:
    """The engine newly constructed GPUs use unless their config pins one."""
    return _current


def set_engine(name: str) -> str:
    """Set the process-wide default engine; returns the previous one."""
    global _current
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r} (have {ENGINES})")
    previous = _current
    _current = name
    # Keep forked/spawned helpers (runner workers) on the same engine.
    os.environ["REPRO_ENGINE"] = name
    return previous


def resolve(name: str = "") -> str:
    """Map a config's ``engine`` field ('' = global default) to an engine."""
    if not name:
        return _current
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r} (have {ENGINES})")
    return name


@contextmanager
def engine(name: str):
    """Temporarily switch the process default (differential tests)."""
    previous = set_engine(name)
    try:
        yield
    finally:
        set_engine(previous)
