"""Shared helpers for the figure/table regeneration benchmarks.

Every bench regenerates one table or figure of the paper, prints the
rows/series, and persists a machine-readable record under
``benchmarks/results/`` (via :func:`repro.analysis.bench.
write_result_record`), the same envelope ``python -m repro bench``
writes, so EXPERIMENTS.md numbers can be traced to a run.

Scale knobs (environment):

* ``REPRO_SCALE``   — workload size multiplier (default 1.0);
* ``REPRO_SUBSET``  — if set to N, large sweeps use only the first N
  benchmarks (useful for smoke runs).

When the ``pytest-benchmark`` plugin is unavailable the ``benchmark``
fixture below stands in: it runs the callable once, records wall-clock
seconds (surfaced in each record's metrics), and returns the result —
same call/``pedantic`` surface, no extra dependency.
"""

from __future__ import annotations

import importlib.util
import os
import time
from pathlib import Path

import pytest

from repro.analysis.bench import default_record_config, write_result_record

RESULTS_DIR = Path(__file__).parent / "results"

HAVE_PYTEST_BENCHMARK = (
    importlib.util.find_spec("pytest_benchmark") is not None)


def subset(names):
    limit = os.environ.get("REPRO_SUBSET")
    if limit:
        return list(names)[: int(limit)]
    return list(names)


class _Timing:
    """Per-test wall-clock shared between ``benchmark`` and ``publish``."""

    def __init__(self):
        self.wall_seconds = None


@pytest.fixture
def _timing():
    return _Timing()


class _FallbackBenchmark:
    """Single-shot stand-in for the pytest-benchmark fixture."""

    def __init__(self, timing: _Timing):
        self._timing = timing

    def __call__(self, fn, *args, **kwargs):
        return self.pedantic(fn, args=args, kwargs=kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        started = time.perf_counter()
        result = fn(*args, **(kwargs or {}))
        self._timing.wall_seconds = time.perf_counter() - started
        return result


if not HAVE_PYTEST_BENCHMARK:

    @pytest.fixture
    def benchmark(_timing):
        return _FallbackBenchmark(_timing)


@pytest.fixture
def publish(_timing):
    """Persist a rendered figure as text + a JSON result record."""

    def _publish(name: str, text: str, data=None, metrics=None,
                 config=None):
        record_config = default_record_config()
        record_config.update(config or {})
        record_metrics = dict(metrics or {})
        if _timing.wall_seconds is not None:
            record_metrics.setdefault(
                "wall_seconds", round(_timing.wall_seconds, 3))
        try:
            write_result_record(str(RESULTS_DIR), name, text, data=data,
                                config=record_config,
                                metrics=record_metrics)
        except ValueError as exc:
            # The clobber guard: an on-disk record carries a newer
            # schema than this tree writes.  Fail the bench loudly
            # instead of littering results/ with a partial downgrade.
            pytest.fail(f"stale result-record writer for {name!r}: "
                        f"{exc}")
        print()
        print(text)

    return _publish
