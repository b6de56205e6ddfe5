"""Shared fixtures for the paper-artefact regenerators.

Each ``bench_fig*.py``/``bench_table3_*.py`` regenerates one entry of
:data:`repro.analysis.figures.ARTIFACTS` through ``regenerate``, which
writes exactly the record ``python -m repro bench --jobs 0`` writes
(the table's text, data and metrics) under ``benchmarks/results/``,
then asserts the paper's qualitative claims on that data.  The
``bench_ablation_*.py`` studies are not paper artefacts; they write
their own records through ``publish``, in the same envelope.  Host time
is not recorded: ``bench/`` measures it in fresh processes.

Scale knobs (environment):

* ``REPRO_SCALE``   — workload size multiplier (default 1.0);
* ``REPRO_SUBSET``  — if set to N, sweeps use only their first N items
  (benchmarks, or Figure 18 pairs); useful for smoke runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.bench import (default_record_config, publish_artifact,
                                  write_result_record)
from repro.analysis.figures import ARTIFACTS

RESULTS_DIR = Path(__file__).parent / "results"


def _write(name: str, write) -> None:
    try:
        write()
    except ValueError as exc:
        # The clobber guard: an on-disk record carries a newer schema
        # than this tree writes.  Fail the bench loudly instead of
        # littering results/ with a partial downgrade.
        pytest.fail(f"stale result-record writer for {name!r}: {exc}")


@pytest.fixture
def regenerate():
    """Regenerate one paper artefact, publish its record, return it."""

    def _regenerate(name: str) -> dict:
        limit = os.environ.get("REPRO_SUBSET")
        subset = int(limit) if limit else None
        final = ARTIFACTS[name].run(subset)
        _write(name, lambda: publish_artifact(
            str(RESULTS_DIR), name, final, subset=subset, seed=11, jobs=0))
        print()
        print(final["text"])
        return final

    return _regenerate


@pytest.fixture
def publish():
    """Persist an ablation's rendered text as text + a JSON record."""

    def _publish(name: str, text: str, data=None, metrics=None):
        _write(name, lambda: write_result_record(
            str(RESULTS_DIR), name, text, data=data,
            config=default_record_config(), metrics=metrics))
        print()
        print(text)

    return _publish
