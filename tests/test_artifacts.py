"""The paper-artefact table behind ``python -m repro``, ``bench`` and
``benchmarks/``: sharded runs, serial runs and the CLI must agree."""

import dataclasses
import json

import pytest

from repro.__main__ import run_artifact
from repro.analysis import bench, figures
from repro.analysis.harness import run_protection_matrix
from repro.workloads.suite import CUDA_BENCHMARKS, MULTIKERNEL_SET

#: fig11 and fig16 add nothing the others do not cover; fig19 at subset
#: 2 alone would take longer than all of these together.
SWEPT = ["fig1", "table3", "fig14", "fig15", "fig17", "fig18"]


def _records(results_dir, name):
    record = figures.ARTIFACTS[name].record
    with open(results_dir / f"{record}.json") as fh:
        data = json.load(fh)
    with open(results_dir / f"{record}.txt") as fh:
        return data, fh.read()


class TestShardedEqualsSerial:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        dirs = {}
        for jobs in (0, 2):
            dirs[jobs] = tmp_path_factory.mktemp(f"jobs{jobs}")
            bench.run_bench_suite(SWEPT, jobs=jobs, subset=2,
                                  results_dir=str(dirs[jobs]),
                                  reporter=lambda event, info: None)
        return dirs

    @pytest.mark.parametrize("name", SWEPT)
    def test_records_equal_apart_from_jobs(self, runs, name):
        serial, serial_text = _records(runs[0], name)
        sharded, sharded_text = _records(runs[2], name)
        assert (serial["config"]["jobs"], sharded["config"]["jobs"]) == (0, 2)
        del serial["config"]["jobs"], sharded["config"]["jobs"]
        assert serial == sharded
        assert serial_text == sharded_text

    @pytest.mark.parametrize("name", SWEPT)
    def test_text_equals_the_cli(self, runs, name):
        _record, text = _records(runs[2], name)
        assert text == run_artifact(name, 2) + "\n"


class TestArtifactTable:
    def test_names_and_records(self):
        assert list(figures.ARTIFACTS) == [
            "fig1", "fig11", "table3", "fig14", "fig15", "fig16",
            "fig17", "fig18", "fig19"]
        records = [a.record for a in figures.ARTIFACTS.values()]
        assert records == ["figure01", "figure11", "table03", "figure14",
                           "figure15", "figure16", "figure17", "figure18",
                           "figure19"]

    def test_subset_cuts_the_shard_items(self):
        a, b, c = MULTIKERNEL_SET[:3]
        assert figures.ARTIFACTS["fig18"].items(2) == [[a, b], [a, c]]
        assert figures.ARTIFACTS["fig14"].items() == list(
            CUDA_BENCHMARKS)
        assert figures.ARTIFACTS["table3"].items(2) == [None]

    def test_failed_slice_fails_the_artifact(self, monkeypatch):
        def boom(items, seed):
            raise RuntimeError("injected")

        broken = dataclasses.replace(figures.ARTIFACTS["table3"],
                                     compute=boom)
        monkeypatch.setitem(figures.ARTIFACTS, "table3", broken)
        with pytest.raises(RuntimeError,
                           match=r"1 bench table3 shard\(s\) failed "
                                 r"terminally: bench-table3-0000: error"):
            bench.run_artifacts(["table3"], jobs=0,
                                reporter=lambda event, info: None)


def test_protection_matrix_refuses_jobs():
    with pytest.raises(ValueError,
                       match="python -m repro bench --jobs N "
                             "--artifacts fig19"):
        run_protection_matrix(["lud"], jobs=2)
