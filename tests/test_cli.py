"""Tests for the ``python -m repro`` command-line interface.

Error paths follow one convention across every subcommand: validation
errors (unknown names, bad values, unusable paths) print to stderr and
return exit code 2; contract failures return 1; argparse's own
rejections (missing/unknown arguments) raise SystemExit(2).
"""

import importlib
import json

import pytest

from repro.__main__ import ARTIFACTS, main, run_artifact
from repro.engine import current_engine


def _blocked(tmp_path):
    """A path whose parent is a plain file: no directory can be made."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    return blocker / "sub"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ARTIFACTS:
            assert name in out

    def test_static_artifacts(self, capsys):
        for name in ("fig1", "fig11", "table3"):
            assert main([name]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_subset_sweep(self, capsys):
        assert main(["fig14", "--subset", "1"]) == 0
        assert "Figure 14" in capsys.readouterr().out

    def test_unknown_artifact(self):
        with pytest.raises(SystemExit):
            run_artifact("fig99")

    def test_run_artifact_returns_text(self):
        assert "GPUShield" in run_artifact("table3")


class TestBaseCliErrors:
    def test_unknown_artifact_exits_2_with_stderr(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "list" in err

    def test_serve_is_no_longer_a_subcommand(self, capsys):
        assert main(["serve"]) == 2
        assert "unknown artefact 'serve'" in capsys.readouterr().err

    def test_no_arguments_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "artifact" in capsys.readouterr().err

    def test_unknown_flag_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--bogus"])
        assert exc.value.code == 2


class TestFuzzCliErrors:
    def test_unknown_configs(self, capsys):
        from repro.fuzz.cli import main as fuzz_main
        assert fuzz_main(["--cases", "1", "--configs", "bogus"]) == 2
        assert "unknown configs" in capsys.readouterr().err

    def test_unknown_kinds(self, capsys):
        from repro.fuzz.cli import main as fuzz_main
        assert fuzz_main(["--cases", "1", "--kinds", "bogus"]) == 2
        assert "unknown kinds" in capsys.readouterr().err

    def test_resume_without_journal(self, capsys):
        from repro.fuzz.cli import main as fuzz_main
        assert fuzz_main(["--cases", "1", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_resume_from_another_seeds_journal(self, tmp_path, capsys):
        from repro.fuzz.cli import main as fuzz_main
        out = str(tmp_path / "d")
        assert fuzz_main(["--cases", "1", "--seed", "1", "--jobs", "1",
                          "--out", out, "--no-minimize"]) == 0
        capsys.readouterr()
        assert fuzz_main(["--cases", "2", "--seed", "2", "--jobs", "1",
                          "--out", out, "--resume"]) == 2
        assert "belongs to a different plan" in capsys.readouterr().err

    @pytest.mark.parametrize("parallel", [["--jobs", "2"], ["--resume"]])
    def test_budget_on_a_parallel_campaign(self, capsys, parallel):
        from repro.fuzz.cli import main as fuzz_main
        assert fuzz_main(["--cases", "1", "--budget", "5", *parallel]) == 2
        assert "--budget applies to serial campaigns only" in \
            capsys.readouterr().err

    def test_uncreatable_out_dir(self, tmp_path, capsys):
        from repro.fuzz.cli import main as fuzz_main
        assert fuzz_main(["--cases", "1",
                          "--out", str(_blocked(tmp_path))]) == 2
        captured = capsys.readouterr()
        assert "cannot create --out directory" in captured.err
        assert "expectation matrix" not in captured.out   # nothing ran


class TestBenchCliErrors:
    def test_unknown_artifacts(self, capsys):
        from repro.analysis.bench import main as bench_main
        assert bench_main(["--artifacts", "bogus"]) == 2
        assert "unknown artefacts" in capsys.readouterr().err

    def test_unwritable_results_dir(self, tmp_path, capsys):
        from repro.analysis.bench import main as bench_main
        blocker = tmp_path / "file"
        blocker.write_text("")
        results = str(blocker / "results")   # parent is a file
        assert bench_main(["--artifacts", "table3",
                           "--results-dir", results]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_resume_without_manifest_dir(self, tmp_path, capsys):
        from repro.analysis.bench import main as bench_main
        results = tmp_path / "results"
        assert bench_main(["--resume", "--artifacts", "fig1",
                           "--results-dir", str(results)]) == 2
        assert "--manifest-dir" in capsys.readouterr().err
        assert not results.exists()   # refused before anything ran

    def test_compare_engines_honours_zero_fuzz_cases(self, tmp_path,
                                                     capsys):
        from repro.analysis.bench import _parse_args
        from repro.analysis.bench import main as bench_main
        assert _parse_args([]).fuzz_cases == 200
        assert bench_main(["--compare-engines", "--artifacts", "table3",
                           "--fuzz-cases", "0",
                           "--results-dir", str(tmp_path)]) == 0
        assert "+ 0 fuzz case(s)" in capsys.readouterr().out

    def test_compare_engines_writes_only_its_digest_table(self, tmp_path):
        from repro.analysis.bench import main as bench_main
        assert bench_main(["--compare-engines", "--artifacts", "table3",
                           "--fuzz-cases", "0",
                           "--results-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_hotpath.json", "BENCH_hotpath.txt"]

    def test_compare_engines_mismatch_exits_1(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.analysis import bench
        legs = iter(["slow-leg-digest", "fast-leg-digest"])
        monkeypatch.setattr(bench, "_digest_payload",
                            lambda payload: next(legs))
        assert bench.main(["--compare-engines", "--artifacts", "table3",
                           "--fuzz-cases", "0",
                           "--results-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "diverged" in captured.err
        assert "table3" in captured.err
        assert "NO" in captured.out

    def test_service_flags_are_gone(self):
        from repro.analysis.bench import _parse_args
        for argv in (["--service"], ["--service-tenants", "2"],
                     ["--service-attackers", "1"],
                     ["--service-requests", "4"]):
            with pytest.raises(SystemExit) as exc:
                _parse_args(argv)
            assert exc.value.code == 2


class TestRaceCliErrors:
    def test_unknown_workloads(self, capsys):
        from repro.racedetect.cli import main as race_main
        assert race_main(["--workloads", "bogus"]) == 2
        assert "unknown workloads" in capsys.readouterr().err

    def test_unknown_kinds(self, capsys):
        from repro.racedetect.cli import main as race_main
        assert race_main(["--workloads", "none", "--fuzz-cases", "1",
                          "--kinds", "bogus"]) == 2
        assert "unknown kinds" in capsys.readouterr().err

    def test_nothing_to_scan(self, capsys):
        from repro.racedetect.cli import main as race_main
        assert race_main(["--workloads", "none",
                          "--fuzz-cases", "0"]) == 2
        assert capsys.readouterr().err

    def test_uncreatable_out_dir(self, tmp_path, capsys):
        from repro.racedetect.cli import main as race_main
        assert race_main(["--workloads", "none", "--fuzz-cases", "1",
                          "--out", str(_blocked(tmp_path))]) == 2
        captured = capsys.readouterr()
        assert "cannot create --out directory" in captured.err
        assert "race scan" not in captured.out   # nothing ran


class TestProfileCliErrors:
    def test_unknown_workloads(self, capsys):
        from repro.profiler.cli import main as profile_main
        assert profile_main(["--workloads", "bogus"]) == 2
        assert "unknown workloads" in capsys.readouterr().err

    def test_unknown_kinds(self, capsys):
        from repro.profiler.cli import main as profile_main
        assert profile_main(["--workloads", "none", "--fuzz-cases", "1",
                             "--kinds", "bogus"]) == 2
        assert "unknown kinds" in capsys.readouterr().err

    def test_nothing_to_profile(self, capsys):
        from repro.profiler.cli import main as profile_main
        assert profile_main(["--workloads", "none"]) == 2
        assert "nothing to profile" in capsys.readouterr().err

    def test_uncreatable_out_dir(self, tmp_path, capsys):
        from repro.profiler.cli import main as profile_main
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "nested")   # parent is a file
        assert profile_main(["--workloads", "none", "--fuzz-cases", "1",
                             "--out", out]) == 2
        assert "cannot create" in capsys.readouterr().err


class TestOracleCliErrors:
    def test_oracle_rejects_unknown_command(self):
        from repro.oracle.cli import main as oracle_main
        with pytest.raises(SystemExit) as exc:
            oracle_main(["frobnicate"])
        assert exc.value.code == 2

    def test_oracle_uncreatable_report_dir(self, tmp_path, capsys):
        from repro.oracle.cli import main as oracle_main
        report = str(_blocked(tmp_path) / "r.json")
        assert oracle_main(["check", "--subjects", "fuzz:1",
                            "--report", report]) == 2
        captured = capsys.readouterr()
        assert "cannot create --report directory" in captured.err
        assert "oracle invariants" not in captured.out   # nothing ran


class TestSweepProvenance:
    """A sweep runs on the process engine and its record names it."""

    @pytest.mark.parametrize("module,record", [
        ("repro.racedetect.cli", "race_scan.json"),
        ("repro.profiler.cli", "profile.json"),
    ])
    def test_record_names_the_process_engine(self, module, record,
                                             tmp_path, capsys):
        cli = importlib.import_module(module)
        assert cli.main(["--workloads", "none", "--fuzz-cases", "1",
                         "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / record).read_text())
        assert payload["engine"] == current_engine()
        assert payload["ok"] and "engines" not in payload
        assert f"[{current_engine()}]" in capsys.readouterr().out

    @pytest.mark.parametrize("module", ["repro.racedetect.cli",
                                        "repro.profiler.cli"])
    def test_engines_flag_is_gone(self, module):
        cli = importlib.import_module(module)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--workloads", "none", "--fuzz-cases", "1",
                      "--engines", "slow,fast"])
        assert exc.value.code == 2
