"""The differential campaign: expectation matrix, invariants, stats, CLI."""

import json

import pytest

from repro.fuzz import (
    ATTACK_KINDS,
    CONFIG_NAMES,
    CaseGenerator,
    expectation,
    run_campaign,
    run_case,
)
from repro.fuzz.cli import main as fuzz_cli
from repro.fuzz.spec import KINDS


def case_of(kind, index=0, seed=9):
    return CaseGenerator(seed).draw_kind(kind, index)


class TestExpectationMatrix:
    def test_safe_is_never_everywhere(self):
        for config in CONFIG_NAMES:
            assert expectation("safe", config, True) == "never"

    def test_shield_always_detects_every_attack(self):
        for kind in ATTACK_KINDS:
            for is_store in (True, False):
                assert expectation(kind, "shield", is_store) == "always"

    def test_documented_gaps_are_encoded(self):
        # §4.1: canary jumps are invisible to canary tools ...
        assert expectation("canary_jump", "clarmor", True) == "never"
        assert expectation("canary_jump", "gmod", True) == "never"
        # ... and to allocation-table tools (the landing is in-bounds).
        assert expectation("inter_buffer", "memcheck", True) == "never"
        # Canary tools never see loads.
        assert expectation("overflow", "clarmor", False) == "never"
        # Launch-boundary attacks exist only below the software tools.
        for kind in ("forged_id", "stale_replay"):
            for config in ("base", "swbounds", "memcheck", "clarmor",
                           "gmod"):
                assert expectation(kind, config, True) == "never"


class TestRunCase:
    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_each_attack_kind_matches_matrix(self, kind):
        outcome = run_case(case_of(kind))
        assert outcome.ok, outcome.cell_failures
        assert outcome.detected["shield"]
        assert outcome.attribution_ok

    def test_safe_case_has_no_detections_and_equal_digests(self):
        outcome = run_case(case_of("safe"))
        assert outcome.ok, outcome.cell_failures
        assert not any(outcome.detected.values())
        assert len(set(outcome.digests.values())) == 1

    def test_shield_run_is_deterministic(self):
        outcome = run_case(case_of("overflow"), check_determinism=True)
        assert outcome.deterministic is True

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_workload_serves_every_config_unchanged(self, monkeypatch,
                                                        kind):
        """``run_case`` builds its workload once and shares it across the
        six configs and the determinism re-run: running must leave it
        equal to a freshly built one."""
        import pickle

        from repro.fuzz import campaign

        built = []
        build = campaign.build_workload

        def recording_build(spec):
            built.append(build(spec))
            return built[-1]

        monkeypatch.setattr(campaign, "build_workload", recording_build)
        spec = case_of(kind)
        outcome = run_case(spec, check_determinism=True)
        assert outcome.ok, outcome.cell_failures
        assert outcome.deterministic is True
        assert len(built) == 1
        shared, fresh = built[0], build(spec)
        for ran, new in zip(shared.runs, fresh.runs, strict=True):
            assert ran.kernel.instructions == new.kernel.instructions
            assert ran.kernel.flow == new.kernel.flow
            assert ran.kernel.else_of == new.kernel.else_of
            assert ran.args == new.args
        assert shared.buffers == fresh.buffers
        assert shared == fresh
        # Equality alone would accept Imm(1) for Imm(1.0); the pickles
        # also carry every value's type.
        assert pickle.dumps(shared) == pickle.dumps(fresh)

    def test_case_seed_is_not_shadowed_by_the_session_default(self):
        # The session layer carries a 0xC0FFEE default seed; a campaign
        # case must reach the device under its own seed, end to end.
        from repro.analysis.harness import WorkloadRunner
        from repro.core.shield import ShieldConfig
        from repro.fuzz.campaign import build_workload
        from repro.gpu.config import nvidia_config

        spec = case_of("overflow")
        want = spec.seed & 0xFFFF
        assert want != 0xC0FFEE
        runner = WorkloadRunner(build_workload(spec),
                                config=nvidia_config(num_cores=1),
                                shield=ShieldConfig(enabled=True),
                                seed=want, allow_violations=True)
        try:
            assert runner.seed == want
            assert runner.session.seed == want
            assert runner.session.driver.seed == want
        finally:
            runner.close()

    def test_canary_gap_reproduces_not_closes(self):
        outcome = run_case(case_of("canary_jump"),
                           configs=["shield", "clarmor", "gmod"])
        assert outcome.detected["shield"]
        assert not outcome.detected["clarmor"]
        assert not outcome.detected["gmod"]

    def test_overflow_store_hits_every_tool_but_base(self):
        spec = case_of("overflow")
        if not spec.attack_is_store:
            spec = spec.with_(attack_is_store=True)
        outcome = run_case(spec)
        assert outcome.detected == {"base": False, "shield": True,
                                    "swbounds": True, "memcheck": True,
                                    "clarmor": True, "gmod": True}


class TestRunCampaign:
    def test_small_campaign_is_clean_and_counted(self):
        specs = [CaseGenerator(4).draw_kind(k, i)
                 for i, k in enumerate(("safe",) + ATTACK_KINDS)]
        result = run_campaign(specs, seed=4, determinism_every=5)
        assert result.ok, [o.cell_failures for o in result.failures]
        assert len(result.outcomes) == len(specs)
        assert result.truncated == 0

        snap = result.stats.snapshot()
        assert snap.get("fuzz.campaign.cases") == len(specs)
        assert snap.get("fuzz.campaign.safe") == 1
        assert snap.get("fuzz.campaign.attacks") == len(ATTACK_KINDS)
        assert snap.get("fuzz.campaign.expectation_failures") == 0
        assert snap.get("fuzz.configs.shield.detected") == len(ATTACK_KINDS)
        assert snap.get("fuzz.configs.shield.missed") == 0
        assert snap.get("fuzz.configs.shield.false_positives") == 0
        assert snap.get("fuzz.configs.clarmor.missed") > 0

        matrix = result.matrix()
        assert matrix["canary_jump"]["shield"] == "1/1"
        assert matrix["canary_jump"]["clarmor"] == "0/1"
        assert "detection matrix" in result.render_matrix()

    def test_budget_truncation_is_reported(self):
        specs = [CaseGenerator(4).draw_kind("safe", i) for i in range(5)]
        calls = {"n": 0}

        def stop_after_two():
            calls["n"] += 1
            return calls["n"] > 2

        result = run_campaign(specs, should_stop=stop_after_two)
        assert len(result.outcomes) == 2
        assert result.truncated == 3
        assert result.stats.snapshot().get("fuzz.campaign.truncated") == 3


class TestCli:
    def test_smoke_campaign_writes_artifacts(self, tmp_path, capsys):
        rc = fuzz_cli(["--cases", "6", "--seed", "2",
                       "--out", str(tmp_path), "--determinism-every", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "detection matrix" in out
        assert "fuzz statistics" in out
        blob = json.loads((tmp_path / "detection_matrix.json").read_text())
        assert blob["ok"] is True
        assert blob["cases"] == 6
        assert blob["seed"] == 2

    def test_cli_replay_of_shipped_reproducer(self, capsys):
        rc = fuzz_cli(["--replay", "tests/data/reproducer_canary_jump.json",
                       "--configs", "shield,clarmor"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["detected"]["shield"] is True
        assert payload["detected"]["clarmor"] is False

    def test_cli_rejects_unknown_config(self):
        assert fuzz_cli(["--configs", "nosuch"]) == 2

    def test_cli_kind_filter(self, capsys):
        rc = fuzz_cli(["--cases", "2", "--kinds", "overflow",
                       "--configs", "shield,base",
                       "--determinism-every", "0"])
        assert rc == 0
        assert "overflow" in capsys.readouterr().out

    def test_module_forwarding(self):
        from repro.__main__ import main as repro_main
        rc = repro_main(["fuzz", "--cases", "1", "--kinds", "safe",
                         "--configs", "shield", "--determinism-every", "0"])
        assert rc == 0
