"""End-to-end serving runs: determinism across workers and engines,
fault injection, runner wiring, and the ``serve`` CLI."""

import json

import pytest

from repro.engine import ENGINES, engine
from repro.service.simulator import (ServiceConfig, default_service_config,
                                     run_service)


def _config(**overrides):
    base = dict(requests_per_tenant=4, seed=11, num_devices=2)
    base.update(overrides)
    return default_service_config(2, attackers=1, **base)


class TestDeterminism:
    def test_serial_and_parallel_agree(self):
        cfg = _config()
        serial = run_service(cfg, jobs=0)
        fanned = run_service(cfg, jobs=2)
        assert serial.digest == fanned.digest
        assert serial.latencies == fanned.latencies
        assert serial.tenants == fanned.tenants
        assert [e.to_dict() for e in serial.events] \
            == [e.to_dict() for e in fanned.events]

    def test_engines_agree(self):
        cfg = _config()
        digests, latencies = set(), set()
        for name in ENGINES:
            with engine(name):
                report = run_service(cfg, jobs=0)
            digests.add(report.digest)
            latencies.add(json.dumps(report.latencies, sort_keys=True))
        assert len(digests) == 1
        assert len(latencies) == 1

    def test_seed_changes_the_trace(self):
        a = run_service(_config(seed=11))
        b = run_service(_config(seed=12))
        assert a.latencies != b.latencies


class TestFaultInjection:
    def test_resets_are_audited_without_perturbing_results(self):
        clean = run_service(_config())
        faulty = run_service(_config(fail_every=2))
        assert faulty.resets > 0
        resets = [e for e in faulty.events if e.kind == "device_reset"]
        assert len(resets) == faulty.resets
        for event in resets:
            assert event.reason == "device-failure"
            assert event.request_id.startswith("placement-")
        # Fault recovery re-runs the placement; every non-reset event
        # is unchanged (reset events claim seq slots, so drop seq) and
        # every latency is unchanged.
        def strip_seq(event):
            data = event.to_dict()
            data.pop("seq")
            return data

        assert [strip_seq(e) for e in clean.events] \
            == [strip_seq(e) for e in faulty.events
                if e.kind != "device_reset"]
        assert clean.latencies == faulty.latencies

    def test_fail_every_parallel_still_matches_serial(self):
        cfg = _config(fail_every=3)
        assert run_service(cfg, jobs=0).digest \
            == run_service(cfg, jobs=2).digest


class TestReportShape:
    def test_report_dict_and_summary(self):
        report = run_service(_config())
        data = report.to_dict()
        for key in ("config", "requests", "served", "shed", "expired",
                    "violations", "makespan_cycles", "audit_digest",
                    "tenants", "latency_histograms"):
            assert key in data
        assert data["audit_digest"] == report.digest
        assert data["requests"] == 8
        text = report.summary_text()
        assert "tenant" in text and report.digest[:16] in text

    def test_attacker_violations_are_attributed(self):
        report = run_service(_config(requests_per_tenant=8))
        assert report.violations, "attack tenant produced no violations"
        violation_events = [e for e in report.events
                            if e.kind == "violation"]
        assert len(violation_events) == report.violations
        for event in violation_events:
            assert event.tenant == "t1"
        assert report.tenants["t0"]["violations"] == 0

    def test_stats_registry_counters(self):
        from repro.analysis.stats import StatsRegistry
        stats = StatsRegistry()
        report = run_service(_config(), stats=stats)
        flat = stats.snapshot().as_dict()
        assert flat["service.scheduler.served"] == report.to_dict()["served"]
        assert flat["service.tenants.t1.violations"] \
            == report.tenants["t1"]["violations"]

    def test_config_roundtrip(self):
        cfg = _config(coresidency=False)
        assert ServiceConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_validation(self):
        with pytest.raises(ValueError):
            default_service_config(2, num_cores=1).validate()
        with pytest.raises(ValueError):
            default_service_config(2, num_devices=0).validate()


class TestRunnerWiring:
    def test_service_shard_kind_resolves(self):
        from repro.runner.kinds import resolve
        assert callable(resolve("service.shard"))

    def test_pool_counters_never_reach_the_digest(self):
        from repro.analysis.stats import StatsRegistry
        cfg = _config()
        stats = StatsRegistry()
        report = run_service(cfg, jobs=2, stats=stats)
        flat = stats.snapshot().as_dict()
        assert not any(k.startswith("device.cache.") for k in flat), \
            "warm-cache counters leaked into merged service stats"
        assert report.digest == run_service(cfg, jobs=0).digest


class TestServeCLI:
    def test_cli_writes_artifacts(self, tmp_path, capsys):
        from repro.service.cli import main
        out = str(tmp_path / "svc")
        rc = main(["--tenants", "2", "--attackers", "1",
                   "--requests", "3", "--seed", "5", "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "audit digest" in printed or "tenant" in printed
        report = json.loads((tmp_path / "svc"
                             / "service_report.json").read_text())
        from repro.service.audit import audit_digest, load_audit
        header, events = load_audit(str(tmp_path / "svc" / "audit.jsonl"))
        assert header["digest"] == report["audit_digest"]
        assert audit_digest(events) == header["digest"]

    def test_cli_matrix_only(self, capsys):
        from repro.service.cli import main
        rc = main(["--matrix-only", "--seed", "3"])
        assert rc == 0
        assert "detection" in capsys.readouterr().out
