"""Cross-layer invariant checker tests + trace/stats property tests."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.trace import (TRACE_SCHEMA_VERSION, MemoryTracer,
                                  TraceEvent)
from repro.engine import ENGINES, engine
from repro.gpu.config import nvidia_config
from repro.oracle import CoalescerFault, capture, check_capture
from repro.oracle.capture import CapturedTrace, config_fingerprint


def _capture_workload(workload, engine_name, stage_level=True):
    """Inline mini-``capture`` for workloads built on the fly (the
    property tests), mirroring ``repro.oracle.capture.capture``."""
    from dataclasses import asdict

    from repro.analysis.harness import WorkloadRunner, default_shield

    cfg = nvidia_config(num_cores=2)
    shield = default_shield()
    with engine(engine_name):
        runner = WorkloadRunner(workload, config=cfg, shield=shield,
                                config_name="oracle", seed=5,
                                allow_violations=True)
        tracer = MemoryTracer(capacity=500_000, stage_level=stage_level)
        runner.session.gpu.observe(tracer)
        try:
            record = runner.run()
            snap = runner.session.stats.snapshot()
            violations = [asdict(v) for v in runner.last_violations]
        finally:
            runner.close()
    assert not tracer.dropped and not tracer.stage_dropped
    return CapturedTrace(
        subject=getattr(workload, "name", "prop"), engine=engine_name,
        seed=5, stage_level=stage_level,
        schema_version=TRACE_SCHEMA_VERSION,
        fingerprint=config_fingerprint(cfg, shield),
        line_size=cfg.line_size, cycles=record.cycles,
        aborted=record.aborted, events=list(tracer.stream),
        violations=violations, stats=snap.as_dict())


class TestInvariantChecker:
    @pytest.mark.parametrize("eng", ENGINES)
    @pytest.mark.parametrize("subject", ["tpl:streaming", "tpl:reduction",
                                         "fuzz:101", "bench:bfs"])
    def test_clean_captures_pass(self, subject, eng):
        report = check_capture(capture(subject, engine=eng))
        assert report.ok, report.describe()
        assert report.checked["stage_groups"] > 0

    def test_non_stage_capture_passes(self):
        cap = capture("tpl:gather", engine="fast", stage_level=False)
        report = check_capture(cap)
        assert report.ok, report.describe()
        assert "stage_groups" not in report.checked

    def test_tampered_transaction_count_detected(self):
        cap = capture("tpl:streaming", engine="fast")
        events = list(cap.events)
        idx = next(i for i, e in enumerate(events)
                   if isinstance(e, TraceEvent) and e.space != "shared")
        events[idx] = dataclasses.replace(events[idx],
                                          transactions=events[idx]
                                          .transactions + 1)
        report = check_capture(dataclasses.replace(cap, events=events))
        assert not report.ok
        assert any("transactions" in f for f in report.failures)

    def test_missing_violation_record_detected(self):
        cap = capture("fuzz:101", engine="fast")
        assert cap.violations, "golden fuzz seed must attack"
        tampered = dataclasses.replace(cap,
                                       violations=cap.violations[:-1])
        report = check_capture(tampered)
        assert not report.ok
        assert any("violation" in f for f in report.failures)

    def test_cycle_regression_detected(self):
        cap = capture("tpl:streaming", engine="fast", stage_level=False)
        events = list(cap.events)
        events[0] = dataclasses.replace(events[0], cycle=10**9)
        report = check_capture(dataclasses.replace(cap, events=events))
        assert not report.ok
        assert any("backwards" in f for f in report.failures)

    def test_injected_fault_breaks_segment_tiling(self):
        cap = capture("tpl:streaming", engine="fast",
                      fault=CoalescerFault(site=3, bit=7))
        report = check_capture(cap)
        assert not report.ok
        assert any("tile" in f for f in report.failures)

    def test_report_describe_lists_failures(self):
        cap = capture("tpl:streaming", engine="fast", stage_level=False)
        events = [dataclasses.replace(e, allowed=False)
                  for e in cap.events]
        report = check_capture(dataclasses.replace(cap, events=events))
        assert not report.ok
        text = report.describe()
        assert "FAILED" in text and cap.subject in text


def _template_workloads():
    from repro.workloads import templates as T
    return st.builds(
        lambda kind, wg, blocks: {
            "streaming": lambda: T.streaming("prop_streaming",
                                             n=wg * blocks, wg_size=wg),
            "stencil": lambda: T.stencil1d("prop_stencil",
                                           n=wg * blocks, wg_size=wg),
            "gather": lambda: T.gather("prop_gather", n=wg * blocks,
                                       wg_size=wg,
                                       data_len=2 * wg * blocks),
            "reduction": lambda: T.reduction("prop_reduction",
                                             n=wg * blocks, wg_size=wg),
        }[kind](),
        kind=st.sampled_from(["streaming", "stencil", "gather",
                              "reduction"]),
        wg=st.sampled_from([32, 64]),
        blocks=st.integers(min_value=1, max_value=6))


class TestTraceStatsProperties:
    """Satellite: summed trace transactions must equal the counters the
    StatsRegistry accumulated, per space and per kernel, for *any*
    template workload — not just the pinned subjects."""

    @given(workload=_template_workloads(),
           eng=st.sampled_from(list(ENGINES)))
    @settings(max_examples=12, deadline=None)
    def test_traced_transactions_match_registry(self, workload, eng):
        cap = _capture_workload(workload, eng, stage_level=False)
        from repro.analysis.stats import StatsSnapshot
        snap = StatsSnapshot(cap.stats)
        access = [e for e in cap.events if isinstance(e, TraceEvent)]

        assert len(access) == int(
            snap.total("cores.*.issue.mem_instructions"))
        non_shared = [e for e in access if e.space != "shared"]
        assert sum(e.transactions for e in non_shared) == int(
            snap.total("cores.*.issue.transactions"))

        per_space = {}
        for e in non_shared:
            per_space[e.space] = per_space.get(e.space, 0) \
                + e.transactions
        l1d = sum(v for s, v in per_space.items()
                  if s not in ("const", "texture"))
        assert l1d == int(snap.total("cores.*.l1d.hits")
                          + snap.total("cores.*.l1d.misses"))

        # Per-kernel partition: every access belongs to a kernel and the
        # per-kernel sums recompose the registry total exactly.
        per_kernel = {}
        for e in non_shared:
            per_kernel[e.kernel_id] = per_kernel.get(e.kernel_id, 0) \
                + e.transactions
        assert all(count > 0 for count in per_kernel.values())
        assert sum(per_kernel.values()) == int(
            snap.total("cores.*.issue.transactions"))

    @given(workload=_template_workloads())
    @settings(max_examples=8, deadline=None)
    def test_stage_level_invariants_hold(self, workload):
        cap = _capture_workload(workload, "fast", stage_level=True)
        report = check_capture(cap)
        assert report.ok, report.describe()
