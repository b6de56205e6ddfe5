"""Tests for memory-access tracing."""


from repro import GpuSession, KernelBuilder, ShieldConfig, nvidia_config
from repro.analysis.trace import MemoryTracer, TraceEvent, render_summary
from tests.conftest import build_vecadd


def traced_session(shield=False):
    session = GpuSession(
        nvidia_config(num_cores=2),
        shield=ShieldConfig(enabled=True) if shield else None)
    tracer = MemoryTracer()
    session.gpu.observe(tracer)
    return session, tracer


class TestCapture:
    def test_vecadd_event_count(self):
        session, tracer = traced_session()
        n = 128
        a = session.driver.malloc(n * 4)
        b = session.driver.malloc(n * 4)
        c = session.driver.malloc(n * 4)
        session.run(build_vecadd(), {"a": a, "b": b, "c": c, "n": n}, 2, 64)
        # 4 warps x (2 loads + 1 store) = 12 warp memory instructions.
        assert len(tracer) == 12
        assert sum(1 for e in tracer.events if e.is_store) == 4

    def test_addresses_within_buffers(self):
        session, tracer = traced_session()
        n = 128
        a = session.driver.malloc(n * 4)
        b = session.driver.malloc(n * 4)
        c = session.driver.malloc(n * 4)
        session.run(build_vecadd(), {"a": a, "b": b, "c": c, "n": n}, 2, 64)
        lo = min(e.lo for e in tracer.events)
        hi = max(e.hi for e in tracer.events)
        assert lo >= a.va
        assert hi < c.va + c.padded_size

    def test_blocked_accesses_marked(self):
        session, tracer = traced_session(shield=True)
        kb = KernelBuilder("oob")
        ap = kb.arg_ptr("A")
        p = kb.setp("eq", kb.gtid(), 0)
        with kb.if_(p):
            j = kb.ld_idx(ap, 0, dtype="i32")
            kb.st_idx(ap, kb.add(10_000, kb.mul(j, 0)), 1, dtype="i32")
        a = session.driver.malloc(64)
        session.run(kb.build(), {"A": a}, 1, 32)
        blocked = [e for e in tracer.events if not e.allowed]
        assert len(blocked) == 1
        assert blocked[0].is_store

    def test_capacity_drops_excess(self):
        tracer = MemoryTracer(capacity=2)
        for i in range(5):
            tracer.record(TraceEvent(cycle=i, core=0, warp_id=0,
                                     kernel_id=1, space="global",
                                     is_store=False, lo=0, hi=3,
                                     transactions=1, active_lanes=32,
                                     allowed=True))
        assert len(tracer) == 2
        assert tracer.dropped == 3


class TestAnalysis:
    def _capture(self):
        session, tracer = traced_session()
        n = 128
        a = session.driver.malloc(n * 4)
        b = session.driver.malloc(n * 4)
        c = session.driver.malloc(n * 4)
        session.run(build_vecadd(), {"a": a, "b": b, "c": c, "n": n}, 2, 64)
        return tracer, (a, b, c, n)

    def test_summary(self):
        tracer, (_a, _b, c, n) = self._capture()
        summary = tracer.summarize()
        assert summary.events == 12
        assert summary.stores == 4
        assert summary.blocked == 0
        assert summary.by_space == {"global": 12}
        # 3 buffers x 128 elements = 12 x 128B lines.
        assert summary.footprint_lines == 12
        text = render_summary(summary)
        assert "12" in text and "global" in text

    def test_forensic_store_query(self):
        tracer, (a, _b, c, n) = self._capture()
        writers = tracer.stores_to(c.va, c.va + n * 4 - 1)
        assert len(writers) == 4
        assert tracer.stores_to(a.va, a.va + n * 4 - 1) == []

    def test_jsonl_roundtrip(self, tmp_path):
        tracer, _ = self._capture()
        path = str(tmp_path / "trace.jsonl")
        count = tracer.to_jsonl(path)
        back = MemoryTracer.from_jsonl(path)
        assert len(back) == count == len(tracer)
        assert back.events[0] == tracer.events[0]


class TestStageLevelExport:
    def test_stage_events_interleave_in_the_stream(self):
        session = GpuSession(nvidia_config(num_cores=2),
                             shield=ShieldConfig(enabled=True))
        tracer = MemoryTracer(stage_level=True)
        session.gpu.observe(tracer)
        n = 128
        a = session.driver.malloc(n * 4)
        b = session.driver.malloc(n * 4)
        c = session.driver.malloc(n * 4)
        session.run(build_vecadd(), {"a": a, "b": b, "c": c, "n": n},
                    2, 64)
        assert len(tracer) == 12             # access events, as before
        stages = [e.stage for e in tracer.stage_events]
        assert stages.count("coalesce") == 12
        assert stages.count("check") == 12
        assert len(tracer.stream) == len(tracer.events) \
            + len(tracer.stage_events)

    def test_jsonl_header_carries_schema_and_meta(self, tmp_path):
        import json

        from repro.analysis.trace import (TRACE_SCHEMA_VERSION,
                                          read_trace_file)
        tracer = MemoryTracer()
        tracer.record(TraceEvent(cycle=1, core=0, warp_id=0, kernel_id=1,
                                 space="global", is_store=False, lo=0,
                                 hi=3, transactions=1, active_lanes=4,
                                 allowed=True))
        path = str(tmp_path / "trace.jsonl")
        tracer.to_jsonl(path, meta={"fingerprint": "abc123"})
        first = json.loads(open(path).readline())
        assert first["schema_version"] == TRACE_SCHEMA_VERSION
        assert first["fingerprint"] == "abc123"
        header, events = read_trace_file(path)
        assert header["schema_version"] == TRACE_SCHEMA_VERSION
        assert len(events) == 1

    def test_legacy_headerless_file_reads_as_schema1(self, tmp_path):
        import json

        from repro.analysis.trace import event_to_wire, read_trace_file
        event = TraceEvent(cycle=1, core=0, warp_id=0, kernel_id=1,
                           space="global", is_store=False, lo=0, hi=3,
                           transactions=1, active_lanes=4, allowed=True)
        wire = dict(event_to_wire(event))
        wire.pop("event")                      # schema-1 had no tag
        path = tmp_path / "legacy.jsonl"
        path.write_text(json.dumps(wire) + "\n")
        header, events = read_trace_file(str(path))
        assert header["schema_version"] == 1
        assert events == [event]
