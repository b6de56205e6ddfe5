"""Intra-kernel race detection: shadow memory + static may-race pass.

The corpus below pins both oracles against hand-built kernels whose
race status is known by inspection — including the two classic
false-positive traps (barrier-separated writes and same-thread
read-modify-write, which must NOT report) — and the contracts that tie
everything together:

* static ``race-free`` is a soundness claim — the detector must find
  nothing;
* static ``races`` is a definiteness claim — the detector must find
  something;
* verdicts are engine-invariant (slow vs fast) and shard-invariant
  (serial vs the parallel runner);
* the 9 paper artifact workloads and generated safe fuzz cases are
  race-free (the detector's zero-false-positive bar).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GpuSession, KernelBuilder, nvidia_config
from repro.compiler.dataflow import LaunchBounds
from repro.compiler.mayrace import (MAY_RACE, RACE_FREE, RACES,
                                    analyze_kernel_races, worst_verdict)
from repro.engine import ENGINES, engine
from repro.fuzz.generator import CaseGenerator
from repro.racedetect.detector import RaceDetector
from repro.racedetect.scan import scan_benchmark, scan_case
from repro.workloads.suite import RODINIA_FIG19
from tests.conftest import build_vecadd

WG, WS = 2, 64
T = WG * WS


# ---------------------------------------------------------------------------
# Hand-built corpus
# ---------------------------------------------------------------------------


def build_hot_slot():
    """Every thread stores out[0] — the canonical W-W race."""
    b = KernelBuilder("hot_slot")
    out = b.arg_ptr("out")
    b.st_idx(out, 0, b.gtid(), dtype="i32")
    return b.build()


def build_shared_slot():
    """Each thread stores/reloads its own shared slot — race-free."""
    b = KernelBuilder("shared_slot")
    out = b.arg_ptr("out")
    t = b.tid()
    b.shared_mem(4 * WS)
    b.st_shared(b.mul(t, 4), t, dtype="i32")
    v = b.ld_shared(b.mul(t, 4), dtype="i32")
    b.st_idx(out, b.gtid(), v, dtype="i32")
    return b.build()


def build_bar_separated(with_bar=True):
    """Write own shared slot, (bar), write the mirrored slot.

    With the barrier the two write sets live in different epochs —
    ordered, and a detector that reports here is broken.  Without it
    thread t and thread ntid-1-t genuinely collide.
    """
    b = KernelBuilder("bar_sep" if with_bar else "no_bar")
    out = b.arg_ptr("out")
    t = b.tid()
    b.shared_mem(4 * WS)
    b.st_shared(b.mul(t, 4), t, dtype="i32")
    if with_bar:
        b.bar()
    other = b.sub(b.sub(b.ntid(), 1), t)
    b.st_shared(b.mul(other, 4), t, dtype="i32")
    b.st_idx(out, b.gtid(), t, dtype="i32")
    return b.build()


def build_rmw():
    """out[gtid] = out[gtid] * 2 — same-thread RMW, must NOT report."""
    b = KernelBuilder("rmw")
    out = b.arg_ptr("out")
    i = b.gtid()
    x = b.ld_idx(out, i, dtype="i32")
    b.st_idx(out, i, b.add(x, x), dtype="i32")
    return b.build()


def build_wr_probe():
    """Thread 0 reads a[1] while thread 1 stores a[1] — a W-R race."""
    b = KernelBuilder("wr_probe")
    a = b.arg_ptr("a")
    i = b.gtid()
    b.st_idx(a, i, i, dtype="i32")
    z = b.setp("eq", i, 0)
    with b.if_(z):
        v = b.ld_idx(a, 1, dtype="i32")
        b.st_idx(a, 0, v, dtype="i32")
    return b.build()


def build_fuzz_probe(probe):
    """The (remapped) fuzz safe-case shape: benign own-slot stores plus
    a thread-0 probe of ``a[probe + j*0]`` with exfil into slot 0."""
    b = KernelBuilder(f"probe_{probe}")
    a = b.arg_ptr("a")
    i = b.gtid()
    b.st_idx(a, i, i, dtype="i32")
    z = b.setp("eq", i, 0)
    with b.if_(z):
        j = b.ld_idx(a, probe, dtype="i32")
        b.st_idx(a, b.add(probe, b.mul(j, 0)), j, dtype="i32")
        b.st_idx(a, 0, j, dtype="i32")
    return b.build()


#: (name, kernel factory, buffers {name: nbytes}, scalars, static want,
#:  dynamically races?).  ``None`` static want = anything but the two
#: definite claims is acceptable (checked via the cross-check test).
CORPUS = [
    ("vecadd", build_vecadd,
     {"a": 4 * T, "b": 4 * T, "c": 4 * T}, {"n": T}, RACE_FREE, False),
    ("hot_slot", build_hot_slot, {"out": 4 * T}, {}, RACES, True),
    ("shared_slot", build_shared_slot, {"out": 4 * T}, {}, RACE_FREE,
     False),
    ("bar_sep", lambda: build_bar_separated(True), {"out": 4 * T}, {},
     RACE_FREE, False),
    ("no_bar", lambda: build_bar_separated(False), {"out": 4 * T}, {},
     MAY_RACE, True),
    ("rmw", build_rmw, {"out": 4 * T}, {}, RACE_FREE, False),
    ("wr_probe", build_wr_probe, {"a": 4 * T}, {}, None, True),
    ("probe_0", lambda: build_fuzz_probe(0), {"a": 4 * (T + 8)}, {},
     RACE_FREE, False),
    ("probe_past", lambda: build_fuzz_probe(T + 3), {"a": 4 * (T + 8)},
     {}, RACE_FREE, False),
    ("probe_live", lambda: build_fuzz_probe(5), {"a": 4 * (T + 8)}, {},
     None, True),
]

_BY_NAME = {entry[0]: entry for entry in CORPUS}


def _static(entry):
    _, factory, buffers, scalars, _, _ = entry
    return analyze_kernel_races(factory(), LaunchBounds(WG, WS, scalars),
                                dict(buffers))


def _run_detector(entry, engine_name=""):
    """Execute one corpus kernel with the shadow detector attached."""
    _, factory, buffers, scalars, _, _ = entry
    ctx = engine(engine_name) if engine_name else None
    if ctx is not None:
        ctx.__enter__()
    try:
        session = GpuSession(nvidia_config(num_cores=2), seed=5)
        detector = RaceDetector()
        session.gpu.observe(detector)
        args = {}
        for name, nbytes in buffers.items():
            va = session.driver.malloc(nbytes, name=name)
            session.driver.write(va, bytes(nbytes))
            args[name] = va
        args.update(scalars)
        session.run(factory(), args, WG, WS)
        return detector, args
    finally:
        if ctx is not None:
            ctx.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# Static pass
# ---------------------------------------------------------------------------


class TestStaticCorpus:
    @pytest.mark.parametrize(
        "name", [e[0] for e in CORPUS if e[4] is not None])
    def test_expected_verdict(self, name):
        entry = _BY_NAME[name]
        report = _static(entry)
        assert report.verdict == entry[4], report.to_dict()

    def test_races_claim_carries_a_witness(self):
        report = _static(_BY_NAME["hot_slot"])
        definite = [p for p in report.pairs if p.verdict == RACES]
        assert definite and all(p.witness for p in definite)

    def test_oob_defeats_the_race_free_claim(self):
        # Stride-disjoint per buffer, but the first store escapes its
        # 16-byte buffer: the bounds gate must withhold ``race-free``.
        b = KernelBuilder("oob")
        a = b.arg_ptr("a")
        c = b.arg_ptr("c")
        b.st_idx(a, b.gtid(), 7, dtype="i32")
        b.st_idx(c, b.gtid(), 9, dtype="i32")
        report = analyze_kernel_races(b.build(), LaunchBounds(WG, WS),
                                      {"a": 16, "c": 4 * T})
        assert report.verdict != RACE_FREE

    def test_worst_verdict_lattice(self):
        assert worst_verdict(RACE_FREE, MAY_RACE) == MAY_RACE
        assert worst_verdict(MAY_RACE, RACES) == RACES
        assert worst_verdict(RACE_FREE) == RACE_FREE


# ---------------------------------------------------------------------------
# Dynamic detector
# ---------------------------------------------------------------------------


class TestDynamicCorpus:
    @pytest.mark.parametrize("name", [e[0] for e in CORPUS])
    def test_expected_dynamic_verdict(self, name):
        entry = _BY_NAME[name]
        detector, _ = _run_detector(entry)
        assert detector.has_races == entry[5], detector.record_dicts()

    def test_ww_attribution_is_exact(self):
        entry = _BY_NAME["hot_slot"]
        detector, args = _run_detector(entry)
        assert detector.has_races
        for rec in detector.record_dicts():
            # Exact address: every conflict is on out[0].
            assert rec["addr"] == args["out"].va
            assert rec["kind"] == "ww"
            assert rec["space"] != "shared"
            # Both sites name the same store instruction but two
            # different threads, each with a committed cycle.
            first, second = rec["first"], rec["second"]
            assert first["access_id"] == second["access_id"]
            assert first["thread"] != second["thread"]
            assert first["is_store"] and second["is_store"]
            # Cycles are per-core clocks: comparable only for ordering
            # within one core, so just pin that both committed.
            assert first["cycle"] >= 0 and second["cycle"] >= 0

    def test_wr_conflict_names_both_kinds_of_site(self):
        detector, args = _run_detector(_BY_NAME["wr_probe"])
        assert detector.has_races
        kinds = {rec["kind"] for rec in detector.record_dicts()}
        assert kinds & {"wr", "rw"}, kinds
        for rec in detector.record_dicts():
            assert rec["addr"] == args["a"].va + 4    # a[1], exactly
        stats = detector.stats()
        assert stats["races"] == detector.race_count
        assert stats["accesses"] > 0

    def test_reset_clears_everything(self):
        detector, _ = _run_detector(_BY_NAME["hot_slot"])
        detector.reset()
        assert not detector.has_races
        assert detector.stats()["accesses"] == 0
        assert detector.record_dicts() == []


# ---------------------------------------------------------------------------
# Cross-checks: static vs dynamic, engine, shards
# ---------------------------------------------------------------------------


class TestStaticDynamicContract:
    @pytest.mark.parametrize("name", [e[0] for e in CORPUS])
    def test_static_claims_hold_dynamically(self, name):
        entry = _BY_NAME[name]
        report = _static(entry)
        detector, _ = _run_detector(entry)
        if report.verdict == RACE_FREE:        # soundness
            assert not detector.has_races, \
                f"static race-free refuted: {detector.record_dicts()}"
        if report.verdict == RACES:            # definiteness
            assert detector.has_races, \
                "static claimed a definite race the detector never saw"


class TestEngineInvariance:
    @pytest.mark.parametrize("name", ["hot_slot", "bar_sep", "no_bar",
                                      "probe_live", "vecadd"])
    def test_corpus_records_identical_across_engines(self, name):
        entry = _BY_NAME[name]
        outcomes = []
        for eng in ENGINES:
            detector, _ = _run_detector(entry, engine_name=eng)
            outcomes.append((detector.verdict(), detector.race_count,
                             detector.record_dicts()))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=5, deadline=None)
    @given(index=st.integers(min_value=0, max_value=40),
           kind=st.sampled_from(("safe", "overflow", "local_var")))
    def test_scan_verdicts_identical_across_engines(self, index, kind):
        spec = CaseGenerator(3).draw_kind(kind, index)
        legs = []
        for eng in ENGINES:
            with engine(eng):
                case = scan_case(spec)
            legs.append((case.scan.dynamic_verdict, case.scan.races,
                         case.scan.records))
        assert legs[0] == legs[1]


class TestShardInvariance:
    def test_parallel_scan_matches_serial(self):
        from repro.racedetect.cli import RACE
        from repro.runner import run_jobs
        from repro.runner.shard import merge_slices
        from repro.runner.sweep import plan_sweep, run_slice, sweep_subjects
        specs = [CaseGenerator(1).draw_kind("safe", i) for i in range(4)]
        subjects = sweep_subjects(["bfs"], specs)
        for full_report in (False, True):
            options = {"full_report": full_report}
            serial = run_slice(RACE, subjects, 11, options)
            plan = plan_sweep(RACE, subjects, seed=11, jobs=2,
                              options=options)
            assert len(plan) > 1
            report = run_jobs(plan, jobs=2, run_name="race-test")
            merged = merge_slices([report.results[s.job_id] for s in plan],
                                  "records", "race scan")
            # Whole records, verdicts and static findings included: the
            # options travel to the workers.
            assert merged == serial
            reports = [(r.get("scan") or r["case"]["scan"])["static_report"]
                       for r in merged]
            assert all((rep is not None) == full_report for rep in reports)


# ---------------------------------------------------------------------------
# Zero false positives: artifact workloads + generated safe cases
# ---------------------------------------------------------------------------


class TestFalsePositiveBar:
    @pytest.mark.parametrize("name", RODINIA_FIG19)
    def test_artifact_workload_is_race_free(self, name):
        scan = scan_benchmark(name)
        assert scan.dynamic_verdict == RACE_FREE, scan.records
        assert scan.races == 0
        assert scan.ok

    def test_safe_fuzz_cases_are_race_free_by_construction(self):
        gen = CaseGenerator(1)
        for i in range(10):
            spec = gen.draw_kind("safe", i)
            assert spec.race_verdict == RACE_FREE
            case = scan_case(spec)
            assert case.scan.dynamic_verdict == RACE_FREE, \
                (spec.case_id, case.scan.records)
            assert case.ok

    def test_attack_kinds_make_no_promise(self):
        gen = CaseGenerator(1)
        for kind in ("overflow", "heap", "forged_id"):
            assert gen.draw_kind(kind, 0).race_verdict == MAY_RACE


# ---------------------------------------------------------------------------
# Oracle integration: race stage events coexist with the structure check
# ---------------------------------------------------------------------------


class TestOracleIntegration:
    def _capture_with_detector(self, entry):
        from repro.analysis.trace import MemoryTracer
        from repro.oracle.capture import TRACE_SCHEMA_VERSION, CapturedTrace
        from repro.engine import current_engine
        session = GpuSession(nvidia_config(num_cores=2), seed=5)
        tracer = MemoryTracer(stage_level=True)
        detector = RaceDetector()
        session.gpu.observe(tracer, detector)
        _, factory, buffers, scalars, _, _ = entry
        args = {}
        for name, nbytes in buffers.items():
            va = session.driver.malloc(nbytes, name=name)
            session.driver.write(va, bytes(nbytes))
            args[name] = va
        args.update(scalars)
        result, violations = session.run(factory(), args, WG, WS)
        cap = CapturedTrace(
            subject=entry[0], engine=current_engine(), seed=5,
            stage_level=True, schema_version=TRACE_SCHEMA_VERSION,
            fingerprint="test", line_size=session.config.line_size,
            cycles=result.cycles, aborted=False,
            events=list(tracer.stream), violations=[],
            stats=session.stats.snapshot().as_dict())
        return cap, detector

    def test_race_events_do_not_break_stage_structure(self):
        from repro.oracle.invariants import check_capture
        cap, detector = self._capture_with_detector(_BY_NAME["hot_slot"])
        report = check_capture(cap)
        assert report.ok, report.failures
        # The racy kernel emitted race stage events and the structure
        # checker skipped (but counted) every one of them.
        assert report.checked["race_events"] == detector.race_count > 0

    def test_clean_kernel_emits_no_race_events(self):
        from repro.oracle.invariants import check_capture
        cap, detector = self._capture_with_detector(_BY_NAME["vecadd"])
        report = check_capture(cap)
        assert report.ok, report.failures
        assert report.checked["race_events"] == 0
        assert not detector.has_races
