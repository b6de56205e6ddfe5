"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

import child
import compare
import hostclock
import metrics
import run
import workloads
from tracer import LAYER_NAMES, Tracer, entry_points


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- tracer arithmetic --------------------------------------------------------


def test_self_time_subtracts_children_and_sums_to_wall():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0
        traced_inner()

    traced_inner = tracer.wrap(inner, "dram.access")
    traced_outer = tracer.wrap(outer, "gpu.run")
    op = workloads.Op("op", lambda: (traced_outer(), None))

    def run_op(o):
        clock.now += 0.5         # op-level time outside every layer
        o.run()
        return True

    wall = tracer.run_pass([op, op], "p0", run_op)
    layers = tracer.layer_totals()
    assert wall == 2 * (0.5 + 1.0 + 2.0 + 3.0 + 2.0)
    assert layers["dram.access"] == {"calls": 4, "self_s": 8.0}
    assert layers["gpu.run"] == {"calls": 2, "self_s": 8.0}
    assert layers["other"]["self_s"] == 1.0
    assert sum(row["self_s"] for row in layers.values()) == wall
    assert tracer.aggregate[("dram.access", "gpu.run")][:2] == [4, 8.0]
    assert tracer.aggregate[("gpu.run", "pass")][2] == 16.0
    assert [s["pass"] for s in tracer.ops] == ["p0", "p0"]
    assert tracer.ops[1]["start"] == tracer.ops[0]["end"] == 8.5


def test_raising_call_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    traced = tracer.wrap(boom, "bcu.check")

    def run_op(_op):
        with pytest.raises(ValueError):
            traced()
        return False

    wall = tracer.run_pass([workloads.Op("x", None)], "p", run_op)
    layers = tracer.layer_totals()
    assert layers["bcu.check"] == {"calls": 1, "self_s": 1.0}
    assert layers["other"]["self_s"] == 0.0 and wall == 1.0


# -- host clock ---------------------------------------------------------------


def test_host_clock_scales_each_stretch_by_its_probe(monkeypatch):
    nominal = hostclock.NOMINAL_S
    durations = iter([2 * nominal, nominal, 4 * nominal])
    monkeypatch.setattr(hostclock, "probe", lambda: next(durations))
    stamps = iter([10.0, 10.0, 10.5, 10.5, 11.5, 11.5])
    monkeypatch.setattr(hostclock, "time", type(
        "FakeTime", (), {"perf_counter": staticmethod(lambda: next(stamps))}))
    monkeypatch.setattr(hostclock.signal, "setitimer", lambda *a: None)
    monkeypatch.setattr(hostclock.signal, "signal", lambda *a: None)
    clock = hostclock.HostClock()
    assert clock.start() == 10.0
    assert clock.first_factor == 0.5
    clock._tick()                  # 0.5 s on a host at nominal speed
    # ... then 1 s on a host four times slower than nominal.
    assert clock.stop() == pytest.approx(0.5 + 0.25)
    assert clock.probes == 2


def test_host_clock_probes_while_the_program_runs():
    clock = hostclock.HostClock()
    clock.start()
    deadline = time.perf_counter() + 0.1
    while time.perf_counter() < deadline:
        pass
    assert clock.stop() > 0.0
    assert clock.probes >= 5


# -- passes -----------------------------------------------------------------


def _raise():
    raise RuntimeError("op exploded")


def test_raising_op_fails_and_the_pass_goes_on():
    ops = [workloads.Op("a", lambda: ({"v": 1}, None)),
           workloads.Op("b", _raise),
           workloads.Op("c", lambda: ({"v": 3}, "expectation missed")),
           workloads.Op("d", lambda: ({"v": 4}, None))]
    for tracer in (None, Tracer()):
        done = child.run_ops(ops, tracer, "p")
        assert [f["op"] for f in done["failures"]] == ["b", "c"]
        assert "op exploded" in done["failures"][0]["reason"]
        assert done["values"] == [{"v": 1}, {"v": 3}, {"v": 4}]
        assert sorted(done["op_digests"]) == ["a", "c", "d"]


def test_reference_mismatch_counts_as_failed():
    result = {"failures": [{"op": "b", "reason": "raised"}],
              "op_digests": {"a": "00", "c": "ff"}}
    reference = {"ops": {"a": "00", "b": "11", "c": "22"}}
    run.check_pass(result, reference)
    assert result["failed"] == 2
    assert [f["op"] for f in result["failures"]] == ["b", "c"]


@pytest.fixture
def tiny_ops():
    """One Figure 18 pair and five fuzz cases."""
    return (workloads.build_ops("multikernel", 11)[:1]
            + workloads.build_ops("fuzz", 11)[:5])


def test_traced_pass_matches_untraced_and_restores(tiny_ops):
    from repro.device import reset_device_cache

    reset_device_cache()
    plain = child.run_ops(tiny_ops)
    before = entry_points()
    reset_device_cache()
    tracer = Tracer()
    tracer.install()
    try:
        assert not any(a is b for a, b in zip(entry_points(), before))
        traced = child.run_ops(tiny_ops, tracer, "t")
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(entry_points(), before))
    assert plain["failures"] == traced["failures"] == []
    assert plain["op_digests"] == traced["op_digests"]
    layers = tracer.layer_totals()
    assert layers["device.run_pair"]["calls"] == 4
    assert layers["fuzz.run_case"]["calls"] == 5
    assert layers["executor.step"]["calls"] == tracer.sim["instructions"]


def test_op_digest_moves_with_cycles_under_an_unchanged_row(monkeypatch):
    from repro.analysis import figures

    op = workloads.build_ops("multikernel", 11)[0]
    before = child.run_ops([op])
    slower = figures.intel_config(alu_latency=5)
    monkeypatch.setattr(figures, "intel_config", lambda: slower)
    after = child.run_ops([op])
    assert before["values"] == after["values"] == [
        {"bfs_cfd": {"inter_core": 1.0, "intra_core": 1.0}}]
    assert before["op_digests"] != after["op_digests"]


# -- the benchmark definition -------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((metrics.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(m["name"] for m in spec["end_to_end"]) == \
        sorted(metrics.BOUNDED)
    assert spec["per_layer"] == metrics.per_layer_spec()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(LAYER_NAMES) == 18


# -- compare -----------------------------------------------------------------


def _results(pass_s, failed=0, digest="d0", seed=11):
    passes = [{"pass_s": x, "peak_rss_mb": 100.0, "failed": 0,
               "attempted": 10} for x in pass_s]
    passes[0]["failed"] = failed
    return {"seed": seed, "workloads": {"w": {
        "result_digest": digest, "setup_samples": [0.3] * len(pass_s),
        "passes": passes}}}


def _load(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return compare.load(str(path))


def _verdicts(a, b):
    rows, problems = compare.compare(a, b, metrics.load_bounds())
    return {r["metric"]: r["verdict"] for r in rows}, problems


def test_compare_verdicts(tmp_path):
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
    a = _load(tmp_path, "a.json", _results(base))
    same, problems = _verdicts(a, a)
    assert same == {"setup_s": "unchanged", "pass_s": "unchanged",
                    "peak_rss_mb": "unchanged", "fail_ratio": "unchanged"}
    assert problems == []

    slow = _load(tmp_path, "b.json", _results([2 * x for x in base],
                                              failed=1, digest="d1"))
    v, problems = _verdicts(a, slow)
    assert v["pass_s"] == "worse" and v["fail_ratio"] == "worse"
    assert problems and "mismatch" in problems[0]

    fast = _load(tmp_path, "c.json", _results([0.9 * x for x in base]))
    assert _verdicts(a, fast)[0]["pass_s"] == "better"
    # Nine pairs are too few to claim a gain.
    a9 = _load(tmp_path, "a9.json", _results(base[:9]))
    fast9 = _load(tmp_path, "c9.json", _results([0.9 * x for x in base[:9]]))
    assert _verdicts(a9, fast9)[0]["pass_s"] == "unchanged"

    noisy = _load(tmp_path, "n.json",
                  _results([8.0, 12.0, 9.0, 11.5, 8.5, 12.5, 10.0, 10.5]))
    assert _verdicts(a, noisy)[0]["pass_s"] == "unresolved"


def test_compare_self_check_and_exit_status(tmp_path):
    base = [10.0, 10.2, 9.8, 10.1, 9.9]
    a_path = tmp_path / "a.json"
    a_path.write_text(json.dumps({"sets": [_results(base), _results(base)]}))
    a = compare.load(str(a_path))
    assert len(a["w"]["pass_s"]) == 10
    assert compare.self_check(a, metrics.load_bounds())
    assert compare.main([str(a_path), str(a_path)]) == 0
    b_path = tmp_path / "b.json"
    b_path.write_text(json.dumps(_results([1.5 * x for x in base])))
    assert compare.main([str(a_path), str(b_path)]) == 1


def test_summarize_uses_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.summarize(values) == {"median": 3.0, "q1": q1, "q3": q3,
                                         "n": 5}
