"""Benchmark driver: every workload, pass by pass, in fresh processes.

    python3 bench/run.py [--workload NAME]... [--seed N]
                         [--rounds R | --seconds S] [--trace [0|1]] [--out DIR]

Each round runs one pass of every selected workload, one child process
at a time, the workload order rotated by one every round.  Every child
is a cold CLI-like run: a fresh interpreter with an empty warm pool,
cell memo and init-bytes cache, ``REPRO_ENGINE=fast``, no other
``REPRO_*`` variable, and ``PYTHONHASHSEED=0``.

``--rounds R`` (default 5) runs R rounds; ``--seconds S`` instead starts
rounds until the next one would end after S seconds (at least one).
``--trace`` adds one traced round after them, which gives the per-layer
metrics; end-to-end metrics never come from it.  ``setup_s`` and
``pass_s`` are host-speed-corrected seconds (``hostclock.py``); the raw
wall seconds are kept beside them in ``results.json``.

Prints every metric with its unit, writes ``DIR/results.json`` (and
``DIR/trace-<workload>.json`` when traced), and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics, or per-layer metrics with ``--trace 1``).  Exit
status: 0 when every op passed, 1 when any failed, 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: setup_s is a median over at least this many child start-ups.
MIN_SETUP_SAMPLES = 5
#: Per-child limit under --rounds; under --seconds the whole run must
#: end within RUN_DEADLINE_S.
CHILD_TIMEOUT_S = 900.0
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (exit status 2)."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_ENGINE"] = "fast"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else []))
    return env


def spawn(workload: str, seed: int, timeout: float, *, pass_id: str = "",
          trace: bool = False, setup_only: bool = False) -> dict:
    """Run one child to completion; returns its result plus its set-up
    seconds, corrected (``setup_s``) and raw (``setup_wall_s``)."""
    cmd = [sys.executable, str(HERE / "child.py"), workload,
           "--seed", str(seed), "--pass-id", pass_id]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = child_env()
    cmd += ["--spawned", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} child exceeded {timeout:.0f} s")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                         f"{err[-3000:]}")
    result: dict = {}
    ready = None
    for line in out.splitlines():
        if line.startswith("@@ready "):
            ready = json.loads(line[len("@@ready "):])
        elif line.startswith("@@result "):
            result = json.loads(line[len("@@result "):])
    if ready is None or not (result or setup_only):
        raise BenchError(f"{workload} child printed no ready/result line")
    result.update(ready)
    return result


def check_pass(result: dict, reference: Optional[dict]) -> None:
    """Fold reference op-digest mismatches into ``failures``; set
    ``failed``."""
    failed = {f["op"] for f in result["failures"]}
    if reference is not None:
        for op, want in reference["ops"].items():
            got = result["op_digests"].get(op)
            if op not in failed and got != want:
                result["failures"].append({
                    "op": op, "reason": f"digest {got} != reference {want}"})
                failed.add(op)
    result["failed"] = len(failed)


def pass_summary(result: dict) -> dict:
    keep = ("pass_id", "setup_s", "setup_wall_s", "pass_s", "wall_s",
            "probes", "peak_rss_mb", "attempted", "failed", "result_digest",
            "failures", "warm")
    out = {k: result[k] for k in keep}
    out["fail_ratio"] = result["failed"] / result["attempted"]
    return out


def environment(numpy_version: str) -> dict:
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy_version, "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                               if line.startswith("model name")), None)
    except OSError:
        env["cpu"] = None
    env["git_commit"] = None
    if (ROOT / ".git").exists():
        env["git_commit"] = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True).stdout.strip() or None
    return env


def run(names: List[str], seed: int, rounds: int, seconds: Optional[int],
        trace: bool) -> dict:
    """All passes of one benchmark run; returns the results document."""
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S if seconds else None

    def timeout() -> float:
        if deadline is None:
            return CHILD_TIMEOUT_S
        left = deadline - time.perf_counter()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S:.0f} s")
        return left

    # Warm-up start-up, discarded: byte-compiles src/ on a fresh
    # checkout and fills the page cache, which no later start-up pays.
    spawn(names[0], seed, timeout(), setup_only=True)
    measure_start = time.perf_counter()
    passes: Dict[str, List[dict]] = {w: [] for w in names}
    setups: Dict[str, List[float]] = {w: [] for w in names}
    r = 0
    while True:
        if seconds is None and r >= rounds:
            break
        if seconds is not None and r > 0:
            last_round = sum(p[-1]["setup_wall_s"] + p[-1]["wall_s"]
                             for p in passes.values())
            if time.perf_counter() - measure_start + last_round > seconds:
                break
        for w in names[r % len(names):] + names[:r % len(names)]:
            result = spawn(w, seed, timeout(), pass_id=f"{w}-r{r}")
            passes[w].append(result)
            setups[w].append(result["setup_s"])
        r += 1
    for w in names:
        while len(setups[w]) < MIN_SETUP_SAMPLES:
            setups[w].append(spawn(w, seed, timeout(),
                                   setup_only=True)["setup_s"])
    traced = {}
    if trace:
        for w in names[r % len(names):] + names[:r % len(names)]:
            traced[w] = spawn(w, seed, timeout(), pass_id=f"{w}-traced",
                              trace=True)
    return {"passes": passes, "setups": setups, "traced": traced,
            "rounds": r, "elapsed_s": time.perf_counter() - started}


def load_references() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def evaluate(raw: dict, names: List[str], reference: Optional[dict]) -> dict:
    """Per-workload checks, summaries and per-layer metrics."""
    out = {}
    for w in names:
        ref = reference.get(w) if reference else None
        runs = raw["passes"][w] + ([raw["traced"][w]]
                                   if w in raw["traced"] else [])
        for result in runs:
            check_pass(result, ref)
        problems = []
        digests = sorted({p["result_digest"] for p in runs})
        if len(digests) > 1:
            problems.append(f"result_digest differs between passes: {digests}")
        if ref is not None and digests != [ref["result_digest"]]:
            problems.append(f"result_digest != reference "
                            f"{ref['result_digest']}")
        passes = [pass_summary(p) for p in raw["passes"][w]]
        summary = {
            "setup_s": metrics.summarize(raw["setups"][w]),
            "pass_s": metrics.summarize([p["pass_s"] for p in passes]),
            "peak_rss_mb": metrics.summarize([p["peak_rss_mb"]
                                              for p in passes]),
        }
        summary["fail_ratio"] = {"max": max(p["fail_ratio"] for p in passes),
                                 "n": len(passes)}
        entry = {"why": WORKLOADS[w], "passes": passes,
                 "setup_samples": raw["setups"][w], "summary": summary,
                 "result_digest": digests[0], "reference_checked": bool(ref),
                 "problems": problems}
        if w in raw["traced"]:
            traced = raw["traced"][w]
            if not traced["restored"]:
                problems.append("tracer left a wrapped entry point behind")
            residual = metrics.residual(traced)
            if abs(residual) > 0.01:
                problems.append(f"trace self times miss the wall by "
                                f"{100 * residual:.2f}%")
            entry["traced"] = {
                "pass": pass_summary(traced), "residual": residual,
                "per_layer": metrics.per_layer(traced, raw["passes"][w]),
            }
        out[w] = entry
    return out


def print_report(results: dict) -> None:
    units = dict(metrics.END_TO_END)
    for w, entry in results["workloads"].items():
        print(f"== {w}: {entry['why']}")
        for name, s in entry["summary"].items():
            if name == "fail_ratio":
                print(f"  {name:<22} max {s['max']:.4f} {units[name]}  "
                      f"n={s['n']}")
            else:
                print(f"  {name:<22} median {s['median']:.4f} "
                      f"{units[name]}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
                      f"n={s['n']}")
        checked = "reference ok" if entry["reference_checked"] else \
            "no reference for this seed"
        print(f"  result_digest {entry['result_digest']} ({checked})")
        for p in entry["passes"]:
            for f in p["failures"][:5]:
                print(f"  FAILED {p['pass_id']} {f['op']}: "
                      f"{f['reason'].strip().splitlines()[-1]}")
        for problem in entry["problems"]:
            print(f"  PROBLEM {problem}")
        if "traced" in entry:
            spec = {m["name"]: m["unit"] for m in metrics.per_layer_spec()}
            print(f"  traced pass: residual "
                  f"{100 * entry['traced']['residual']:+.4f}% of wall")
            for name, value in entry["traced"]["per_layer"].items():
                print(f"    {name:<28} {value:.6g} {spec[name]}")


def result_line(results: dict, trace: bool) -> dict:
    entries = results["workloads"]
    attempted = failed = 0
    for entry in entries.values():
        runs = entry["passes"] + ([entry["traced"]["pass"]]
                                  if "traced" in entry else [])
        attempted += sum(p["attempted"] for p in runs)
        failed += sum(p["failed"] for p in runs)
    units = {m["name"]: m["unit"] for m in metrics.per_layer_spec()}
    units.update(metrics.END_TO_END)
    values = {}
    for w, entry in entries.items():
        if trace:
            chosen = entry["traced"]["per_layer"]
        else:
            chosen = {m: entry["summary"][m]["median"]
                      for m in metrics.BOUNDED}
        for name, value in chosen.items():
            key = name if len(entries) == 1 else f"{w}/{name}"
            values[key] = {"value": value, "unit": units[name]}
    correct = failed == 0 and not any(e["problems"] for e in entries.values())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": values}


def record_reference(raw: dict, results: dict, seed: int) -> None:
    """Store this run's digests as the reference for ``seed``."""
    references = load_references()
    slot = references.setdefault(str(seed), {})
    for w, entry in results["workloads"].items():
        slot[w] = {"result_digest": entry["result_digest"],
                   "ops": raw["passes"][w][0]["op_digests"]}
    REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True)
                         + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads in fresh processes.")
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=None,
                        help="start rounds while they fit in S seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digests for --seed")
    args = parser.parse_args(argv)
    if args.rounds < 1 or (args.seconds is not None and args.seconds < 1):
        parser.error("--rounds and --seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    try:
        raw = run(names, args.seed, args.rounds, args.seconds,
                  bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # A run that records the reference is checked against nothing else.
    reference = (None if args.record_reference
                 else load_references().get(str(args.seed)))
    first = raw["passes"][names[0]][0]
    results = {"schema": 1, "seed": args.seed, "rounds": raw["rounds"],
               "seconds": args.seconds, "elapsed_s": raw["elapsed_s"],
               "env": environment(first["numpy"]),
               "workloads": evaluate(raw, names, reference)}
    line = result_line(results, bool(args.trace))
    if args.record_reference and line["correct"]:
        record_reference(raw, results, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for w, traced in raw["traced"].items():
        (out_dir / f"trace-{w}.json").write_text(json.dumps(
            {"workload": w, "seed": args.seed, "wall_s": traced["wall_s"],
             **traced["trace"]}, indent=1))
    (out_dir / "results.json").write_text(json.dumps(results, indent=1))
    print_report(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
