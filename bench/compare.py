"""Compare two benchmark results, before (A) and after (B).

    python3 bench/compare.py A.json B.json

A and B are ``results.json`` files written by ``run.py``, or documents
holding several of them under ``"sets"`` (``results/baseline.json``),
whose passes are pooled.  One row per workload and end-to-end metric
gives each side's median, quartiles and n, and a verdict:

* ``better``: at least 10 pairs (A run i, B run i), B wins at least
  9 in 10 of them, and the medians differ by more than A's
  interquartile distance;
* ``worse``: B's median is worse than A's by more than the metric's
  bound in BENCHMARK.json (``fail_ratio``: any increase of the maximum);
* ``unresolved``: not worse, but either side's spread (interquartile
  distance over median) is wider than the bound, and not every B run
  reads better than every A run;
* ``unchanged``: otherwise.

A ``result_digest`` that differs between runs of the same seed is
flagged.  Before comparing, a self-check injects a 2x ``pass_s`` and
one extra failed op into a copy of A and requires both to read worse.
Exit status: 0, 1 on any regression or digest mismatch, 2 when the
self-check fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from typing import Dict, List, Tuple

import metrics


def load(path: str) -> Dict[str, dict]:
    """Workload -> per-pass samples, digests and seed, pooled over sets."""
    doc = json.loads(open(path).read())
    out: Dict[str, dict] = {}
    for results in doc.get("sets", [doc]):
        for w, entry in results["workloads"].items():
            slot = out.setdefault(w, {"seed": results["seed"], "digests": set(),
                                      "setup_s": [], "pass_s": [],
                                      "peak_rss_mb": [], "failed": [],
                                      "attempted": []})
            slot["digests"].add(entry["result_digest"])
            slot["setup_s"] += entry["setup_samples"]
            for p in entry["passes"]:
                for key in ("pass_s", "peak_rss_mb", "failed", "attempted"):
                    slot[key].append(p[key])
    return out


def verdict(a: List[float], b: List[float], bound: float) -> str:
    """Verdict for a lower-is-better metric, B against A."""
    sa, sb = metrics.summarize(a), metrics.summarize(b)
    iqr_a = sa["q3"] - sa["q1"]
    pairs = list(zip(a, b))
    if len(pairs) >= 10:
        wins = sum(1 for x, y in pairs if y < x)
        if (wins >= 0.9 * len(pairs)
                and abs(sb["median"] - sa["median"]) > iqr_a):
            return "better"
    if sb["median"] > sa["median"] * (1 + bound):
        return "worse"
    spread = max(iqr_a / sa["median"], (sb["q3"] - sb["q1"]) / sb["median"])
    if spread > bound and not max(b) < min(a):
        return "unresolved"
    return "unchanged"


def fail_verdict(a: dict, b: dict) -> Tuple[float, float, str]:
    fa = max(f / n for f, n in zip(a["failed"], a["attempted"]))
    fb = max(f / n for f, n in zip(b["failed"], b["attempted"]))
    return fa, fb, ("worse" if fb > fa else "better" if fb < fa
                    else "unchanged")


def compare(a: Dict[str, dict], b: Dict[str, dict],
            bounds: Dict[str, float]) -> Tuple[List[dict], List[str]]:
    """Rows for every shared workload x metric, and digest problems."""
    rows, problems = [], []
    for w in [w for w in a if w in b]:
        for m in metrics.BOUNDED:
            rows.append({"workload": w, "metric": m,
                         "a": metrics.summarize(a[w][m]),
                         "b": metrics.summarize(b[w][m]),
                         "verdict": verdict(a[w][m], b[w][m], bounds[m])})
        fa, fb, v = fail_verdict(a[w], b[w])
        rows.append({"workload": w, "metric": "fail_ratio",
                     "a": {"max": fa}, "b": {"max": fb}, "verdict": v})
        if a[w]["seed"] == b[w]["seed"]:
            digests = a[w]["digests"] | b[w]["digests"]
            if len(digests) > 1:
                problems.append(f"{w}: result_digest mismatch "
                                f"{sorted(d[:16] for d in digests)}")
    return rows, problems


def self_check(a: Dict[str, dict], bounds: Dict[str, float]) -> bool:
    """A copy of A with 2x pass_s and one extra failed op reads worse."""
    b = copy.deepcopy(a)
    for slot in b.values():
        slot["pass_s"] = [2 * x for x in slot["pass_s"]]
    first = next(iter(b))
    b[first]["failed"][0] += 1
    rows, _ = compare(a, b, bounds)
    slow = all(r["verdict"] == "worse" for r in rows
               if r["metric"] == "pass_s")
    failing = any(r["verdict"] == "worse" for r in rows
                  if r["metric"] == "fail_ratio" and r["workload"] == first)
    return slow and failing


def _cell(s: dict) -> str:
    if "median" not in s:
        return f"{s['max']:.4f} (max)"
    return (f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}] "
            f"n={s['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two benchmark results (A before, B after).")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    bounds = metrics.load_bounds()
    a, b = load(args.a), load(args.b)
    if not self_check(a, bounds):
        print("self-check failed: an injected regression went unflagged",
              file=sys.stderr)
        return 2
    rows, problems = compare(a, b, bounds)
    print(f"{'workload':<12} {'metric':<12} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} verdict")
    for r in rows:
        print(f"{r['workload']:<12} {r['metric']:<12} {_cell(r['a']):<36} "
              f"{_cell(r['b']):<36} {r['verdict']}")
    for problem in problems:
        print(f"DIGEST {problem}")
    regressed = any(r["verdict"] == "worse" for r in rows)
    return 1 if regressed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
