"""One benchmark pass in a fresh process (spawned by ``run.py``).

    python3 bench/child.py WORKLOAD --seed N --spawned T [--trace] [--setup-only]

``T`` is the parent's ``perf_counter`` reading just before the spawn;
``perf_counter`` reads the system-wide monotonic clock, so the child
can measure its own set-up from it.  Prints ``@@ready <json>`` once the
simulator is imported and the pass's inputs are built, runs every op,
then prints ``@@result <json>``.  Both carry raw wall seconds and
host-speed-corrected seconds (see ``hostclock``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from typing import List, Optional

import workloads
from hostclock import HostClock
from tracer import Tracer, entry_points


def run_ops(ops: List[workloads.Op], tracer: Optional[Tracer] = None,
            pass_id: str = "") -> dict:
    """Run every op; a failing or raising op is recorded and the pass
    goes on.  Returns the op values, 16-digit op digests (value and
    launches), failures and the pass wall time."""
    values, op_digests, failures = [], {}, []

    def run_op(op) -> bool:
        launches.clear()
        try:
            value, problem = op.run()
        except Exception:  # a raising op fails; the pass goes on
            failures.append({"op": op.op_id,
                             "reason": traceback.format_exc(limit=-3)})
            return False
        values.append(value)
        op_digests[op.op_id] = workloads.digest([value, launches])[:16]
        if problem:
            failures.append({"op": op.op_id, "reason": problem})
        return not problem

    with workloads.launch_log() as launches:
        start = time.perf_counter()
        if tracer is not None:
            tracer.run_pass(ops, pass_id, run_op)
        else:
            for op in ops:
                run_op(op)
        wall = time.perf_counter() - start
    return {"values": values, "op_digests": op_digests,
            "failures": failures, "wall_s": wall}


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--pass-id", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    clock = HostClock()
    started = clock.start()
    tracer = originals = None
    if args.trace:
        # Wrap before any device exists (see tracer module docstring).
        originals = entry_points()
        tracer = Tracer()
        tracer.install()
    ops = workloads.build_ops(args.workload, args.seed)
    setup_s = (started - args.spawned) * clock.first_factor + clock.lap()
    print("@@ready " + json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": time.perf_counter() - args.spawned}), flush=True)
    if args.setup_only:
        clock.stop()
        return 0
    try:
        done = run_ops(ops, tracer, args.pass_id)
    finally:
        pass_s = clock.stop()
        if tracer is not None:
            tracer.restore()

    import numpy
    from repro.device import device_cache_stats
    from repro.device.memo import warm_memo_stats
    pool, memo = device_cache_stats(), warm_memo_stats()
    out = {
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "pass_id": args.pass_id,
        "pass_s": pass_s,
        "wall_s": done["wall_s"],
        "probes": clock.probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
        "attempted": len(ops),
        "failures": done["failures"],
        "op_digests": done["op_digests"],
        "result_digest": workloads.result_digest(args.workload, args.seed,
                                                 done["values"]),
        "warm": {
            "pool_hit_ratio": _ratio(pool["hits"], pool["misses"]),
            "cell_hit_ratio": _ratio(memo["cell_hits"], memo["cell_misses"]),
            "init_hit_ratio": _ratio(memo["init_hits"], memo["init_misses"]),
        },
    }
    if tracer is not None:
        out["trace"] = tracer.to_json()
        out["restored"] = all(a is b for a, b in zip(entry_points(),
                                                      originals))
    print("@@result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
