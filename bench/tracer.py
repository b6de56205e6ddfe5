"""Outside-in host-time tracer for the simulator's layers.

Nothing under ``src/`` knows about this module.  A :class:`Tracer`
replaces each layer's public entry point (a class attribute or a module
function, see :data:`LAYERS`) with a wrapper that opens a span around
the original call, and puts the original back on :meth:`Tracer.restore`.

Install before any device is built: ``FastMemoryPipeline`` binds
``Dram.access`` when it is constructed, so a pipeline built earlier
keeps calling the unwrapped method.

Spans sit on one stack.  When a span closes, its duration is charged to
the enclosing span as child time, and its self time (duration minus
child time) is added to an aggregate keyed by ``(layer, parent
layer)``.  The ``executor.step`` layer alone closes 0.5-2 million spans
per pass, so per-call spans are never kept individually; op spans (one
figure row, matrix cell or fuzz case) are.  The pass itself is the root
span, whose self time is reported as the ``other`` layer.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, class or None for a module function, attribute).
#: One layer may name several entry points (the two access checkers).
LAYERS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("harness.provision", "repro.analysis.harness", "WorkloadRunner", "__init__"),
    ("harness.run", "repro.analysis.harness", "WorkloadRunner", "run"),
    ("device.construct", "repro.device.device", "GpuDevice", "__init__"),
    ("device.reset", "repro.device.device", "GpuDevice", "reset"),
    ("device.run_pair", "repro.device.device", "GpuDevice", "run_pair"),
    ("driver.launch", "repro.driver.driver", "GpuDriver", "launch"),
    ("compiler.analyze", "repro.compiler.static_bounds", "StaticBoundsChecker",
     "analyze"),
    ("driver.finish", "repro.driver.driver", "GpuDriver", "finish"),
    ("gpu.run", "repro.gpu.gpu", "GPU", "run"),
    ("core.schedule", "repro.gpu.core", "ShaderCore", "run"),
    ("executor.step", "repro.gpu.fastpath", "FastExecutor", "step"),
    ("pipeline.access", "repro.gpu.fastpath", "FastMemoryPipeline", "access"),
    ("bcu.check", "repro.gpu.fastpath", "FastBoundsCheckingUnit", "check"),
    ("dram.access", "repro.gpu.dram", "Dram", "access"),
    ("baselines.check", "repro.baselines.memcheck", "MemcheckChecker", "check"),
    ("baselines.check", "repro.baselines.swbounds", "SoftwareGuardChecker",
     "check"),
    ("baselines.scan", "repro.baselines.canary", "CanaryRunner", "post_launch"),
    ("baselines.scan", "repro.baselines.gmod", "GmodRunner", "post_launch"),
    ("fuzz.run_case", "repro.fuzz.campaign", None, "run_case"),
)

#: Every layer name in table order, then the root span's self time.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for layer, *_ in LAYERS] + ["other"]))

#: ``LaunchResult`` fields summed over every ``GPU.run`` return.
SIM_FIELDS = ("instructions", "mem_instructions", "transactions")


def _owner(module: str, cls: Optional[str]):
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


def entry_points() -> List[object]:
    """The objects currently bound at every :data:`LAYERS` entry point."""
    return [vars(_owner(module, cls))[attr]
            for _layer, module, cls, attr in LAYERS]


class Tracer:
    """Span stack plus in-memory aggregates for one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # Each frame is [layer, child seconds].
        self._stack: List[list] = []
        #: (layer, parent layer) -> [calls, self seconds, total seconds]
        self.aggregate: Dict[Tuple[str, str], List[float]] = {}
        #: One dict per op: op id, pass id, start, end, ok.
        self.ops: List[dict] = []
        self.sim: Dict[str, int] = dict.fromkeys(SIM_FIELDS, 0)
        self.root_s = 0.0
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str,
             observe: Optional[Callable[[object], None]] = None) -> Callable:
        """``fn`` with a ``layer`` span around every call."""
        stack, clock, aggregate = self._stack, self.clock, self.aggregate

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                key = (layer, parent[0] if parent else "")
                row = aggregate.get(key)
                if row is None:
                    row = aggregate[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration - frame[1]
                row[2] += duration
                if parent is not None:
                    parent[1] += duration
            if observe is not None:
                observe(result)
            return result

        return traced

    def run_pass(self, ops, pass_id: str, run_op: Callable) -> float:
        """Run ``run_op(op)`` for every op under one root span.

        ``run_op`` returns whether the op succeeded and must not raise.
        Returns the root span's duration; the root's own self time is
        kept as :attr:`root_s` (the ``other`` layer).
        """
        root = ["pass", 0.0]
        self._stack.append(root)
        start = self.clock()
        try:
            for op in ops:
                op_start = self.clock()
                ok = run_op(op)
                self.ops.append({"op": op.op_id, "pass": pass_id,
                                 "start": op_start - start,
                                 "end": self.clock() - start, "ok": ok})
        finally:
            duration = self.clock() - start
            self._stack.pop()
        self.root_s = duration - root[1]
        return duration

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        for layer, module, cls, attr in LAYERS:
            owner = _owner(module, cls)
            original = vars(owner)[attr]
            observe = self._observe_launch if layer == "gpu.run" else None
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, observe))

    def restore(self) -> None:
        """Put every original entry point back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _observe_launch(self, result) -> None:
        sim = self.sim
        for name in SIM_FIELDS:
            sim[name] += getattr(result, name)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Layer -> calls and self seconds, summed over parent layers."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in LAYER_NAMES}
        for (layer, _parent), (calls, self_s, _total) in self.aggregate.items():
            out[layer]["calls"] += calls
            out[layer]["self_s"] += self_s
        out["other"]["self_s"] = self.root_s
        return out

    def to_json(self) -> dict:
        """The trace file body: aggregates by (layer, parent) and op spans."""
        return {
            "layers": self.layer_totals(),
            "edges": [{"layer": layer, "parent": parent,
                       "calls": calls, "self_s": self_s, "total_s": total}
                      for (layer, parent), (calls, self_s, total)
                      in sorted(self.aggregate.items())],
            "sim": dict(self.sim),
            "ops": self.ops,
        }
