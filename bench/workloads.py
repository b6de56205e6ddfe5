"""The benchmark's four workloads, each a list of independent ops.

An op is one figure row, one protection-matrix cell or one fuzz case.
It returns a JSON value and a problem string when its output is wrong
by a check that needs no reference (the fuzz expectation matrix).  The
op's digest, checked against the reference, covers the value and the
simulated counts of every launch the op ran (:func:`launch_log`): a
figure row of ratios can stay 1.0 while cycles move.  An op that raises
has failed too; the pass goes on with the next op.

The inputs are the constants below plus the ``seed``, which every
figure, matrix and campaign call receives.  This module imports the
simulator lazily, so ``run.py`` can list workloads without it.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Overhead-figure benchmarks: the Figure 14 and 17 rows users regenerate.
SWEEP_BENCHMARKS = ("bfs", "gaussian", "kmeans", "particlefilter",
                    "streamcluster")
#: Figure 19's software tools on four Rodinia kernels.
MATRIX_BENCHMARKS = ("bfs", "kmeans", "lud", "particlefilter")
MATRIX_TOOLS = ("cuda-memcheck", "clarmor", "gmod")
#: Fuzz cases per pass; each runs through all six protection configs.
#: How much work a pass holds depends on the seed's draws: at 400 cases
#: pass_s spread by 4.5% (IQR over median, seeds 1-10), at 1000 by 2%.
FUZZ_CASES = 1000

#: Workload -> why it is in the benchmark (mirrored in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "paper-sweep": "Fig 14+17 rows: the overhead figures users regenerate; "
                   "pipeline.access dominates",
    "tool-matrix": "MEMCHECK/clArmor/GMOD cells: executor.step dominates; "
                   "control for pipeline changes",
    "multikernel": "Fig 18 pairs on 8-lane Intel cores: fixed cost per "
                   "pipeline call shows",
    "fuzz": "1000 tiny attack/safe cases x 6 configs: per-launch cost and "
            "the BCU violation path",
}

#: What one op returns: its JSON value and a problem, or None when fine.
OpResult = Tuple[object, Optional[str]]


@dataclass(frozen=True)
class Op:
    op_id: str
    run: Callable[[], OpResult]


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def digest(value) -> str:
    return hashlib.sha256(canonical(value)).hexdigest()


@contextmanager
def launch_log() -> Iterator[List[list]]:
    """While active, every ``GPU.run`` appends its simulated counts to
    the yielded list."""
    from repro.gpu.gpu import GPU

    original = vars(GPU)["run"]
    log: List[list] = []

    def run(self, *args, **kwargs):
        r = original(self, *args, **kwargs)
        log.append([r.cycles, r.instructions, r.mem_instructions,
                    r.transactions, r.bcu_stall_cycles, r.rbt_fills,
                    r.violations, r.aborted])
        return r

    GPU.run = run
    try:
        yield log
    finally:
        GPU.run = original


def _sweep_ops(seed: int) -> List[Op]:
    from repro.analysis import figures

    def row(figure, name):
        return lambda: (asdict(figure([name], seed=seed)), None)

    return ([Op(f"fig14/{n}", row(figures.figure14, n))
             for n in SWEEP_BENCHMARKS]
            + [Op(f"fig17/{n}", row(figures.figure17, n))
               for n in SWEEP_BENCHMARKS])


def _matrix_ops(seed: int) -> List[Op]:
    from repro.analysis.harness import run_protection_matrix

    def cell(name, tool):
        def run():
            matrix = run_protection_matrix([name], tools=(tool,), seed=seed,
                                           jobs=0)
            return matrix[name][tool].to_json(), None
        return run

    return [Op(f"matrix/{n}/{t}", cell(n, t))
            for n in MATRIX_BENCHMARKS for t in MATRIX_TOOLS]


def _multikernel_ops(seed: int) -> List[Op]:
    from repro.analysis import figures
    from repro.workloads.suite import MULTIKERNEL_SET

    def row(a, b):
        return lambda: (figures.figure18([(a, b)], seed=seed), None)

    return [Op(f"fig18/{a}_{b}", row(a, b))
            for i, a in enumerate(MULTIKERNEL_SET)
            for b in MULTIKERNEL_SET[i + 1:]]


def _fuzz_ops(seed: int) -> List[Op]:
    from repro.fuzz import campaign
    from repro.fuzz.generator import CaseGenerator
    from repro.gpu.config import nvidia_config

    config = nvidia_config(num_cores=1)

    def case(spec):
        def run():
            outcome = campaign.run_campaign([spec], seed=seed,
                                            config=config).outcomes[0]
            problem = "; ".join(outcome.cell_failures) or None
            return outcome.to_dict(full=True), problem
        return run

    return [Op(spec.case_id, case(spec))
            for spec in CaseGenerator(seed).draw_many(FUZZ_CASES)]


_BUILDERS = {
    "paper-sweep": _sweep_ops,
    "tool-matrix": _matrix_ops,
    "multikernel": _multikernel_ops,
    "fuzz": _fuzz_ops,
}


def build_ops(workload: str, seed: int) -> List[Op]:
    """The ops of one pass of ``workload``, in execution order."""
    return _BUILDERS[workload](seed)


def result_digest(workload: str, seed: int, values: List[object]) -> str:
    """Digest of a whole pass: the campaign digest for ``fuzz``, else
    the digest of the op values in order."""
    if workload != "fuzz":
        return digest(values)
    from repro.fuzz.campaign import CampaignResult, CaseOutcome
    from repro.fuzz.parallel import campaign_digest
    return campaign_digest(CampaignResult(
        seed=seed, outcomes=[CaseOutcome.from_dict(v) for v in values]))
