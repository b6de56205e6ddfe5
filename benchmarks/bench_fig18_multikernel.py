"""Figure 18: concurrent multi-kernel execution on the Intel GPU.

All 21 pairs of the seven memory-intensive OpenCL benchmarks run in
inter-core (split SMs) and intra-core (shared SMs) modes, normalized to
the same pair without bounds checking.  Expected shape (paper): average
overhead under ~1%, worst pairs a few percent.
"""

from repro.analysis.results import geomean


def test_figure18(regenerate):
    data = regenerate("fig18")["data"]
    inter = geomean([v["inter_core"] for v in data.values()])
    intra = geomean([v["intra_core"] for v in data.values()])

    # Paper: <0.3% average overhead; allow a loose band for the model.
    assert inter < 1.08
    assert intra < 1.08
