"""Figure 15: L1 RCache size sensitivity (Nvidia, 17 benchmarks).

Sweeps the L1 RCache from 1 to 16 entries over the RCache-sensitive
benchmark set.  Expected shape (paper): hit rate grows with size and a
4-entry L1 RCache reaches ~100% for most benchmarks.
"""


def test_figure15(regenerate):
    final = regenerate("fig15")
    for name, vals in final["data"].items():
        # Monotone non-decreasing hit rate with capacity.
        rates = [vals[s] for s in sorted(vals, key=int)]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:])), name
    # 4 entries suffice on (geometric) average — the paper's conclusion.
    assert final["metrics"]["hit_rate_4entry"] > 0.85
