"""Figure 16: L1 RCache hit rate on the Intel GPU architecture.

Same sweep as Figure 15 but over the 17 OpenCL benchmarks on the
Intel configuration (SIMD8 sub-workgroups, Method-C addressing).
"""


def test_figure16(regenerate):
    final = regenerate("fig16")
    # Paper: near-100% hit rate with 4 entries for most benchmarks.
    assert final["metrics"]["hit_rate_4entry"] > 0.85
