"""Figure 1: distribution of buffer counts over 145 benchmarks."""


def test_figure1(regenerate):
    summary = regenerate("fig1")["data"]["summary"]
    assert summary["benchmarks"] == 145
    assert abs(summary["average"] - 6.5) < 0.1
