"""Figure 11: 4KB pages per buffer across the Rodinia suite."""


def test_figure11(regenerate):
    final = regenerate("fig11")
    avg = final["metrics"]["avg_pages_per_buffer"]
    # Paper: 1425 pages per buffer on average; shape check: within 2x.
    assert 700 < avg < 2900
    # The long tail (hybridsort-style) exists.
    assert max(final["data"].values()) > 5 * avg
