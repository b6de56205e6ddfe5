"""Table 3: area and power overhead of the BCU structures."""


def test_table3(regenerate):
    total = regenerate("table3")["metrics"]
    assert abs(total["sram_bytes"] - 909.5) < 1.0
    assert abs(total["area_mm2"] - 0.0858) < 0.001
    assert abs(total["leakage_uw"] - 799.75) < 1.0
    assert abs(total["dynamic_mw"] - 203.36) < 1.0
