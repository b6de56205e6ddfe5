"""Ablation (paper §6.4 / Figure 13): software bounds-check overhead.

In-kernel ``if (idx < n)`` guards cost instructions in every workitem
and diverge when lanes fail the check; the paper measures up to 76%
overhead on real hardware.  GPUShield could subsume these checks.

Fidelity note: per-access software checking *doubles* the instruction
count here exactly as on hardware, but our simulated kernels are
memory-latency-bound with abundant TLP, which hides most of the extra
issue slots — the measured cycle overhead is therefore a lower bound
(a few percent) while the instruction overhead (~2x) reproduces the
mechanism behind the paper's worst case.
"""

from repro import ShieldConfig, nvidia_config
from repro.analysis.harness import run_workload
from repro.baselines.swbounds import kmeans_swap_sw_checks


def test_software_checks_overhead(publish):
    config = nvidia_config()

    def run_all():
        out = {}
        base = run_workload(
            kmeans_swap_sw_checks("unchecked", npoints=8192, nfeatures=8),
            config, None, "unchecked")
        for variant, oversub in (("guarded", 1.0), ("checked", 1.0),
                                 ("checked-divergent", 1.25)):
            name = variant.replace("-divergent", "")
            rec = run_workload(
                kmeans_swap_sw_checks(name, npoints=8192, nfeatures=8,
                                      oversubscribe=oversub),
                config, None, variant)
            out[variant] = {
                "cycles": rec.cycles / base.cycles,
                "instructions": rec.instructions / base.instructions,
            }
        shielded = run_workload(
            kmeans_swap_sw_checks("unchecked", npoints=8192, nfeatures=8),
            config, ShieldConfig(enabled=True), "gpushield")
        out["gpushield-on-unchecked"] = {
            "cycles": shielded.cycles / base.cycles,
            "instructions": shielded.instructions / base.instructions,
        }
        return out

    ratios = run_all()
    lines = ["Ablation: software bounds checks on kmeans-swap "
             "(paper: up to 76% cycle overhead on hardware)"]
    for variant, v in ratios.items():
        lines.append(f"  {variant:24s} cycles {100 * (v['cycles'] - 1):+6.1f}%"
                     f"   instructions {v['instructions']:.2f}x")
    publish("ablation_swcheck", "\n".join(lines), data=ratios,
            metrics={variant + "_cycle_overhead_percent":
                     100 * (v["cycles"] - 1)
                     for variant, v in ratios.items()})

    checked = ratios["checked"]
    # The mechanism: per-access checks double the executed instructions.
    assert checked["instructions"] > 1.8
    assert checked["cycles"] > 1.02
    assert checked["cycles"] > ratios["guarded"]["cycles"]
    assert ratios["checked-divergent"]["cycles"] >= checked["cycles"] - 0.02
    # Hardware checking adds no instructions and near-zero cycles.
    hw = ratios["gpushield-on-unchecked"]
    assert hw["instructions"] < 1.01
    assert hw["cycles"] < checked["cycles"]
