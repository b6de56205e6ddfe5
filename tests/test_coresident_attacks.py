"""§6.2 co-residency: every fuzz attack kind against an honest kernel.

GPUShield gives each kernel random per-kernel IDs and its own key, tags
RCache entries with the kernel ID and can partition the RCaches, so two
kernels sharing one GPU stay isolated.  Each cell here puts one fuzz
attack case (the attacker) and one race-free safe case (the victim) on
one warm 2-core device, runs any pre-launches solo and the two final
launches through :meth:`GpuDevice.run_pair`, and requires:

1. **detection** — at least one violation, every one of them from an
   attacker kernel, and one of them exactly the fault the case's ground
   truth predicts (:func:`expected_fault`);
2. **no false accusation** — no violation from a victim kernel;
3. **no leakage** — the victim's buffer digests equal a solo run of the
   victim on a device at the same seed.

The cells cover both pair modes, shared and partitioned RCaches and
both pair orders, on both engines, and the engines must agree on every
cell.  A safe/safe control per setting must raise nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
from functools import lru_cache

import pytest

from repro.analysis.harness import WorkloadRunner
from repro.core.bcu import BCUConfig
from repro.core.shield import ShieldConfig
from repro.device import acquire_device, release_device
from repro.engine import ENGINES, engine
from repro.fuzz.generator import (CaseGenerator, ShieldMutator,
                                  build_workload, expected_fault)
from repro.fuzz.spec import ATTACK_KINDS
from repro.gpu.config import nvidia_config

SEEDS = (7, 21)
MODES = ("inter_core", "intra_core")
SETTINGS = [(mode, partition, victim_first)
            for mode in MODES
            for partition in (False, True)
            for victim_first in (False, True)]
SETTING_IDS = [f"{mode[:5]}-{'partitioned' if part else 'shared'}-"
               f"{'victim' if vfirst else 'attacker'}-first"
               for mode, part, vfirst in SETTINGS]

#: Violation reasons per kind in the ``inter_core``, shared-RCache,
#: attacker-first cells at seeds 7 and 21, as the retired service
#: attack matrix recorded them.
RECORDED_REASONS = {kind: ["out-of-bounds"] for kind in ATTACK_KINDS}
RECORDED_REASONS.update(stale_replay=["invalid-id"], forged_id=["invalid-id"])


def victim_case(seed: int, index: int):
    """The honest kernel: a safe draw, race-free by construction."""
    case = CaseGenerator(seed + 1000).draw_kind("safe", index)
    assert case.race_verdict == "race-free", case.case_id
    return case


def _digests(runner: WorkloadRunner, case) -> dict:
    """Content digest of each buffer's data (layout-free)."""
    driver = runner.session.driver
    return {name: hashlib.sha256(
                driver.read(runner.buffers[name], case.nbytes)).hexdigest()
            for name in case.buffer_names}


def _device(seed: int, partition: bool):
    shield = ShieldConfig(enabled=True,
                          bcu=BCUConfig(partition_rcache=partition))
    return acquire_device(nvidia_config(num_cores=2), shield, seed=seed)


def _runner(case, device):
    mutator = ShieldMutator(case)
    runner = WorkloadRunner(build_workload(case), seed=case.seed & 0xFFFF,
                            allow_violations=True, launch_mutator=mutator,
                            device=device)
    return runner, mutator


def run_pair(attacker, victim, *, seed: int, mode: str, partition: bool,
             victim_first: bool) -> dict:
    """Run ``attacker`` and ``victim`` co-resident on one device.

    ``victim_first`` picks which case allocates, prepares and sits first
    in the pair.  Returns the attacker and victim kernel IDs, every
    violation, whether one matches the attacker's expected fault, and
    the victim's buffer digests.
    """
    device = _device(seed, partition)
    try:
        sides = [_runner(case, device) for case in
                 ((victim, attacker) if victim_first else (attacker, victim))]
        violations = []
        for runner, _mut in sides:      # pre-launches run solo
            for i, run in enumerate(runner.workload.runs[:-1]):
                launch = runner.prepare_launch(run, i)
                device.gpu.run(launch)
                violations.extend(device.driver.finish(launch))
        finals = [runner.prepare_launch(runner.workload.runs[-1],
                                        len(runner.workload.runs) - 1)
                  for runner, _mut in sides]
        violations.extend(device.run_pair(finals, mode)[1])
        (a_run, a_mut), (v_run, v_mut) = sides[::-1] if victim_first \
            else sides
        want = expected_fault(attacker, a_run, a_mut)
        return {
            "attacker_ids": {c.kernel_id for c in a_mut.captures},
            "victim_ids": {c.kernel_id for c in v_mut.captures},
            "violations": [dataclasses.astuple(v) for v in violations],
            "reasons": sorted({v.reason for v in violations}),
            "expected_seen": want is not None
            and any(want.matches(v) for v in violations),
            "victim_digests": _digests(v_run, victim),
        }
    finally:
        release_device(device)


def run_solo(case, *, seed: int, partition: bool) -> dict:
    """The case alone on a device at ``seed``: its buffer digests."""
    device = _device(seed, partition)
    try:
        runner, _mut = _runner(case, device)
        runner.run()
        return _digests(runner, case)
    finally:
        release_device(device)


@lru_cache(maxsize=None)
def cell(eng: str, seed: int, kind: str, setting: tuple) -> dict:
    """One matrix cell on engine ``eng``; ``kind == "safe"`` is the
    setting's safe/safe control."""
    mode, partition, victim_first = setting
    index = len(ATTACK_KINDS) if kind == "safe" \
        else ATTACK_KINDS.index(kind)
    attacker = CaseGenerator(seed).draw_kind(kind, index)
    victim = victim_case(seed, index)
    with engine(eng):
        out = run_pair(attacker, victim, seed=seed, mode=mode,
                       partition=partition, victim_first=victim_first)
        out["solo_digests"] = run_solo(victim, seed=seed,
                                       partition=partition)
    return out


@pytest.mark.parametrize("eng", ENGINES)
@pytest.mark.parametrize("setting", SETTINGS, ids=SETTING_IDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_attack(kind, seed, setting, eng):
    """The attack is detected, blamed on the attacker alone, and leaves
    the victim's buffers as a solo run leaves them."""
    out = cell(eng, seed, kind, setting)
    assert out["violations"], "attack went undetected"
    kernels = {v[0] for v in out["violations"]}     # ViolationRecord.kernel_id
    assert not kernels & out["victim_ids"], \
        "a violation was blamed on the victim"
    assert kernels <= out["attacker_ids"], \
        "a violation came from an unknown kernel"
    assert out["expected_seen"], "no violation matches the expected fault"
    assert out["victim_digests"] == out["solo_digests"], \
        "victim buffers drifted under co-residency"


@pytest.mark.parametrize("eng", ENGINES)
@pytest.mark.parametrize("setting", SETTINGS, ids=SETTING_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_control(seed, setting, eng):
    """Two honest kernels co-resident: no violation, no drift."""
    out = cell(eng, seed, "safe", setting)
    assert out["violations"] == []
    assert out["victim_digests"] == out["solo_digests"]


@pytest.mark.parametrize("setting", SETTINGS, ids=SETTING_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree(seed, setting):
    for kind in ATTACK_KINDS + ("safe",):
        slow, fast = (cell(eng, seed, kind, setting) for eng in ENGINES)
        assert slow == fast, f"{kind}: slow and fast engines disagree"


@pytest.mark.parametrize("seed", SEEDS)
def test_inter_core_reasons_match_the_recorded_matrix(seed):
    """The ``inter_core``, shared, attacker-first cells keep the reasons
    the retired service attack matrix reported at this seed."""
    setting = ("inter_core", False, False)
    for kind in ATTACK_KINDS:
        assert cell("fast", seed, kind, setting)["reasons"] \
            == RECORDED_REASONS[kind], kind


@pytest.mark.parametrize("seed", SEEDS)
def test_victims_are_race_free_by_construction(seed):
    """Every victim draw is a valid leakage witness, with no rejection
    sampling: the generator reserves the probe slot of safe cases."""
    for index in range(len(ATTACK_KINDS) + 1):
        case = victim_case(seed, index)
        assert case.kind == "safe"
        assert case.race_verdict == "race-free"


def test_self_racing_victim_would_break_the_leakage_check():
    """Why victims must be race-free: a safe case whose probe store hits
    another live thread's slot races with itself, so its digests drift
    between the solo and the paired run with no attacker involved.  The
    drift must stay reproducible, or this guard proves nothing."""
    seed, index = 21, 1
    base = victim_case(seed, index)
    # Three workgroups: the racing threads can land on different cores.
    assert base.workgroups >= 2
    assert min(base.elems, base.total_threads) > base.wg_size
    racy = base.with_(benign_rounds=max(1, base.benign_rounds),
                      probe=base.wg_size + 1, attack_is_store=True)
    assert racy.race_verdict == "may-race"

    from repro.racedetect.scan import scan_case
    assert scan_case(racy).scan.dynamic_verdict == "races"

    honest = CaseGenerator(seed).draw_kind("safe", index)
    paired = run_pair(honest, racy, seed=seed, mode="inter_core",
                      partition=False, victim_first=False)
    assert paired["violations"] == []
    assert (paired["victim_digests"]
            != run_solo(racy, seed=seed, partition=False)), \
        "racy safe case no longer schedule-sensitive; guard is moot"
