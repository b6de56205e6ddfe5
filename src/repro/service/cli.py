"""``python -m repro serve`` — run the multi-tenant serving simulator.

Usage::

    python -m repro serve --tenants 3 --attackers 1 --requests 20
    python -m repro serve --tenants 2 --jobs 4 --out artifacts/service/
    python -m repro serve --attack-matrix
    python -m repro serve --tenants 2 --no-coresidency --devices 1

Prints the per-tenant service table (served/shed/expired counts,
p50/p99 latency in simulated cycles, queue peaks) and the audit digest.
With ``--out`` the append-only audit log (``audit.jsonl``) and the full
report (``service_report.json``) land in the output directory.
``--attack-matrix`` replays every fuzz attack kind across a tenant
boundary instead of (or in addition to) the trace, and fails the run
unless detection is 100% with zero cross-tenant leakage.

Exit status: 0 on success, 1 when the attack matrix finds a gap or a
tenant suffered unattributed violations, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.fuzz.spec import ATTACK_KINDS
from repro.runner.sweep import ensure_out_dir
from repro.service.attacks import render_matrix, run_attack_matrix
from repro.service.audit import write_audit_log
from repro.service.simulator import ServiceConfig, run_service
from repro.service.tenant import default_tenants


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Multi-tenant GPU serving simulator over the warm "
                    "device pool.")
    parser.add_argument("--tenants", type=int, default=2,
                        help="number of tenants (default 2)")
    parser.add_argument("--attackers", type=int, default=0,
                        help="how many tenants mix in attack cases "
                             "(default 0)")
    parser.add_argument("--attack-ratio", type=float, default=0.5,
                        help="attack probability per attacker request "
                             "(default 0.5)")
    parser.add_argument("--requests", type=int, default=10,
                        help="requests per tenant (default 10)")
    parser.add_argument("--seed", type=int, default=1,
                        help="service seed (default 1)")
    parser.add_argument("--devices", type=int, default=2,
                        help="simulated device count (default 2)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for placement execution "
                             "(0 = serial in-process, the default)")
    parser.add_argument("--coresidency", dest="coresidency",
                        action="store_true", default=True,
                        help="pair kernels from different tenants on one "
                             "device (default)")
    parser.add_argument("--no-coresidency", dest="coresidency",
                        action="store_false",
                        help="one request per device at a time")
    parser.add_argument("--fail-every", type=int, default=0,
                        help="inject a device failure every Nth placement "
                             "(0 disables)")
    parser.add_argument("--tenant-file", default=None, metavar="FILE",
                        help="JSON list of TenantSpec dicts (overrides "
                             "--tenants/--attackers)")
    parser.add_argument("--attack-matrix", action="store_true",
                        help="also replay every attack kind across a "
                             "tenant boundary and verify isolation")
    parser.add_argument("--matrix-only", action="store_true",
                        help="run only the attack matrix, no trace")
    parser.add_argument("--out", default=None,
                        help="directory for audit.jsonl and "
                             "service_report.json")
    return parser.parse_args(argv)


def _build_config(args) -> ServiceConfig:
    if args.tenant_file:
        with open(args.tenant_file) as fh:
            from repro.service.tenant import TenantSpec
            tenants = tuple(TenantSpec.from_dict(t)
                            for t in json.load(fh))
        cfg = ServiceConfig(
            tenants=tenants, requests_per_tenant=args.requests,
            seed=args.seed, num_devices=args.devices,
            coresidency=args.coresidency, fail_every=args.fail_every)
        cfg.validate()
        return cfg
    cfg = ServiceConfig(
        tenants=tuple(default_tenants(args.tenants,
                                      attackers=args.attackers,
                                      attack_ratio=args.attack_ratio)),
        requests_per_tenant=args.requests, seed=args.seed,
        num_devices=args.devices, coresidency=args.coresidency,
        fail_every=args.fail_every)
    cfg.validate()
    return cfg


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if args.tenants < 1 or args.attackers < 0 \
            or args.attackers > args.tenants:
        print("need 1+ tenants and 0 <= attackers <= tenants",
              file=sys.stderr)
        return 2
    if not 0.0 <= args.attack_ratio <= 1.0:
        print("--attack-ratio must be in [0, 1]", file=sys.stderr)
        return 2
    if not ensure_out_dir(args.out):
        return 2

    failed = False
    matrix = None
    if args.attack_matrix or args.matrix_only:
        matrix = run_attack_matrix(seed=args.seed + 6,
                                   kinds=list(ATTACK_KINDS))
        print(render_matrix(matrix))
        if not matrix["all_pass"]:
            failed = True

    report = None
    if not args.matrix_only:
        cfg = _build_config(args)
        reporter = None
        if args.jobs > 0:
            from repro.runner import HeartbeatReporter
            reporter = HeartbeatReporter(0, label="serve")
        report = run_service(cfg, jobs=args.jobs, reporter=reporter)
        if matrix is not None:
            print()
        print(report.summary_text())
        # Violations attributed to nobody would be an audit hole.
        unattributed = [e for e in report.events
                        if e.kind == "violation" and not e.tenant]
        if unattributed:
            print(f"\n{len(unattributed)} violation(s) could not be "
                  f"attributed to a tenant", file=sys.stderr)
            failed = True

    if args.out:
        if report is not None:
            write_audit_log(
                os.path.join(args.out, "audit.jsonl"), report.events,
                meta={"seed": report.config.seed,
                      "tenants": [t.tenant_id
                                  for t in report.config.tenants],
                      "requests": report.requests})
        payload = {}
        if report is not None:
            payload.update(report.to_dict())
        if matrix is not None:
            payload["attack_matrix"] = matrix
        with open(os.path.join(args.out, "service_report.json"),
                  "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\nartifacts written to {args.out}/")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
