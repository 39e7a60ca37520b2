#!/usr/bin/env python3
"""Run the whole certification battery at a chosen scale and print one line
per claim.  Deeper/wider runs strengthen every certified lower bound:

    python scripts/certify_at_depth.py --families 50 --depth 100 --bound 200000

A scheme whose depth cap (ToolConfig.depth_cap_*) is below --depth runs at
its cap; every printed certificate names the depth it holds at.
"""
import argparse
import sys
import time

from arithdyn import arithfun as af
from arithdyn import dynamics as dy
from arithdyn import topology as tp
from arithdyn.config import DEFAULT_CONFIG


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--families", type=int, default=20)
    ap.add_argument("--depth", type=int, default=30)
    ap.add_argument("--bound", type=int, default=100_000,
                    help="monotone/topology sweep bound")
    args = ap.parse_args()
    config = DEFAULT_CONFIG
    failures = 0

    def show(label, report):
        nonlocal failures
        ok = report.passed
        failures += 0 if ok else 1
        detail = report.certified_bound if ok else report.counterexample.describe()
        print(f"{'PASS' if ok else 'FAIL'}  {label:<28} {detail}")

    t0 = time.time()
    for scheme in dy.Scheme:
        depth = min(args.depth, dy.scheme_depth_cap(scheme, config))
        rep = dy.verify_disjoint(dy.default_family_specs(scheme, args.families), depth, config)
        show(scheme.value, rep)

    sweep = af.catalogue_monotone_sweep(args.bound, config=config)
    bad = {k: v for k, v in sweep.items() if v is not None}
    print(f"{'PASS' if not bad else 'FAIL'}  monotone hypotheses         "
          f"{len(sweep)} checks on 1..{args.bound}"
          + (f"; violations {bad}" if bad else ""))
    failures += bool(bad)

    show("connected-forward phi", tp.contains_one_forward(af.PHI, args.bound, config))
    show("separation psi", tp.separation_check(af.PSI, args.bound, config))
    show("tau-subset psi", tp.verify_tau_subset(af.PSI, min(args.bound, 20_000), config))
    show("taubar-subset phi", tp.verify_taubar_subset(af.PHI, min(args.bound, 20_000), config))

    print(f"\n{failures} failures, {time.time() - t0:.1f}s total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
