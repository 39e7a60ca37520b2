#!/usr/bin/env python3
"""Run the whole certification battery at a chosen scale and print one line
per claim.  Deeper/wider runs strengthen every certified lower bound:

    python scripts/certify_at_depth.py --families 50 --depth 100 --bound 200000

Every family scheme (dynamics.Scheme) runs at --families.  Where --depth
is past a scheme's cap (ToolConfig.depth_cap for phi-anti, psi-orbit and
j2-orbit, ToolConfig.tower_depth_cap for d-anti, omega-anti and
smallomega-anti), that scheme runs at its own default depth (Scheme.size,
verify-lemma's "registry depth") instead and its line says so, naming the
cap's key; every printed certificate names the depth it holds at.
"""
import argparse
import sys
import time

from arithdyn import arithfun as af
from arithdyn import dynamics as dy
from arithdyn import topology as tp
from arithdyn.config import DEFAULT_CONFIG


def main() -> int:
    families, depth = dy.Scheme.PHI_ANTI.size  # the non-tower schemes' size
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--families", type=int, default=families)
    ap.add_argument("--depth", type=int, default=depth)
    ap.add_argument("--bound", type=int, default=100_000,
                    help="monotone/topology sweep bound")
    args = ap.parse_args()
    config = DEFAULT_CONFIG
    failures = 0

    def show(label, report, note=""):
        nonlocal failures
        ok = report.passed
        failures += 0 if ok else 1
        detail = report.certified_bound if ok else report.counterexample.describe()
        print(f"{'PASS' if ok else 'FAIL'}  {label:<28} {detail}{note}")

    t0 = time.time()
    for scheme in dy.Scheme:
        depth, note = args.depth, ""
        cap = dy.scheme_depth_cap(scheme, config)
        if depth > cap:
            depth = scheme.size[1]
            note = f" (--depth {args.depth} is past {scheme.cap_key} = {cap}; registry depth)"
        specs = dy.default_family_specs(scheme, args.families)
        show(scheme.value, dy.verify_disjoint(specs, depth, config), note)

    sweep = af.catalogue_monotone_sweep(args.bound, config=config)
    bad = {k: v for k, v in sweep.items() if v is not None}
    print(f"{'PASS' if not bad else 'FAIL'}  monotone hypotheses         "
          f"{len(sweep)} checks on 1..{args.bound}"
          + (f"; violations {bad}" if bad else ""))
    failures += bool(bad)

    show("connected-forward phi", tp.contains_one_forward(af.PHI, args.bound, config))
    show("separation psi", tp.separation_check(af.PSI, args.bound, config))
    show("tau-subset psi", tp.verify_tau_subset(af.PSI, args.bound, config))
    show("taubar-subset phi", tp.verify_taubar_subset(af.PHI, args.bound, config))

    print(f"\n{failures} failures, {time.time() - t0:.1f}s total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
