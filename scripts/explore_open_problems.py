#!/usr/bin/env python3
"""Exploratory search around the open questions: anti-orbit structure of the
unitary totient and orbit/anti-orbit structure of d_l for l >= 3.

Everything printed here is EXPERIMENTAL evidence (finite prefixes found by a
greedy search), never a verdict about the infinite quantities.
"""
import argparse
import sys

from arithdyn import arithfun as af
from arithdyn import dynamics as dy


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-start", type=int, default=300)
    ap.add_argument("--max-depth", type=int, default=12)
    ap.add_argument("--max-families", type=int, default=8)
    args = ap.parse_args()
    # a size below 1 is refused as the CLI's search refuses it, naming the flag
    for flag, value in (("--max-start", args.max_start), ("--max-depth", args.max_depth),
                        ("--max-families", args.max_families)):
        if value < 1:
            print(f"error: {flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    budget = dy.SearchBudget(max_start=args.max_start, max_depth=args.max_depth,
                             max_families=args.max_families)

    targets = [
        (af.PHI_STAR, dy.BACKWARD, "a(phi_star): open in the source material"),
        (af.divisor_count(3), dy.FORWARD, "o(d_3): open"),
        (af.divisor_count(3), dy.BACKWARD, "a(d_3): open"),
        (af.divisor_count(4), dy.BACKWARD, "a(d_4): open"),
    ]
    for fn, direction, label in targets:
        found = dy.search_families(fn, budget, direction)
        arrow = "forward orbit" if direction == dy.FORWARD else "anti-orbit"
        print(f"\n== {label} | greedy {arrow} prefixes for {fn} (EXPERIMENTAL)")
        if not found:
            print("   none within budget")
        for cand in found:
            head = ", ".join(map(str, cand.values[:8]))
            more = " ..." if len(cand.values) > 8 else ""
            print(f"   depth {len(cand.values)}: {head}{more}")
    print("\nPrefixes are evidence only; no claims are recorded.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
