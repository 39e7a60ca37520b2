"""The benchmark's workloads: operation lists made from a seed, and the
answers each operation must give.

An operation is a JSON-able dict that child.py executes.  Its check is a
function of the child's result that returns None when the result is right
and a short reason when it is not.  Expected answers are
written by hand from the request (certificate texts, verdicts, depths,
family counts) or computed by ``oracle``; none comes from arithdyn.
"""
from __future__ import annotations

import json
import random

import oracle

WORKLOADS = ("certify", "sweep", "closure")

# verify-lemma id -> (scheme, symbol of the certified number, function,
# families, depth).  Every depth is within the default scheme cap, so a
# silent clamp shows as a wrong depth, not as a cheaper run.
LEMMAS = {
    "phi-antiorbit": ("phi-anti", "a", "phi", 50, 100),
    "psi-orbit": ("psi-orbit", "o", "psi", 50, 100),
    "j2-orbit": ("j2-orbit", "o", "J_2", 20, 30),
    "d-antiorbit": ("d-anti", "a", "d", 20, 5),
    "omega-antiorbit": ("omega-anti", "a", "Omega", 10, 5),
    "smallomega-antiorbit": ("smallomega-anti", "a", "omega", 10, 6),
}
TABLE_FAMILIES, TABLE_DEPTH, TABLE_BOUND = 5, 20, 10_000

SWEEP_BOUND = 40_000        # monotone sweep, identities, connectivity table
SUBSET_BOUND = 8_000        # tau / taubar subset checks
VALUE_TABLE_BOUND = 250_000  # one long phi pass, the largest spf table
VALUE_TABLE_SAMPLES = 500

PSI_CLOSURE_POINT = 7_776    # 2^5 3^5
PHI_CLOSURE_SCAN = 2_000
SEARCH_MAX_START, SEARCH_MAX_DEPTH, SEARCH_MAX_FAMILIES = 30, 8, 10
SEARCH_SCAN = 5_000          # SearchBudget's default scan_bound
INVERSE_PHI_MAX, INVERSE_PHI_STRATA = 3_000, 300
FORWARD_MAX, FORWARD_STRATA = 200, 20
FORWARD_MAX_STEPS, FORWARD_VALUE_BITS = 512, 120


def _jitter(rng: random.Random, base: int) -> int:
    """base plus under 1%: distinct inputs per seed at a near-equal cost."""
    return base + rng.randrange(base // 100)


def _stratified(rng: random.Random, top: int, strata: int) -> list[int]:
    """One draw from each of `strata` equal slices of 1..top, so every seed
    costs about the same."""
    width = top // strata
    return [i * width + 1 + rng.randrange(width) for i in range(strata)]


def _cli_report(out: dict, command: str, results_check) -> str | None:
    if out.get("rc") != 0:
        return f"exit code {out.get('rc')}, expected 0"
    try:
        report = json.loads(out["out"])
    except (KeyError, ValueError) as exc:
        return f"unparseable report: {exc}"
    if report.get("command") != command or report.get("status") != "PASS":
        return f"{report.get('command')} -> {report.get('status')}, expected {command} -> PASS"
    return results_check(report["results"])


def _same(expected):
    def check(got):
        return None if got == expected else f"expected {expected!r}, got {got!r}"
    return check


def _subset(expected: dict):
    """The keys of `expected` must match exactly; others are not checked."""
    def check(got):
        wrong = {k: got.get(k) for k in expected if got.get(k) != expected[k]}
        return None if not wrong else f"expected {expected!r}, got {wrong!r}"
    return check


def _lemma_payload(lemma: str, depth: int, bound: str, families: int = 1) -> dict:
    return {"lemma": lemma, "families_checked": families, "depth": depth,
            "status": "PASS", "certified_bound": bound}


def _certify(rng: random.Random):
    ops, checks = [], []
    for lemma, (scheme, sym, fn, fams, depth) in LEMMAS.items():
        ops.append({"op": "cli", "argv": ["verify-lemma", lemma, "--families", str(fams),
                                          "--depth", str(depth)]})
        want = _lemma_payload(f"{scheme} x{fams} depth {depth}", depth,
                              f"{sym}({fn}) >= {fams} certified at depth {depth}", fams)
        checks.append(lambda out, c=_subset(want): _cli_report(out, "verify-lemma", c))

    bound = _jitter(rng, TABLE_BOUND)
    ops.append({"op": "cli", "argv": ["table", "orbit-numbers", "--families", str(TABLE_FAMILIES),
                                      "--depth", str(TABLE_DEPTH), "--bound", str(bound)]})
    cond = f"0 (conditional: hypothesis verified up to {bound} only)"

    def certified(sym, fn, fams, depth):
        return f"{sym}({fn}) >= {fams} certified at depth {depth}"

    table = {
        "table": "orbit-numbers",
        "monotone_bound": bound,
        "monotone_hypothesis_failures": {},
        "note": ("certified lower bounds at finite depth; "
                 "infinitude is a theorem, not a computation"),
        "rows": [
            {"functions": "phi (=J_1)", "orbit_number": cond,
             "anti_orbit_number": certified("a", "phi", TABLE_FAMILIES, TABLE_DEPTH)},
            {"functions": "d (=d_2)", "orbit_number": cond,
             "anti_orbit_number": certified("a", "d", 5, 5)},
            {"functions": "Omega", "orbit_number": cond,
             "anti_orbit_number": certified("a", "Omega", 5, 5)},
            {"functions": "omega", "orbit_number": cond,
             "anti_orbit_number": certified("a", "omega", 5, 6)},
            {"functions": "phi_star", "orbit_number": cond,
             "anti_orbit_number": "open problem; no verdict (see `search`)"},
            {"functions": "J_2", "anti_orbit_number": cond,
             "orbit_number": certified("o", "J_2", TABLE_FAMILIES, TABLE_DEPTH)},
            {"functions": "psi (=psi_1)", "anti_orbit_number": cond,
             "orbit_number": certified("o", "psi", TABLE_FAMILIES, TABLE_DEPTH)},
            {"functions": "sigma_k, psi_k, J_(k+2) (k <= 3)", "anti_orbit_number": cond,
             "orbit_number": f"> 0 (conditional: hypothesis verified up to {bound} only)"},
        ],
    }
    checks.append(lambda out: _cli_report(out, "table", _same(table)))
    return ops, checks


def _sweep(rng: random.Random):
    bound = _jitter(rng, SWEEP_BOUND)
    subset = _jitter(rng, SUBSET_BOUND)
    vt_bound = _jitter(rng, VALUE_TABLE_BOUND)
    samples = sorted(rng.sample(range(1, vt_bound + 1), VALUE_TABLE_SAMPLES))
    names = ["phi <= n", "phi_star <= n", "Omega <= n", "omega <= n", "d <= n",
             "psi > n", "J_2 > n"]
    for k in (1, 2, 3):
        names += [f"sigma_{k} > n", f"psi_{k} > n", f"J_{k + 2} > n"]
    connected = f"connected (conditional: f(n) < n verified to {bound})"
    disconnected = f"disconnected (conditional: f(n) >= n verified to {bound})"
    connectivity = {
        "table": "connectivity", "bound": bound,
        "rows": ([{"function": f, "verdict": connected}
                  for f in ("phi", "phi_star", "omega", "Omega")]
                 + [{"function": "d", "verdict":
                     "no verdict: hypothesis f(n) < n fails at n = 2"}]
                 + [{"function": f, "verdict": disconnected}
                    for f in ("psi", "psi_2", "J_2", "J_3", "sigma_1", "sigma_2")]),
        "note": ("d(2) = 2 breaks the strict-decrease hypothesis, so the "
                 "connectivity lemma does not apply to d; no verdict is emitted"),
    }
    ops = [
        {"op": "monotone_sweep", "bound": bound},
        {"op": "identity", "k": 1, "bound": bound},
        {"op": "identity", "k": 2, "bound": bound},
        {"op": "cli", "argv": ["table", "connectivity", "--bound", str(bound)]},
        {"op": "tau_subset", "bound": subset},
        {"op": "taubar_subset", "bound": subset},
        {"op": "value_table", "bound": vt_bound, "samples": samples},
    ]
    checks = [
        _same({name: None for name in names}),
        _subset(_lemma_payload("psi-jordan-identity k=1", bound,
                               f"psi_1*J_1 = J_2 verified for n <= {bound}")),
        _subset(_lemma_payload("psi-jordan-identity k=2", bound,
                               f"psi_2*J_2 = J_4 verified for n <= {bound}")),
        lambda out: _cli_report(out, "table", _same(connectivity)),
        _subset(_lemma_payload("tau-subset psi", subset,
                               f"V(k, tau_psi) within {{1..k}} for all k <= {subset}")),
        _subset(_lemma_payload("taubar-subset phi", subset,
                               f"V(k, taubar_phi) within {{1..k}} for all k <= {subset}")),
        _same({"length": vt_bound + 1, "head": [0, 1],
               "samples": [oracle.phi(n) for n in samples]}),
    ]
    return ops, checks


def _closure(rng: random.Random):
    targets = _stratified(rng, INVERSE_PHI_MAX, INVERSE_PHI_STRATA)
    starts = _stratified(rng, FORWARD_MAX, FORWARD_STRATA)
    fibres = oracle.phi_fibres(INVERSE_PHI_MAX)
    psi_members = oracle.psi_closure(PSI_CLOSURE_POINT)
    phi_members, phi_truncated = oracle.phi_closure(2, PHI_CLOSURE_SCAN)
    ops = [
        {"op": "min_open_backward", "fn": "psi", "x": PSI_CLOSURE_POINT},
        {"op": "min_open_backward", "fn": "phi", "x": 2, "scan_bound": PHI_CLOSURE_SCAN},
        {"op": "search_backward", "fn": "phi_star", "max_start": SEARCH_MAX_START,
         "max_depth": SEARCH_MAX_DEPTH, "max_families": SEARCH_MAX_FAMILIES,
         "scan_bound": SEARCH_SCAN},
        {"op": "surjective_core", "fn": "psi", "x": PSI_CLOSURE_POINT},
        {"op": "inverse_phi", "targets": targets},
        {"op": "min_open_forward", "fn": "psi", "starts": starts,
         "max_steps": FORWARD_MAX_STEPS, "value_bits": FORWARD_VALUE_BITS},
    ]
    forward = [oracle.psi_forward(x, FORWARD_MAX_STEPS, FORWARD_VALUE_BITS) for x in starts]
    checks = [
        _same({"members": psi_members, "completeness": "COMPLETE", "truncation_bound": None}),
        _same({"members": phi_members,
               "completeness": "TRUNCATED" if phi_truncated else "COMPLETE",
               "truncation_bound": PHI_CLOSURE_SCAN if phi_truncated else None}),
        _same(oracle.phi_star_backward_search(SEARCH_MAX_START, SEARCH_MAX_DEPTH,
                                              SEARCH_MAX_FAMILIES, SEARCH_SCAN)),
        # a point is in the surjective core iff its closure holds a fixed point
        _same(any(oracle.psi(n) == n for n in psi_members)),
        _same([fibres.get(m, []) for m in targets]),
        _same([{"members": members,
                "completeness": "TRUNCATED" if cut else "COMPLETE",
                "truncation_bound": FORWARD_MAX_STEPS if cut else None}
               for members, cut in forward]),
    ]
    return ops, checks


def build(workload: str, seed: int):
    """(operations, checks) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    return {"certify": _certify, "sweep": _sweep, "closure": _closure}[workload](rng)
