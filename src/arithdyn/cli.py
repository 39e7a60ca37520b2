"""Command-line surface: evaluation, preimages, families, lemma
verification, entropy estimates, topology checks and table reproduction.

Reports serialize deterministically (stable key order; timestamp
suppressible), so identical invocations produce byte-identical JSON.
Exit codes: 0 = PASS/INFO, 1 = FAIL, 2 = usage/budget error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable, Optional

from . import __version__
from .config import DEFAULT_CONFIG, ToolConfig
from . import arithfun as af
from . import dynamics as dy
from . import preimage as pre
from . import topology as tp
from .factorint import (
    BudgetExceeded, ComparisonUndecided, FactoredNatural, OVERFLOW, factorize,
    to_integer,
)
from .preimage import NotExpansive, NotFiniteFibre
from .reports import VerificationReport

SCHEMA_VERSION = 1


@dataclass
class Report:
    command: str
    parameters: dict
    results: Any
    status: str  # PASS | FAIL | INFO
    config: ToolConfig
    timestamp: Optional[str]

    def to_dict(self) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "status": self.status,
            "provenance": {
                "tool": "arithdyn",
                "version": __version__,
                "config": self.config.snapshot(),
            },
        }
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        return out


def parse_function_args(args) -> af.FunctionId:
    """--fn with optional --k/--l: `--fn J --k 2` equals `--fn J_2`."""
    param = getattr(args, "k", None)
    if param is None:
        param = getattr(args, "l", None)
    if param is not None:
        base = {"J": af.jordan, "jordan": af.jordan, "psi": af.generalized_psi,
                "d": af.divisor_count, "sigma": af.sigma}.get(args.fn)
        if base is None:
            raise ValueError(f"--k/--l applies to J, psi, d, sigma; not {args.fn!r}")
        return base(param)
    return af.parse_function(args.fn)


def render_value(v, config: ToolConfig) -> Any:
    """JSON-friendly rendering; huge integers become bit-length stubs, and
    factored values past the configured bit budget render as OVERFLOW."""
    if isinstance(v, FactoredNatural):
        out: dict[str, Any] = {"factored": repr(v)}
        iv = to_integer(v, config)
        out["value"] = "OVERFLOW" if iv is OVERFLOW else render_value(iv, config)
        return out
    if isinstance(v, int):
        return v if abs(v) < 10 ** 18 else f"<{v.bit_length()}-bit integer>"
    if v is OVERFLOW:
        return "OVERFLOW"
    return repr(v)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (status, results)


def _cmd_eval(args, config) -> tuple[str, Any]:
    f = parse_function_args(args)
    value = af.evaluate(f, factorize(args.n, config), config)
    return "INFO", {"function": str(f), "n": args.n, "value": render_value(value, config)}


def _cmd_oracle_eval(args, config) -> tuple[str, Any]:
    f = parse_function_args(args)
    value = af.oracle_evaluate(f, args.n, config)
    return "INFO", {"function": str(f), "n": args.n, "value": render_value(value, config),
                    "method": "definitional brute force"}


def _cmd_preimage(args, config) -> tuple[str, Any]:
    f = parse_function_args(args)
    if f == af.PHI or pre.is_expansive_family(f):
        result = pre.PreimageResult(
            args.m, pre.complete_preimage(f, args.m, config), pre.COMPLETE)
        method = ("divisor-driven inverse totient" if f == af.PHI
                  else "divisor-driven inversion (complete)")
    elif args.bound is not None:
        result = pre.preimage_bounded(f, args.m, args.bound, config)
        method = f"bounded scan of 1..{args.bound}"
    else:
        raise NotFiniteFibre(
            f"{f} admits no complete enumeration; pass --bound for a bounded search")
    return "INFO", {
        "function": str(f), "target": args.m, "members": list(result.members),
        "completeness": result.completeness, "search_bound": result.search_bound,
        "method": method,
    }


def _cmd_inverse_phi(args, config) -> tuple[str, Any]:
    result = pre.inverse_phi(args.m, config)
    return "INFO", {"target": args.m, "members": list(result.members),
                    "completeness": result.completeness}


def _cmd_phi_bound(args, config) -> tuple[str, Any]:
    bound = pre.phi_bound(args.m, config)
    return "INFO", {"m": args.m, "bound": render_value(bound, config)}


def _cmd_orbit(args, config) -> tuple[str, Any]:
    f = parse_function_args(args)
    seq = [args.n]
    for _ in range(args.depth - 1):
        seq.append(af.evaluate_int(f, seq[-1], config))
    return "INFO", {"function": str(f), "start": args.n,
                    "iterates": [render_value(v, config) for v in seq]}


def _parse_scheme(name: str) -> dy.Scheme:
    for s in dy.Scheme:
        if s.value == name:
            return s
    raise ValueError(f"unknown scheme {name!r}; one of "
                     + ", ".join(s.value for s in dy.Scheme))


def _cmd_family(args, config) -> tuple[str, Any]:
    scheme = _parse_scheme(args.scheme)
    spec = dy.FamilySpec(scheme, args.index)
    terms = dy.family_terms(spec, args.depth, config)
    return "INFO", {
        "scheme": scheme.value, "family": spec.describe(), "depth": args.depth,
        "terms": [render_value(t, config) for t in terms],
    }


def _cmd_entropy(args, config) -> tuple[str, Any]:
    f = parse_function_args(args)
    seeds = [int(s) for s in args.seeds.split(",")]
    est = dy.ent_set_estimate(f, seeds, args.horizon, config)
    return "INFO", {
        "function": str(f), "seeds": seeds, "horizon": est.horizon,
        "direction": est.direction, "set_size": est.set_size,
        "value": {"numerator": est.value.numerator,
                  "denominator": est.value.denominator,
                  "decimal": float(est.value)},
    }


def _cmd_centropy(args, config) -> tuple[str, Any]:
    f = parse_function_args(args)
    seeds = [int(s) for s in args.seeds.split(",")]
    mode = dy.CORE if args.mode == "core" else dy.AMBIENT
    est = dy.ent_cset_estimate(f, seeds, args.horizon, mode, config)
    return "INFO", {
        "function": str(f), "seeds": seeds, "horizon": est.horizon,
        "direction": est.direction, "mode": est.mode, "set_size": est.set_size,
        "note": "computed on ambient N, not restricted to sc(f)"
                if est.mode == dy.AMBIENT else "restricted to the surjective core",
        "value": {"numerator": est.value.numerator,
                  "denominator": est.value.denominator,
                  "decimal": float(est.value)},
    }


def _cmd_min_open(args, config) -> tuple[str, Any]:
    f = parse_function_args(args)
    if args.topology == "taubar":
        mos = tp.min_open_forward(f, args.n, config=config)
    else:
        mos = tp.min_open_backward(f, args.n, args.scan_bound, config)
    return "INFO", {
        "function": str(f), "point": mos.point, "topology": mos.topology,
        "completeness": mos.completeness, "size": len(mos.members),
        "members": [render_value(m, config) for m in mos.members[:1000]],
    }


def _cmd_components(args, config) -> tuple[str, Any]:
    f = parse_function_args(args)
    return "INFO", tp.component_census(f, args.bound, config)


def _cmd_separation(args, config) -> tuple[str, Any]:
    f = parse_function_args(args)
    rep = tp.separation_check(f, args.bound, config)
    return rep.status, rep.to_payload()


def _cmd_partition_demo(args, config) -> tuple[str, Any]:
    blocks = tp.residue_partition(args.mod)
    result = tp.partition_map(blocks, args.bound)
    payload = result.report.to_payload()
    payload.update({
        "blocks": list(result.blocks),
        "component_count": len(result.components),
        "component_sizes": [len(c) for c in result.components],
        "boundary_elements": len(result.boundary),
    })
    return result.report.status, payload


def _cmd_search(args, config) -> tuple[str, Any]:
    f = parse_function_args(args)
    budget = dy.SearchBudget(max_start=args.max_start, max_depth=args.max_depth,
                             max_families=args.max_families)
    direction = dy.BACKWARD if args.direction == "backward" else dy.FORWARD
    found = dy.search_families(f, budget, direction, config)
    return "INFO", {
        "function": str(f), "direction": direction, "label": "EXPERIMENTAL",
        "note": "candidate prefixes only; no claim about infinite quantities",
        "budget": {"max_start": budget.max_start, "max_depth": budget.max_depth,
                   "max_families": budget.max_families},
        "candidates": [list(c.values) for c in found],
    }


# ---------------------------------------------------------------------------
# verify-lemma registry


def _positive(args, name: str, default: int) -> int:
    """args.<name>, or `default` when the option was not given; an explicit
    value below 1 is refused (exit 2), never replaced."""
    value = getattr(args, name)
    if value is None:
        return default
    if value < 1:
        raise ValueError(f"--{name} must be >= 1, got {value}")
    return value


def _scheme_runner(scheme: dy.Scheme, default_families: int, default_depth: int):
    # a depth past the scheme cap is refused downstream, never clamped
    def run(args, config: ToolConfig) -> VerificationReport:
        families = _positive(args, "families", default_families)
        depth = _positive(args, "depth", default_depth)
        specs = dy.default_family_specs(scheme, families)
        return dy.verify_disjoint(specs, depth, config)
    return run


def _generic_note_runner(args, config: ToolConfig) -> VerificationReport:
    families = _positive(args, "families", 5)
    depth = _positive(args, "depth", 20)
    notes = []
    for gspec, scheme in ((dy.psi_generic_spec(families), dy.Scheme.PSI_ORBIT),
                          (dy.j2_generic_spec(families), dy.Scheme.J2_ORBIT)):
        for fam in range(1, families + 1):
            terms, rep = dy.generic_family_terms(gspec, fam, depth, config)
            if not rep.passed:
                return rep
            builtin = dy.family_terms(dy.FamilySpec(scheme, fam), depth, config)
            if terms != builtin:
                from .reports import Counterexample
                return VerificationReport(
                    lemma_id="generic-note", families_checked=families,
                    depth=depth, status="FAIL",
                    counterexample=Counterexample(
                        fam, 1, builtin, terms,
                        detail=f"generic terms diverge from {scheme.value}"))
        notes.append(f"{gspec.function} generic spec reproduces {scheme.value}")
    return VerificationReport(
        lemma_id="generic-note", families_checked=families, depth=depth,
        status="PASS", notes=tuple(notes),
        certified_bound=f"generic construction subsumes psi/J_2 orbits "
                        f"({families} families, depth {depth})")


def _fn_from(args, default: str) -> af.FunctionId:
    if getattr(args, "fn", None) is None:
        return af.parse_function(default)
    return parse_function_args(args)


def _monotone_runner(expected: str, default_fn: str):
    def run(args, config: ToolConfig) -> VerificationReport:
        f = _fn_from(args, default_fn)
        bound = _positive(args, "bound", 10_000)
        rep = dy.classify_monotonicity(f, bound, config)
        lemma = {"DECREASING_WEAK": "monotone-o-zero",
                 "INCREASING_WEAK": "monotone-a-zero",
                 "INCREASING_STRICT_ABOVE_1": "strict-o-positive"}[expected]
        ok = (rep.kind == expected
              or (expected == "INCREASING_WEAK"
                  and rep.kind == "INCREASING_STRICT_ABOVE_1"))
        if ok:
            return VerificationReport(
                lemma_id=f"{lemma} {f}", families_checked=1, depth=bound,
                status="PASS", certified_bound="; ".join(rep.conclusions))
        from .reports import Counterexample
        return VerificationReport(
            lemma_id=f"{lemma} {f}", families_checked=1, depth=bound,
            status="FAIL",
            counterexample=Counterexample(
                None, rep.witness or 0, expected, rep.kind,
                detail="hypothesis fails on the scanned range"))
    return run


def _phi_finite_fibre_runner(args, config: ToolConfig) -> VerificationReport:
    bound = _positive(args, "bound", 50)
    from .reports import Counterexample
    for m in range(1, bound + 1):
        members = pre.inverse_phi(m, config).members
        cert = to_integer(pre.phi_bound(m, config), config)
        if cert is OVERFLOW:
            continue
        for x in members:
            if x > cert:
                return VerificationReport(
                    lemma_id="phi-finite-fibre", families_checked=1, depth=bound,
                    status="FAIL",
                    counterexample=Counterexample(None, m, f"<= {cert}", x))
    return VerificationReport(
        lemma_id="phi-finite-fibre", families_checked=1, depth=bound,
        status="PASS",
        certified_bound=(f"phi^-1(m) enumerated completely and contained in "
                         f"the certificate bound for m <= {bound}"))


def _nonfinite_fibre_runner(args, config: ToolConfig) -> VerificationReport:
    count = _positive(args, "families", 100)
    from .reports import Counterexample
    for f, target in ((af.SMALL_OMEGA, 1), (af.BIG_OMEGA, 1), (af.D, 2)):
        witnesses = pre.nonfinite_fibre_witness(f, target, count, config)
        for p in witnesses:
            got = af.evaluate(f, factorize(p, config), config)
            if got != target:
                return VerificationReport(  # pragma: no cover
                    lemma_id="nonfinite-fibre", families_checked=count,
                    depth=count, status="FAIL",
                    counterexample=Counterexample(None, p, target, got))
    return VerificationReport(
        lemma_id="nonfinite-fibre", families_checked=3, depth=count,
        status="PASS",
        certified_bound=(f"first {count} primes lie in omega^-1(1), "
                         f"Omega^-1(1) and d^-1(2); fibres exceed any finite bound"))


def _tau_subset_runner(args, config: ToolConfig) -> VerificationReport:
    f = _fn_from(args, "psi")
    return tp.verify_tau_subset(f, _positive(args, "bound", 1000), config)


def _taubar_subset_runner(args, config: ToolConfig) -> VerificationReport:
    f = _fn_from(args, "phi")
    return tp.verify_taubar_subset(f, _positive(args, "bound", 1000), config)


def _connected_runner(args, config: ToolConfig) -> VerificationReport:
    f = _fn_from(args, "phi")
    return tp.contains_one_forward(f, _positive(args, "bound", 10_000), config)


def _separation_runner(args, config: ToolConfig) -> VerificationReport:
    f = _fn_from(args, "psi")
    return tp.separation_check(f, _positive(args, "bound", 10_000), config)


def _partition_runner(args, config: ToolConfig) -> VerificationReport:
    return tp.partition_map(tp.odds_evens(), _positive(args, "bound", 1000)).report


LEMMAS: dict[str, tuple[str, Callable]] = {
    "phi-antiorbit": ("disjoint phi anti-orbit families 2^k 3^n",
                      _scheme_runner(dy.Scheme.PHI_ANTI, 20, 30)),
    "d-antiorbit": ("disjoint d anti-orbit towers p^(x-1)",
                    _scheme_runner(dy.Scheme.D_ANTI, 5, 5)),
    "omega-antiorbit": ("disjoint Omega anti-orbit towers p^x",
                        _scheme_runner(dy.Scheme.OMEGA_ANTI, 5, 5)),
    "smallomega-antiorbit": ("disjoint omega anti-orbit primorial blocks",
                             _scheme_runner(dy.Scheme.SMALL_OMEGA_ANTI, 5, 6)),
    "psi-orbit": ("disjoint psi orbit families 3^k 2^n",
                  _scheme_runner(dy.Scheme.PSI_ORBIT, 20, 30)),
    "j2-orbit": ("disjoint J_2 orbit families 2^e 3",
                 _scheme_runner(dy.Scheme.J2_ORBIT, 20, 30)),
    "generic-note": ("generic multiplicative construction subsumes psi/J_2",
                     _generic_note_runner),
    "monotone-o-zero": ("f(n) <= n forces orbit number 0 (hypothesis check)",
                        _monotone_runner("DECREASING_WEAK", "phi")),
    "monotone-a-zero": ("f(n) >= n forces anti-orbit number 0 (hypothesis check)",
                        _monotone_runner("INCREASING_WEAK", "psi")),
    "strict-o-positive": ("f(n) > n above 1 forces orbit number > 0",
                          _monotone_runner("INCREASING_STRICT_ABOVE_1", "psi")),
    "phi-finite-fibre": ("phi fibres complete and inside the certificate bound",
                         _phi_finite_fibre_runner),
    "nonfinite-fibre": ("primes witness infinite fibres of omega/Omega/d",
                        _nonfinite_fibre_runner),
    "tau-subset": ("V(k, tau_f) within {1..k} for expansive f",
                   _tau_subset_runner),
    "taubar-subset": ("V(k, taubar_f) within {1..k} for decreasing f",
                      _taubar_subset_runner),
    "connected-forward": ("orbits of decreasing f reach 1; connectivity",
                          _connected_runner),
    "separation": ("expansive f splits off {1}; disconnection",
                   _separation_runner),
    "partition-example": ("successor map on a partition has the blocks as components",
                          _partition_runner),
}


def _cmd_verify_lemma(args, config) -> tuple[str, Any]:
    if args.list or args.lemma is None:
        rows = [{"id": name, "description": desc} for name, (desc, _) in LEMMAS.items()]
        return "INFO", {"lemmas": rows}
    if args.lemma not in LEMMAS:
        raise ValueError(f"unknown lemma id {args.lemma!r}; try verify-lemma --list")
    _, runner = LEMMAS[args.lemma]
    rep = runner(args, config)
    return rep.status, rep.to_payload()


# ---------------------------------------------------------------------------
# tables


def _cmd_table(args, config) -> tuple[str, Any]:
    if args.which == "orbit-numbers":
        return _table_orbit_numbers(args, config)
    if args.which == "connectivity":
        return _table_connectivity(args, config)
    raise ValueError("table name is orbit-numbers or connectivity")


def _table_orbit_numbers(args, config: ToolConfig) -> tuple[str, Any]:
    bound = _positive(args, "bound", 10_000)
    families = _positive(args, "families", 20)
    depth = _positive(args, "depth", 30)
    sweep = af.catalogue_monotone_sweep(bound, config=config)
    hypothesis_fail = {k: v for k, v in sweep.items() if v is not None}

    def certify(scheme: dy.Scheme, fams: int, dep: int) -> str:
        dep = min(dep, dy.scheme_depth_cap(scheme, config))
        fams_eff = min(fams, 20) if scheme in (
            dy.Scheme.D_ANTI, dy.Scheme.OMEGA_ANTI, dy.Scheme.SMALL_OMEGA_ANTI) else fams
        rep = dy.verify_disjoint(dy.default_family_specs(scheme, fams_eff), dep, config)
        return rep.certified_bound if rep.passed else f"FAILED: {rep.counterexample.describe()}"

    cond = f"(conditional: hypothesis verified up to {bound} only)"
    rows = [
        {"functions": "phi (=J_1)", "orbit_number": f"0 {cond}",
         "anti_orbit_number": certify(dy.Scheme.PHI_ANTI, families, depth)},
        {"functions": "d (=d_2)", "orbit_number": f"0 {cond}",
         "anti_orbit_number": certify(dy.Scheme.D_ANTI, 5, 5)},
        {"functions": "Omega", "orbit_number": f"0 {cond}",
         "anti_orbit_number": certify(dy.Scheme.OMEGA_ANTI, 5, 5)},
        {"functions": "omega", "orbit_number": f"0 {cond}",
         "anti_orbit_number": certify(dy.Scheme.SMALL_OMEGA_ANTI, 5, 6)},
        {"functions": "phi_star", "orbit_number": f"0 {cond}",
         "anti_orbit_number": "open problem; no verdict (see `search`)"},
        {"functions": "J_2", "orbit_number": certify(dy.Scheme.J2_ORBIT, families, depth),
         "anti_orbit_number": f"0 {cond}"},
        {"functions": "psi (=psi_1)", "orbit_number": certify(dy.Scheme.PSI_ORBIT, families, depth),
         "anti_orbit_number": f"0 {cond}"},
        {"functions": "sigma_k, psi_k, J_(k+2) (k <= 3)",
         "orbit_number": f"> 0 {cond}", "anti_orbit_number": f"0 {cond}"},
    ]
    status = "PASS" if not hypothesis_fail and all(
        "FAILED" not in r["orbit_number"] and "FAILED" not in r["anti_orbit_number"]
        for r in rows) else "FAIL"
    return status, {
        "table": "orbit-numbers",
        "monotone_bound": bound,
        "monotone_hypothesis_failures": hypothesis_fail,
        "note": ("certified lower bounds at finite depth; "
                 "infinitude is a theorem, not a computation"),
        "rows": rows,
    }


def _table_connectivity(args, config: ToolConfig) -> tuple[str, Any]:
    bound = _positive(args, "bound", 10_000)
    rows = []
    ok = True
    for name in ("phi", "phi_star", "omega", "Omega", "d"):
        f = af.parse_function(name)
        rep = tp.contains_one_forward(f, bound, config)
        if rep.passed:
            verdict = f"connected (conditional: f(n) < n verified to {bound})"
        else:
            verdict = (f"no verdict: {rep.counterexample.detail or 'hypothesis fails'}")
            ok = ok and name == "d"  # the d hypothesis genuinely fails at n = 2
        rows.append({"function": name, "verdict": verdict})
    for name in ("psi", "psi_2", "J_2", "J_3", "sigma_1", "sigma_2"):
        f = af.parse_function(name)
        rep = tp.separation_check(f, bound, config)
        verdict = (f"disconnected (conditional: f(n) >= n verified to {bound})"
                   if rep.passed else f"no verdict: hypothesis fails "
                   f"at n = {rep.counterexample.position}")
        ok = ok and rep.passed
        rows.append({"function": name, "verdict": verdict})
    return "PASS" if ok else "FAIL", {
        "table": "connectivity", "bound": bound, "rows": rows,
        "note": ("d(2) = 2 breaks the strict-decrease hypothesis, so the "
                 "connectivity lemma does not apply to d; no verdict is emitted"),
    }


# ---------------------------------------------------------------------------
# output rendering


def _render_text(report: Report, out) -> None:
    d = report.to_dict()
    print(f"# {d['command']} -> {d['status']}", file=out)
    for key, val in d["parameters"].items():
        print(f"  {key} = {val}", file=out)
    _print_tree(d["results"], out, indent="  ")


def _print_tree(node, out, indent="") -> None:
    if isinstance(node, dict):
        for k, v in node.items():
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:", file=out)
                _print_tree(v, out, indent + "  ")
            else:
                print(f"{indent}{k}: {v}", file=out)
    elif isinstance(node, list):
        for v in node:
            if isinstance(v, (dict, list)):
                _print_tree(v, out, indent + "  ")
                print(f"{indent}-", file=out)
            else:
                print(f"{indent}- {v}", file=out)
    else:
        print(f"{indent}{node}", file=out)


def _render_csv(report: Report, out) -> None:
    rows = report.results.get("rows") if isinstance(report.results, dict) else None
    buf = io.StringIO()
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    else:
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        flat = report.results if isinstance(report.results, dict) else {"result": report.results}
        for k, v in flat.items():
            writer.writerow([k, json.dumps(v, sort_keys=True, default=repr)])
    out.write(buf.getvalue())


def emit(report: Report, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        json.dump(report.to_dict(), out, sort_keys=True, indent=2, default=repr)
        out.write("\n")
    elif fmt == "csv":
        _render_csv(report, out)
    else:
        _render_text(report, out)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # global flags live on a parent so they parse both before and after the
    # subcommand; SUPPRESS keeps subparser defaults from clobbering them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--config", metavar="PATH", default=argparse.SUPPRESS,
                        help="JSON config file")
    common.add_argument("--no-timestamp", action="store_true",
                        default=argparse.SUPPRESS,
                        help="omit the timestamp for byte-identical reruns")
    common.add_argument("--sieve-bound", type=int, default=argparse.SUPPRESS,
                        help="override sieve budget")
    common.add_argument("--bit-budget", type=int, default=argparse.SUPPRESS,
                        help="override big-natural bit budget")

    parser = argparse.ArgumentParser(
        prog="arithdyn",
        description="certified-at-depth checks for arithmetic-dynamical claims",
        parents=[common])
    parser.set_defaults(format="text", config=None, no_timestamp=False,
                        sieve_bound=None, bit_budget=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    def add_fn(p, required=True):
        p.add_argument("--fn", required=required)
        p.add_argument("--k", type=int, help="parameter for J/psi/sigma")
        p.add_argument("--l", type=int, help="parameter for d")

    p = add("eval", _cmd_eval, help="evaluate a catalogue function")
    add_fn(p)
    p.add_argument("--n", type=int, required=True)

    p = add("oracle-eval", _cmd_oracle_eval, help="definitional brute-force value")
    add_fn(p)
    p.add_argument("--n", type=int, required=True)

    p = add("preimage", _cmd_preimage, help="enumerate f^-1(m)")
    add_fn(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bound", type=int, help="bounded-search cap for non-finite-fibre f")

    p = add("inverse-phi", _cmd_inverse_phi, help="complete phi^-1(m)")
    p.add_argument("--m", type=int, required=True)

    p = add("phi-bound", _cmd_phi_bound, help="the phi^-1 containment certificate")
    p.add_argument("--m", type=int, required=True)

    p = add("orbit", _cmd_orbit, help="forward iterates of a point")
    add_fn(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=10)

    p = add("family", _cmd_family, help="terms of a built-in family")
    p.add_argument("--scheme", required=True,
                   help=", ".join(s.value for s in dy.Scheme))
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--depth", type=int, default=4)

    p = add("verify-lemma", _cmd_verify_lemma, help="machine-check one claim")
    p.add_argument("lemma", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--families", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--fn")
    p.add_argument("--k", type=int, help="parameter for J/psi/sigma")
    p.add_argument("--l", type=int, help="parameter for d")

    p = add("entropy", _cmd_entropy, help="partial set-theoretical entropy")
    add_fn(p)
    p.add_argument("--seeds", required=True, help="comma-separated naturals")
    p.add_argument("--horizon", type=int, required=True)

    p = add("centropy", _cmd_centropy, help="partial contravariant entropy")
    add_fn(p)
    p.add_argument("--seeds", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--mode", choices=("ambient", "core"), default="ambient")

    p = add("min-open", _cmd_min_open, help="minimal open neighbourhood")
    add_fn(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--topology", choices=("tau", "taubar"), default="tau")
    p.add_argument("--scan-bound", type=int)

    p = add("components", _cmd_components, help="window component census")
    add_fn(p)
    p.add_argument("--bound", type=int, default=1000)

    p = add("separation", _cmd_separation, help="{1} | N\\{1} disconnection check")
    add_fn(p)
    p.add_argument("--bound", type=int, default=10_000)

    p = add("partition-demo", _cmd_partition_demo,
            help="partition successor-map component check")
    p.add_argument("--mod", type=int, default=2)
    p.add_argument("--bound", type=int, default=1000)

    p = add("table", _cmd_table, help="verified-at-depth tables")
    p.add_argument("which", choices=("orbit-numbers", "connectivity"))
    p.add_argument("--families", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--bound", type=int)

    p = add("search", _cmd_search, help="exploratory family search (no claims)")
    add_fn(p)
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p.add_argument("--max-start", type=int, default=200)
    p.add_argument("--max-depth", type=int, default=30)
    p.add_argument("--max-families", type=int, default=10)

    return parser


def _load_config(args) -> ToolConfig:
    config = ToolConfig.from_file(args.config) if args.config else DEFAULT_CONFIG
    overrides = {}
    if args.sieve_bound is not None:
        overrides["sieve_bound"] = args.sieve_bound
    if args.bit_budget is not None:
        overrides["bit_budget"] = args.bit_budget
    return config.replace(**overrides) if overrides else config


def run(argv=None, out=None) -> int:
    """Parse argv, execute, emit one report; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        status, results = args.handler(args, config)
    except (BudgetExceeded, NotFiniteFibre, NotExpansive, dy.MismatchedScheme,
            ComparisonUndecided, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = {k: v for k, v in vars(args).items()
              if k not in ("handler", "command", "format", "config",
                           "no_timestamp", "sieve_bound", "bit_budget")
              and v is not None}
    stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
    report = Report(command=args.command, parameters=params, results=results,
                    status=status, config=config, timestamp=stamp)
    emit(report, args.format, out)
    return 0 if status in ("PASS", "INFO") else 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
