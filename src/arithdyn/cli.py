"""Command-line surface: evaluation, preimages, families, lemma
verification, entropy estimates, topology checks and table reproduction.

Reports serialize deterministically (stable key order; timestamp
suppressible), so identical invocations produce byte-identical JSON.
Each input has one spelling (`--fn` takes `str(f)`; no option is
abbreviated) and one default, and a command refuses an option it does not
read, so `parameters` shows only what the run used.
Exit codes: 0 = PASS/INFO, 1 = FAIL, 2 = usage/budget error, 3 = internal
error (an exception no refusal covers; `main` only).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from datetime import datetime, timezone
from functools import lru_cache
from itertools import islice
from typing import Any, Callable, NamedTuple, Optional

from . import __version__
from .config import DEFAULT_CONFIG, ToolConfig
from . import arithfun as af
from . import dynamics as dy
from . import preimage as pre
from . import topology as tp
from .factorint import (
    BudgetExceeded, ComparisonUndecided, FactoredNatural, OVERFLOW, factorize,
    prime_factors, to_integer,
)
from .reports import Counterexample, VerificationReport

SCHEMA_VERSION = 1


class Report(NamedTuple):
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


def render_value(v, config: ToolConfig) -> Any:
    """JSON-friendly rendering of a FactoredNatural or an int; huge integers
    become bit-length stubs, and factored values past the configured bit
    budget render as OVERFLOW."""
    if isinstance(v, FactoredNatural):
        out: dict[str, Any] = {"factored": repr(v)}
        iv = to_integer(v, config)
        out["value"] = "OVERFLOW" if iv is OVERFLOW else render_value(iv, config)
        return out
    return v if abs(v) < 10 ** 18 else f"<{v.bit_length()}-bit integer>"


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (status, results)


def _cmd_eval(args, config) -> tuple[str, Any]:
    f = af.parse_function(args.fn)
    value = af.evaluate(f, factorize(args.n, config), config)
    return "INFO", {"function": str(f), "n": args.n, "value": render_value(value, config)}


def _cmd_preimage(args, config) -> tuple[str, Any]:
    f = af.parse_function(args.fn)
    fibres = pre.fibres(f, _positive(args, "bound"), config)
    if fibres.search_bound is None:  # complete fibres: no bound to cut at
        _refuse_unread(args, f"preimage --fn {args.fn}", ("bound",))
    return "INFO", {
        "function": str(f), "target": args.m, "members": list(fibres.of(args.m)),
        "completeness": fibres.completeness, "search_bound": fibres.search_bound,
        "method": fibres.method,
    }


def _cmd_phi_bound(args, config) -> tuple[str, Any]:
    bound = pre.phi_bound(args.m, config)
    return "INFO", {"m": args.m, "bound": render_value(bound, config)}


def _cmd_orbit(args, config) -> tuple[str, Any]:
    f = af.parse_function(args.fn)
    seq = [args.n, *islice(af.orbit_values(f, args.n, config), _positive(args, "depth") - 1)]
    return "INFO", {"function": str(f), "start": args.n,
                    "iterates": [render_value(v, config) for v in seq]}


def _cmd_family(args, config) -> tuple[str, Any]:
    try:
        scheme = dy.Scheme(args.scheme)
    except ValueError:
        raise ValueError(f"unknown scheme {args.scheme!r}; one of "
                         + ", ".join(s.value for s in dy.Scheme)) from None
    spec = dy.FamilySpec(scheme, args.index)
    terms = dy.family_terms(spec, args.depth, config)
    return "INFO", {
        "scheme": scheme.value, "family": spec.describe(), "depth": args.depth,
        "terms": [render_value(t, config) for t in terms],
    }


def _cmd_entropy(args, config) -> tuple[str, Any]:
    """`entropy` (forward) and `centropy` (backward, in --mode): the
    estimate for --fn, --seeds and --horizon, with its value as an exact
    fraction and a decimal."""
    f = af.parse_function(args.fn)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.command == "entropy":
        est = dy.ent_set_estimate(f, seeds, args.horizon, config)
    else:
        mode = dy.CORE if args.mode == "core" else dy.AMBIENT
        est = dy.ent_cset_estimate(f, seeds, args.horizon, mode, config)
    out = {"function": str(f), "seeds": seeds, "horizon": est.horizon,
           "direction": est.direction}
    if args.command == "centropy":
        out["mode"] = est.mode
    out["set_size"] = est.set_size
    if args.command == "centropy":
        out["note"] = ("computed on ambient N, not restricted to sc(f)"
                       if est.mode == dy.AMBIENT else "restricted to the surjective core")
    value = est.value
    out["value"] = {"numerator": value.numerator, "denominator": value.denominator,
                    "decimal": float(value)}
    return "INFO", out


def _cmd_min_open(args, config) -> tuple[str, Any]:
    f = af.parse_function(args.fn)
    if args.topology == "taubar":
        _refuse_unread(args, "min-open --topology taubar", ("scan_bound",))
        mos = tp.min_open_forward(f, args.n, config=config)
    else:
        scan_bound = _positive(args, "scan_bound")
        if f.expansive:  # the closure stays inside {1..n}
            _refuse_unread(args, f"min-open --fn {args.fn}", ("scan_bound",))
        mos = tp.min_open_backward(f, args.n, scan_bound, config)
    return "INFO", {
        "function": str(f), "point": mos.point, "topology": mos.topology,
        "completeness": mos.completeness, "size": len(mos.members),
        "members": [render_value(m, config) for m in mos.members[:1000]],
    }


def _cmd_components(args, config) -> tuple[str, Any]:
    f = af.parse_function(args.fn)
    return "INFO", tp.component_census(f, _positive(args, "bound"), config)


def _cmd_partition_demo(args, config) -> tuple[str, Any]:
    blocks = tp.residue_partition(_positive(args, "mod"))
    result = tp.partition_map(blocks, _positive(args, "bound"))
    payload = result.report.to_payload()
    payload.update({
        "blocks": list(result.blocks),
        "component_count": len(result.components),
        "component_sizes": [len(c) for c in result.components],
        "boundary_elements": len(result.boundary),
    })
    return result.report.status, payload


def _cmd_search(args, config) -> tuple[str, Any]:
    f = af.parse_function(args.fn)
    budget = dy.SearchBudget(max_start=_positive(args, "max_start"),
                             max_depth=_positive(args, "max_depth"),
                             max_families=_positive(args, "max_families"))
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


def _positive(args, name: str, default: Optional[int] = None) -> Optional[int]:
    """args.<name>, or `default` when the option was not given; an explicit
    value below 1 is refused (exit 2), never replaced."""
    value = getattr(args, name)
    if value is None:
        return default
    if value < 1:
        raise ValueError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
    return value


def _refuse_unread(args, name: str, unread) -> None:
    """Refuse (exit 2) the first option of `unread` that was given to
    `name`: an option it does not read is never shown as if used."""
    for opt in unread:
        if getattr(args, opt) is not None:
            raise ValueError(f"{name} does not read --{opt.replace('_', '-')}")


def _generic_note_runner(args, config: ToolConfig) -> VerificationReport:
    families = _positive(args, "families", 5)
    depth = _positive(args, "depth", 20)
    notes = []
    for gspec, scheme in ((dy.psi_generic_spec(families), dy.Scheme.PSI_ORBIT),
                          (dy.j2_generic_spec(families), dy.Scheme.J2_ORBIT)):
        generic, rep = dy.generic_family_terms(gspec, depth, config)
        if not rep.passed:
            return rep
        for fam, terms in enumerate(generic, start=1):
            builtin = dy.family_terms(dy.FamilySpec(scheme, fam), depth, config)
            if terms != builtin:
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


def _certify(scheme: dy.Scheme, families: Optional[int], depth: Optional[int],
             config: ToolConfig) -> VerificationReport:
    """Disjointness of the scheme's first `families` families to `depth`,
    each None for the scheme's own size (Scheme.size); a depth past the
    scheme cap is refused downstream, never clamped."""
    default_families, default_depth = scheme.size
    return dy.verify_disjoint(dy.default_family_specs(scheme, families or default_families),
                              depth or default_depth, config)


def _scheme_claim(scheme: dy.Scheme, description: str) -> Lemma:
    """A scheme claim: _certify at --families x --depth."""
    def run(args, config: ToolConfig) -> VerificationReport:
        return _certify(scheme, _positive(args, "families"), _positive(args, "depth"), config)
    return Lemma(description, run, ("families", "depth"))


def _pointwise(lemma: str, default_fn: str, default_bound: int, description: str) -> Lemma:
    """The lemma `lemma` of arithfun.POINTWISE_LEMMAS, with f from --fn
    (default_fn when not given) and bound from --bound."""
    def run(args, config: ToolConfig) -> VerificationReport:
        f = af.parse_function(default_fn if args.fn is None else args.fn)
        return af.pointwise_lemma(lemma, f, _positive(args, "bound", default_bound), config)
    return Lemma(description, run, ("fn", "bound"))


def _phi_finite_fibre_runner(args, config: ToolConfig) -> VerificationReport:
    bound = _positive(args, "bound", 50)
    for m in range(1, bound + 1):
        cert = pre.phi_bound(m, config)
        exponents = dict(cert.explicit)
        for x in pre.inverse_phi(m, config).members:
            # x divides the certificate: no prime power of x goes past it
            if any(exponents.get(p, 0) < a for p, a in prime_factors(x, config)):
                return VerificationReport(
                    lemma_id="phi-finite-fibre", families_checked=1, depth=bound,
                    status="FAIL",
                    counterexample=Counterexample(None, m, f"divides {cert!r}", x))
    return VerificationReport(
        lemma_id="phi-finite-fibre", families_checked=1, depth=bound,
        status="PASS",
        certified_bound=(f"phi^-1(m) enumerated completely and contained in "
                         f"the certificate bound for m <= {bound}"))


def _nonfinite_fibre_runner(args, config: ToolConfig) -> VerificationReport:
    count = _positive(args, "families", 100)
    for f, target in ((af.SMALL_OMEGA, 1), (af.BIG_OMEGA, 1), (af.D, 2)):
        witnesses = pre.nonfinite_fibre_witness(f, target, count)
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


def _partition_runner(args, config: ToolConfig) -> VerificationReport:
    return tp.partition_map(tp.residue_partition(2), _positive(args, "bound", 1000)).report


class Lemma(NamedTuple):
    """One registry claim: its description, its runner run(args, config),
    and the verify-lemma options it reads."""
    description: str
    run: Callable[[argparse.Namespace, ToolConfig], VerificationReport]
    reads: tuple[str, ...]


# The one battery registry, which verify-lemma runs.
LEMMAS: dict[str, Lemma] = {
    "phi-antiorbit": _scheme_claim(dy.Scheme.PHI_ANTI,
                                   "disjoint phi anti-orbit families 2^k 3^n"),
    "d-antiorbit": _scheme_claim(dy.Scheme.D_ANTI, "disjoint d anti-orbit towers p^(x-1)"),
    "omega-antiorbit": _scheme_claim(dy.Scheme.OMEGA_ANTI,
                                     "disjoint Omega anti-orbit towers p^x"),
    "smallomega-antiorbit": _scheme_claim(dy.Scheme.SMALL_OMEGA_ANTI,
                                          "disjoint omega anti-orbit primorial blocks"),
    "psi-orbit": _scheme_claim(dy.Scheme.PSI_ORBIT, "disjoint psi orbit families 3^k 2^n"),
    "j2-orbit": _scheme_claim(dy.Scheme.J2_ORBIT, "disjoint J_2 orbit families 2^e 3"),
    "generic-note": Lemma("generic multiplicative construction subsumes psi/J_2",
                          _generic_note_runner, ("families", "depth")),
    "monotone-o-zero": _pointwise("monotone-o-zero", "phi", 10_000,
                                  "f(n) <= n forces orbit number 0 (hypothesis check)"),
    "monotone-a-zero": _pointwise("monotone-a-zero", "psi", 10_000,
                                  "f(n) >= n forces anti-orbit number 0 (hypothesis check)"),
    "strict-o-positive": _pointwise("strict-o-positive", "psi", 10_000,
                                    "f(n) > n above 1 forces orbit number > 0"),
    "phi-finite-fibre": Lemma("phi fibres complete and inside the certificate bound",
                              _phi_finite_fibre_runner, ("bound",)),
    "nonfinite-fibre": Lemma("primes witness infinite fibres of omega/Omega/d",
                             _nonfinite_fibre_runner, ("families",)),
    "tau-subset": _pointwise("tau-subset", "psi", 1000,
                             "V(k, tau_f) within {1..k} for expansive f"),
    "taubar-subset": _pointwise("taubar-subset", "phi", 1000,
                                "V(k, taubar_f) within {1..k} for decreasing f"),
    "connected-forward": _pointwise("connected-forward", "phi", 10_000,
                                    "orbits of decreasing f reach 1; connectivity"),
    "separation": _pointwise("separation", "psi", 10_000,
                             "expansive f splits off {1}; disconnection"),
    "partition-example": Lemma("successor map on a partition has the blocks as components",
                               _partition_runner, ("bound",)),
}
# the verify-lemma options besides the id; an id refuses those it does not
# read, the listing (no id) all of them
_LEMMA_OPTIONS = ("families", "depth", "bound", "fn")


def _cmd_verify_lemma(args, config) -> tuple[str, Any]:
    if args.lemma is None:
        _refuse_unread(args, "the lemma listing", _LEMMA_OPTIONS)
        rows = [{"id": name, "description": lemma.description}
                for name, lemma in LEMMAS.items()]
        return "INFO", {"lemmas": rows}
    lemma = LEMMAS.get(args.lemma)
    if lemma is None:
        raise ValueError(f"unknown lemma id {args.lemma!r}; bare verify-lemma lists the ids")
    _refuse_unread(args, args.lemma, [o for o in _LEMMA_OPTIONS if o not in lemma.reads])
    rep = lemma.run(args, config)
    return rep.status, rep.to_payload()


# ---------------------------------------------------------------------------
# tables


def _cmd_table(args, config) -> tuple[str, Any]:
    # argparse's choices admit only these two names
    if args.which == "orbit-numbers":
        return _table_orbit_numbers(args, config)
    return _table_connectivity(args, config)


# `table orbit-numbers`, row by row: functions, orbit_number, anti_orbit_number.
# A cell naming a Scheme holds its certificate at --families x --depth (as
# verify-lemma), or at Scheme.size for the tower schemes, whose depth cap
# (tower_depth_cap) sits far below the other rows' depths.  Other cells are
# text.
_ZERO = "0 {cond}"
_ORBIT_TABLE = (
    ("phi (=J_1)", _ZERO, dy.Scheme.PHI_ANTI),
    ("d (=d_2)", _ZERO, dy.Scheme.D_ANTI),
    ("Omega", _ZERO, dy.Scheme.OMEGA_ANTI),
    ("omega", _ZERO, dy.Scheme.SMALL_OMEGA_ANTI),
    ("phi_star", _ZERO, "open problem; no verdict (see `search`)"),
    ("J_2", dy.Scheme.J2_ORBIT, _ZERO),
    ("psi (=psi_1)", dy.Scheme.PSI_ORBIT, _ZERO),
    ("sigma_k, psi_k, J_(k+2) (k <= 3)", "> 0 {cond}", _ZERO),
)


def _table_orbit_numbers(args, config: ToolConfig) -> tuple[str, Any]:
    bound = _positive(args, "bound", 10_000)
    families, depth = _positive(args, "families"), _positive(args, "depth")
    sweep = af.catalogue_monotone_sweep(bound, config=config)
    hypothesis_fail = {k: v for k, v in sweep.items() if v is not None}
    reports = {cell: _certify(cell, None, None, config) if cell in dy.TOWER_SCHEMES
               else _certify(cell, families, depth, config)
               for row in _ORBIT_TABLE for cell in row[1:] if isinstance(cell, dy.Scheme)}
    cond = af.CONDITIONAL.format(bound=bound)

    def fill(cell: str | dy.Scheme) -> str:
        rep = reports.get(cell)
        if rep is None:
            return cell.format(cond=cond)
        return rep.certified_bound if rep.passed else f"FAILED: {rep.counterexample.describe()}"

    rows = [{"functions": label, "orbit_number": fill(orbit), "anti_orbit_number": fill(anti)}
            for label, orbit, anti in _ORBIT_TABLE]
    passed = not hypothesis_fail and all(rep.passed for rep in reports.values())
    return "PASS" if passed else "FAIL", {
        "table": "orbit-numbers",
        "monotone_bound": bound,
        "monotone_hypothesis_failures": hypothesis_fail,
        "note": ("certified lower bounds at finite depth; "
                 "infinitude is a theorem, not a computation"),
        "rows": rows,
    }


def _table_connectivity(args, config: ToolConfig) -> tuple[str, Any]:
    _refuse_unread(args, "table connectivity", ("families", "depth"))
    bound = _positive(args, "bound", 10_000)
    rows = []
    out = {"table": "connectivity", "bound": bound, "rows": rows}
    ok = True
    for name in ("phi", "phi_star", "omega", "Omega", "d"):
        f = af.parse_function(name)
        rep = tp.contains_one_forward(f, bound, config)
        if rep.passed:
            verdict = f"connected (conditional: f(n) < n verified to {bound})"
        else:
            verdict = (f"no verdict: {rep.counterexample.detail or 'hypothesis fails'}")
            if name == "d":  # the d hypothesis genuinely fails at n = 2
                out["note"] = ("d(2) = 2 breaks the strict-decrease hypothesis, so the "
                               "connectivity lemma does not apply to d; no verdict is emitted")
            else:
                ok = False
        rows.append({"function": name, "verdict": verdict})
    for name in ("psi", "psi_2", "J_2", "J_3", "sigma_1", "sigma_2"):
        f = af.parse_function(name)
        rep = tp.separation_check(f, bound, config)
        verdict = (f"disconnected (conditional: f(n) >= n verified to {bound})"
                   if rep.passed else f"no verdict: hypothesis fails "
                   f"at n = {rep.counterexample.position}")
        ok = ok and rep.passed
        rows.append({"function": name, "verdict": verdict})
    return "PASS" if ok else "FAIL", out


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


class _Parser(argparse.ArgumentParser):
    """A usage error is refused like any other: one `error: ...` line on
    stderr, exit 2.  add_subparsers builds every subparser from this class.

    A comma list that starts with a negative number ("-1,6") is read as an
    option's value, as "-1" is, so `--seeds -1,6` reaches the seed refusal
    instead of reading as a missing value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged.
    # global flags live on a parent so they parse both before and after the
    # subcommand; SUPPRESS keeps a subparser from overwriting a value given
    # before it, and run() supplies the defaults (GLOBAL_DEFAULTS); no
    # parser takes an abbreviated option, so each option has one spelling
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

    parser = _Parser(
        prog="arithdyn",
        description="certified-at-depth checks for arithmetic-dynamical claims",
        parents=[common], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], allow_abbrev=False, **kwargs)
        p.set_defaults(handler=handler)
        return p

    def add_fn(p, required=True):
        p.add_argument("--fn", required=required,
                       help="phi, psi, phi_star, Omega, omega, d, or J_k, psi_k, "
                            "sigma_k (k >= 1), d_l (l >= 2)")

    p = add("eval", _cmd_eval, help="evaluate a catalogue function")
    add_fn(p)
    p.add_argument("--n", type=int, required=True)

    p = add("preimage", _cmd_preimage, help="enumerate f^-1(m)")
    add_fn(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bound", type=int, help="bounded-search cap for non-finite-fibre f")

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
    p.add_argument("--families", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--bound", type=int)
    add_fn(p, required=False)

    p = add("entropy", _cmd_entropy, help="partial set-theoretical entropy")
    add_fn(p)
    p.add_argument("--seeds", required=True, help="comma-separated naturals")
    p.add_argument("--horizon", type=int, required=True)

    p = add("centropy", _cmd_entropy, help="partial contravariant entropy")
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
    search_defaults = dy.SearchBudget._field_defaults
    p.add_argument("--max-start", type=int, default=search_defaults["max_start"])
    p.add_argument("--max-depth", type=int, default=search_defaults["max_depth"])
    p.add_argument("--max-families", type=int, default=search_defaults["max_families"])

    return parser


# the global flags' values when given neither before nor after the subcommand
GLOBAL_DEFAULTS = {"format": "text", "config": None, "no_timestamp": False,
                   "sieve_bound": None, "bit_budget": None}


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
    args = build_parser().parse_args(argv, argparse.Namespace(**GLOBAL_DEFAULTS))
    try:
        config = _load_config(args)
        status, results = args.handler(args, config)
    except (BudgetExceeded, ComparisonUndecided, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = {k: v for k, v in vars(args).items()
              if k not in ("handler", "command", *GLOBAL_DEFAULTS) and v is not None}
    stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
    report = Report(command=args.command, parameters=params, results=results,
                    status=status, config=config, timestamp=stamp)
    emit(report, args.format, out)
    return 0 if status in ("PASS", "INFO") else 1


def main() -> None:
    """The console entry point.  An exception that run() does not refuse
    is reported on one line with exit 3, so it never reads as FAIL (1)."""
    try:
        code = run()
    except Exception as exc:
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 3
    raise SystemExit(code)


if __name__ == "__main__":
    main()
