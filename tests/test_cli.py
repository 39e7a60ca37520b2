import io
import json
import operator
import sys
import time

import pytest

from arithdyn import arithfun as af, cli, preimage as pre
from arithdyn.config import DEFAULT_CONFIG
from helpers import evaluate_int


def run_cli(*argv):
    buf = io.StringIO()
    code = cli.run(list(argv), out=buf)
    return code, buf.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv, "--format", "json", "--no-timestamp")
    return code, json.loads(text)


def test_eval_command():
    code, doc = run_json("eval", "--fn", "phi", "--n", "18")
    assert code == 0
    assert doc["status"] == "INFO"
    assert doc["results"]["value"]["value"] == 6
    assert doc["schema"] == 1


def test_eval_rejects_unknown_function(capsys):
    code, _ = run_cli("eval", "--fn", "zeta", "--n", "3")
    assert code == 2


def test_preimage_routes():
    code, doc = run_json("preimage", "--fn", "psi", "--m", "12")
    assert code == 0
    assert doc["results"]["members"] == [6, 8, 9, 11]
    assert doc["results"]["completeness"] == "COMPLETE"
    code, doc = run_json("preimage", "--fn", "phi", "--m", "4")
    assert doc["results"]["members"] == [5, 8, 10, 12]
    code, doc = run_json("preimage", "--fn", "phi_star", "--m", "6", "--bound", "100")
    assert doc["results"]["completeness"] == "BOUNDED_SEARCH"
    code, _ = run_cli("preimage", "--fn", "Omega", "--m", "1")
    assert code == 2  # refuses: not finite fibre, no bound given


@pytest.mark.parametrize("argv", [
    ["--fn", "Omega", "--bound", "10"], ["--fn", "omega", "--bound", "10"],
    ["--fn", "d_3", "--bound", "10"], ["--fn", "phi_star", "--bound", "10"],
    ["--fn", "phi"], ["--fn", "psi"], ["--fn", "J_2"], ["--fn", "sigma_1"],
])
@pytest.mark.parametrize("m", ["0", "-5"])
def test_preimage_refuses_a_target_below_one(capsys, argv, m):
    code, out = run_cli("preimage", *argv, "--m", m)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: m >= 1\n"


def test_inverse_phi_and_bound():
    code, doc = run_json("preimage", "--fn", "phi", "--m", "1")
    assert doc["results"]["members"] == [1, 2]
    assert doc["results"]["completeness"] == "COMPLETE"
    code, doc = run_json("phi-bound", "--m", "2")
    assert doc["results"]["bound"]["value"] == 36


def test_orbit_and_family():
    code, doc = run_json("orbit", "--fn", "phi", "--n", "6", "--depth", "4")
    assert doc["results"]["iterates"] == [6, 2, 1, 1]
    code, doc = run_json("family", "--scheme", "psi-orbit", "--index", "1",
                         "--depth", "3")
    assert [t["value"] for t in doc["results"]["terms"]] == [6, 12, 24]


def test_orbit_past_128_bits():
    # psi iterates from 2 pass 128 bits near step 128; the orbit stays factored
    code, doc = run_json("orbit", "--fn", "psi", "--n", "2", "--depth", "400")
    assert code == 0
    iterates = doc["results"]["iterates"]
    assert len(iterates) == 400 and iterates[-1] == "<399-bit integer>"
    code, short = run_json("orbit", "--fn", "psi", "--n", "2", "--depth", "60")
    assert iterates[:60] == short["results"]["iterates"]


def test_orbit_refusals(capsys):
    code, out = run_cli("orbit", "--fn", "psi", "--n", "2", "--depth", "0")
    assert code == 2 and out == ""
    assert "--depth must be >= 1, got 0" in capsys.readouterr().err
    code, out = run_cli("orbit", "--fn", "psi", "--n", "2", "--depth", "100",
                        "--bit-budget", "64")
    assert code == 2 and out == ""
    assert "psi(2^62*3) exceeds the bit budget" in capsys.readouterr().err


def test_parser_is_built_once_and_usage_errors_repeat(capsys):
    assert cli.build_parser() is cli.build_parser()
    # a bad int, an unknown subcommand, none at all, an unknown option, a
    # missing option and a bad choice: each one `error:` line, never usage
    for argv in (["verify-lemma", "--depth", "x"], ["no-such-command"], [],
                 ["verify-lemma", "tau-subset", "--k", "3"], ["eval", "--fn", "phi"],
                 ["min-open", "--fn", "phi", "--n", "6", "--topology", "tau_bar"]):
        seen = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            captured = capsys.readouterr()
            seen.append((exc.value.code, captured.out, captured.err))
        assert seen[0] == seen[1] and seen[0][0] == 2 and seen[0][1] == ""
        assert seen[0][2].startswith("error: ") and seen[0][2].count("\n") == 1


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", "--help")
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: arithdyn eval ")


def test_verify_lemma_list_covers_registry():
    code, doc = run_json("verify-lemma")
    assert code == 0
    ids = {row["id"] for row in doc["results"]["lemmas"]}
    assert ids == set(cli.LEMMAS)
    assert len(ids) == 17


def test_verify_lemma_reports_only_the_id_at_defaults():
    # an option not given is not shown under `parameters`, flags included
    for lemma in cli.LEMMAS:
        code, doc = run_json("verify-lemma", lemma)
        assert code == 0, lemma
        assert doc["parameters"] == {"lemma": lemma}


@pytest.mark.parametrize("argv", [
    ["separation", "--fn", "psi", "--bound", "1000"],  # verify-lemma separation
    ["inverse-phi", "--m", "4"],                      # preimage --fn phi
    ["verify-lemma", "--list"],                       # bare verify-lemma
    ["verify-lemma", "phi-antiorbit", "--list"],
], ids=" ".join)
def test_removed_spellings_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_lemma_unknown_id():
    code, _ = run_cli("verify-lemma", "not-a-lemma")
    assert code == 2


FAST_LEMMA_ARGS = {
    "phi-antiorbit": ["--families", "4", "--depth", "6"],
    "d-antiorbit": ["--families", "3", "--depth", "4"],
    "omega-antiorbit": ["--families", "3", "--depth", "4"],
    "smallomega-antiorbit": ["--families", "3", "--depth", "5"],
    "psi-orbit": ["--families", "4", "--depth", "6"],
    "j2-orbit": ["--families", "4", "--depth", "6"],
    "generic-note": ["--families", "2", "--depth", "8"],
    "monotone-o-zero": ["--bound", "500"],
    "monotone-a-zero": ["--bound", "500"],
    "strict-o-positive": ["--bound", "500"],
    "phi-finite-fibre": ["--bound", "20"],
    "nonfinite-fibre": ["--families", "50"],
    "tau-subset": ["--bound", "300"],
    "taubar-subset": ["--bound", "300"],
    "connected-forward": ["--bound", "500"],
    "separation": ["--bound", "500"],
    "partition-example": ["--bound", "100"],
}


def _passed(lemma, families, depth, certified_bound, notes=None):
    results = {"certified_bound": certified_bound, "depth": depth,
               "families_checked": families, "lemma": lemma, "status": "PASS"}
    if notes is not None:
        results["notes"] = notes
    return results


_COND_500 = "(conditional: hypothesis verified up to 500 only)"
SYMBOLIC_NOTE = "terms past the bit budget checked by exact symbolic equality"

# the whole `results` payload of each FAST_LEMMA_ARGS run, written out so a
# change to any report text shows here
FAST_LEMMA_RESULTS = {
    "phi-antiorbit": _passed("phi-anti x4 depth 6", 4, 6,
                             "a(phi) >= 4 certified at depth 6"),
    "d-antiorbit": _passed("d-anti x3 depth 4", 3, 4, "a(d) >= 3 certified at depth 4",
                           [SYMBOLIC_NOTE]),
    "omega-antiorbit": _passed("omega-anti x3 depth 4", 3, 4,
                               "a(Omega) >= 3 certified at depth 4", [SYMBOLIC_NOTE]),
    "smallomega-antiorbit": _passed(
        "smallomega-anti x3 depth 5", 3, 5, "a(omega) >= 3 certified at depth 5",
        [SYMBOLIC_NOTE]),
    "psi-orbit": _passed("psi-orbit x4 depth 6", 4, 6, "o(psi) >= 4 certified at depth 6"),
    "j2-orbit": _passed("j2-orbit x4 depth 6", 4, 6, "o(J_2) >= 4 certified at depth 6"),
    "generic-note": _passed(
        "generic-note", 2, 8,
        "generic construction subsumes psi/J_2 orbits (2 families, depth 8)",
        ["psi generic spec reproduces psi-orbit", "J_2 generic spec reproduces j2-orbit"]),
    "monotone-o-zero": _passed("monotone-o-zero phi", 1, 500, f"o(phi) = 0 {_COND_500}"),
    "monotone-a-zero": _passed("monotone-a-zero psi", 1, 500, f"a(psi) = 0 {_COND_500}"),
    "strict-o-positive": _passed("strict-o-positive psi", 1, 500,
                                 f"o(psi) > 0 {_COND_500}"),
    "phi-finite-fibre": _passed(
        "phi-finite-fibre", 1, 20,
        "phi^-1(m) enumerated completely and contained in the certificate bound for m <= 20"),
    "nonfinite-fibre": _passed(
        "nonfinite-fibre", 3, 50,
        "first 50 primes lie in omega^-1(1), Omega^-1(1) and d^-1(2); "
        "fibres exceed any finite bound"),
    "tau-subset": _passed("tau-subset psi", 1, 300,
                          "V(k, tau_psi) within {1..k} for all k <= 300"),
    "taubar-subset": _passed("taubar-subset phi", 1, 300,
                             "V(k, taubar_phi) within {1..k} for all k <= 300"),
    "connected-forward": _passed(
        "connected-forward phi", 1, 500,
        "1 in V(k, taubar_phi) for all k <= 500; "
        f"(N, taubar_phi) and (N, tau_phi) connected {_COND_500}"),
    "separation": _passed(
        "separation psi", 1, 500,
        f"{{1}}, N\\{{1}} separates (N, taubar_psi) and (N, tau_psi) {_COND_500}"),
    "partition-example": _passed(
        "partition-example", 2, 100,
        "2 window components refine the 2 partition blocks at bound 100"),
}


def test_every_lemma_id_runs_and_passes():
    assert set(FAST_LEMMA_ARGS) == set(FAST_LEMMA_RESULTS) == set(cli.LEMMAS)
    for lemma, extra in FAST_LEMMA_ARGS.items():  # the runs below use read options only
        assert {a[2:] for a in extra if a.startswith("--")} <= set(LEMMA_READS[lemma])
    for lemma, extra in FAST_LEMMA_ARGS.items():
        code, doc = run_json("verify-lemma", lemma, *extra)
        assert code == 0, (lemma, doc)
        assert doc["results"] == FAST_LEMMA_RESULTS[lemma], lemma


# verify-lemma id -> the options it reads; it refuses the others
LEMMA_READS = {
    **{lemma: ("families", "depth") for lemma in (
        "phi-antiorbit", "d-antiorbit", "omega-antiorbit", "smallomega-antiorbit",
        "psi-orbit", "j2-orbit", "generic-note")},
    **{lemma: ("fn", "bound") for lemma in (
        "monotone-o-zero", "monotone-a-zero", "strict-o-positive", "tau-subset",
        "taubar-subset", "connected-forward", "separation")},
    "phi-finite-fibre": ("bound",),
    "partition-example": ("bound",),
    "nonfinite-fibre": ("families",),
}
UNREAD_LEMMA_OPTIONS = [(lemma, option)
                        for lemma, reads in LEMMA_READS.items()
                        for option in ("families", "depth", "bound", "fn")
                        if option not in reads]


def test_lemma_reads_match_the_registry():
    assert {name: lemma.reads for name, lemma in cli.LEMMAS.items()} == LEMMA_READS
    assert len(UNREAD_LEMMA_OPTIONS) == 37


@pytest.mark.parametrize("lemma,option", UNREAD_LEMMA_OPTIONS)
def test_verify_lemma_refuses_options_it_does_not_read(capsys, lemma, option):
    # an ignored option would show under `parameters` as if the run had used it
    code, out = run_cli("verify-lemma", lemma, f"--{option}", "psi" if option == "fn" else "3")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {lemma} does not read --{option}\n"


@pytest.mark.parametrize("argv,message", [
    (["verify-lemma", "--families", "3"], "the lemma listing does not read --families"),
    (["verify-lemma", "--bound", "9"], "the lemma listing does not read --bound"),
    (["verify-lemma", "--fn", "psi"], "the lemma listing does not read --fn"),
    (["verify-lemma", "--depth", "3"], "the lemma listing does not read --depth"),
    (["table", "connectivity", "--families", "3"], "table connectivity does not read --families"),
    (["table", "connectivity", "--depth", "3"], "table connectivity does not read --depth"),
    (["min-open", "--fn", "phi", "--n", "6", "--topology", "taubar", "--scan-bound", "3"],
     "min-open --topology taubar does not read --scan-bound"),
    # complete fibres and expansive closures are never cut at a bound
    (["preimage", "--fn", "psi", "--m", "12", "--bound", "3"],
     "preimage --fn psi does not read --bound"),
    (["preimage", "--fn", "phi", "--m", "4", "--bound", "3"],
     "preimage --fn phi does not read --bound"),
    (["min-open", "--fn", "J_2", "--n", "24", "--scan-bound", "2"],
     "min-open --fn J_2 does not read --scan-bound"),
    (["min-open", "--fn", "psi", "--n", "12", "--scan-bound", "5"],
     "min-open --fn psi does not read --scan-bound"),
])
def test_commands_refuse_options_they_do_not_read(capsys, argv, message):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", "J", "--k", "2", "--n", "5"],
    ["eval", "--fn", "d", "--l", "3", "--n", "5"],
    ["verify-lemma", "tau-subset", "--k", "3"],
    ["verify-lemma", "monotone-a-zero", "--fn", "d", "--l", "3"],
    ["orbit", "--fn", "phi", "--n", "6", "--dep", "3"],  # no abbreviations either
], ids=" ".join)
def test_k_l_and_abbreviated_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: unrecognized arguments: " in captured.err


@pytest.mark.parametrize("alias", ["phi*", "big_omega", "small_omega", "jordan_2",
                                   "J_01", "J_\u0663", " phi ", "psi_02"])
def test_function_aliases_are_refused(capsys, alias):
    code, out = run_cli("eval", "--fn", alias, "--n", "5")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: unknown function id {alias!r}\n"


@pytest.mark.parametrize("fn, message", [
    ("J_99999999", "factorize handles inputs up to 128 bits"),
    ("psi_99999999", "factorize handles inputs up to 128 bits"),
    ("J_" + "1" * 5000, f"unknown function id {'J_' + '1' * 5000!r}"),
    ("d_" + "1" * 641, f"unknown function id {'d_' + '1' * 641!r}"),
])
def test_huge_parameters_are_refused_at_once(capsys, fn, message):
    # the tail p^k + s is refused before it is computed, and a parameter of
    # more than 640 digits before it is converted
    start = time.perf_counter()
    code, out = run_cli("eval", "--fn", fn, "--n", "5")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_catalogue_spelling_round_trips_through_eval():
    for name in af._MONOTONE_CHECKS:
        f = af.parse_function(name)
        for spelling in (name, str(f)):
            code, doc = run_json("eval", "--fn", spelling, "--n", "12")
            assert code == 0, spelling
            assert doc["parameters"] == {"fn": spelling, "n": 12}
            assert doc["results"]["function"] == str(f)
            assert doc["results"]["value"] == cli.render_value(
                af.evaluate(f, 12), cli.DEFAULT_CONFIG), spelling


def test_note_names_a_symbolic_last_step():
    # only the last step, 3^value(3^6560)-1 -> 3^6560, is decided by
    # identity of a symbolic link; the note says so
    code, doc = run_json("verify-lemma", "d-antiorbit", "--families", "1", "--depth", "5")
    assert code == 0
    assert doc["results"] == _passed("d-anti x1 depth 5", 1, 5,
                                     "a(d) >= 1 certified at depth 5", [SYMBOLIC_NOTE])


def test_omega_antiorbit_passes_under_a_20_bit_budget():
    # Omega(3^7625597484987) = 7625597484987 = 3^27 is decided by structure,
    # though 3^27 does not fit 20 bits
    code, doc = run_json("verify-lemma", "omega-antiorbit", "--bit-budget", "20")
    assert code == 0
    assert doc["results"] == _passed("omega-anti x5 depth 5", 5, 5,
                                     "a(Omega) >= 5 certified at depth 5", [SYMBOLIC_NOTE])


def test_verify_lemma_refuses_zero_parameters(capsys):
    for flag in ("--depth", "--families"):
        code, out = run_cli("verify-lemma", "phi-antiorbit", flag, "0")
        assert code == 2 and out == "", flag


def test_verify_lemma_refuses_depth_past_the_cap(capsys):
    code, out = run_cli("verify-lemma", "d-antiorbit", "--depth", "7")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "outside 1..6" in err
    assert "(tower_depth_cap)" in err  # the refusal names its budget key


def test_lemma_failure_exit_code():
    code, doc = run_json("verify-lemma", "separation", "--fn", "phi",
                         "--bound", "100")
    assert code == 1
    ce = doc["results"]["counterexample"]
    # a str expected value is a JSON string, an int actual value a number
    assert (ce["position"], ce["expected"], ce["actual"]) == (2, ">= 2", 1)
    code, text = run_cli("verify-lemma", "separation", "--fn", "phi", "--bound", "100",
                         "--no-timestamp")
    assert code == 1 and "    expected: >= 2\n    actual: 1\n" in text


@pytest.mark.parametrize("budget", [[], ["--bit-budget", "100"]], ids=["default", "bits-100"])
@pytest.mark.parametrize("outside", [53, 2 ** 7], ids=["prime-past-m+1", "power-past-exponent"])
def test_phi_finite_fibre_fails_on_a_member_outside_the_certificate(monkeypatch, budget, outside):
    # the certificate for m = 50 is prod p^6 over p <= 51, of about 400
    # bits: a member must divide it, under any bit budget
    original = pre.inverse_phi

    def padded(m, config=DEFAULT_CONFIG):
        result = original(m, config)
        return result._replace(members=result.members + (outside,)) if m == 50 else result

    monkeypatch.setattr(pre, "inverse_phi", padded)
    code, doc = run_json("verify-lemma", "phi-finite-fibre", "--bound", "50", *budget)
    assert code == 1 and doc["results"]["status"] == "FAIL"
    ce = doc["results"]["counterexample"]
    assert (ce["position"], ce["actual"]) == (50, outside)
    assert ce["expected"] == f"divides {pre.phi_bound(50)!r}"
    assert ce["expected"].startswith("divides 2^6*3^6*5^6*") and ce["expected"].endswith("*47^6")


def test_pointwise_ids_run_their_table_row(capsys):
    # every pointwise verify-lemma id is one row of arithfun.POINTWISE_LEMMAS
    pointwise = {name for name, lemma in cli.LEMMAS.items() if "fn" in lemma.reads}
    assert pointwise == set(af.POINTWISE_LEMMAS)
    holds = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt}
    for lemma, (relation, conclusion, expansive) in af.POINTWISE_LEMMAS.items():
        outcomes = set()
        for fn in ("phi", "psi", "d", "sigma_2"):
            f = af.parse_function(fn)
            if expansive and not f.expansive:
                code, out = run_cli("verify-lemma", lemma, "--fn", fn, "--bound", "300")
                assert code == 2 and out == ""
                assert capsys.readouterr().err == (
                    f"error: {lemma} check needs an expansive f, not {fn}\n")
                continue
            code, doc = run_json("verify-lemma", lemma, "--fn", fn, "--bound", "300")
            results = doc["results"]
            assert results["lemma"] == f"{lemma} {fn}"
            table = af.value_table(f, 300)
            least = next((n for n in range(2, 301) if not holds[relation](table[n], n)), None)
            if least is None:
                assert code == 0 and results["status"] == "PASS", (lemma, fn)
                assert results["certified_bound"] == conclusion.format(f=fn, bound=300)
            else:
                assert code == 1 and results["status"] == "FAIL", (lemma, fn)
                assert results["counterexample"]["position"] == least
            outcomes.add(code)
        assert 0 in outcomes, lemma


@pytest.mark.parametrize("lemma,fn,position", [
    # the nearest class's witness used to stand in: position 0 ...
    ("monotone-o-zero", "psi", 2),
    ("monotone-o-zero", "sigma_3", 2),
    # ... or an n where the lemma's own hypothesis holds
    ("monotone-a-zero", "d_3", 5),
    ("strict-o-positive", "d", 2),
    ("strict-o-positive", "d_4", 5),
    # unchanged: the nearest class's witness was already the right one
    ("monotone-a-zero", "phi", 2),
])
def test_monotone_failures_name_their_own_least_violation(lemma, fn, position):
    violated = {"monotone-o-zero": operator.gt, "monotone-a-zero": operator.lt,
                "strict-o-positive": operator.le}[lemma]
    code, doc = run_json("verify-lemma", lemma, "--fn", fn)
    assert code == 1
    assert doc["results"]["counterexample"]["position"] == position
    f = af.parse_function(fn)
    assert [violated(evaluate_int(f, n), n) for n in range(2, position + 1)] == (
        [False] * (position - 2) + [True])


def test_monotone_lemma_passes_where_its_own_hypothesis_holds():
    # d(2) = 2 >= 2: d is not in the strict class, but f(n) >= n holds to 2
    code, doc = run_json("verify-lemma", "monotone-a-zero", "--fn", "d", "--bound", "2")
    assert code == 0
    assert "a(d) = 0 (conditional: hypothesis verified up to 2 only)" in (
        doc["results"]["certified_bound"])
    # at bound 1 every hypothesis holds vacuously on 2..1, as for the
    # other pointwise lemmas
    for lemma, conclusion in (("monotone-o-zero", "o(psi) = 0"),
                              ("monotone-a-zero", "a(psi) = 0"),
                              ("strict-o-positive", "o(psi) > 0")):
        code, doc = run_json("verify-lemma", lemma, "--fn", "psi", "--bound", "1")
        assert code == 0, lemma
        assert doc["results"]["certified_bound"] == (
            f"{conclusion} (conditional: hypothesis verified up to 1 only)")


def test_entropy_commands():
    code, doc = run_json("entropy", "--fn", "psi", "--seeds", "6,18,54",
                         "--horizon", "60")
    assert doc["results"]["value"]["decimal"] == 3.0
    code, doc = run_json("centropy", "--fn", "psi", "--seeds", "6",
                         "--horizon", "10")
    assert doc["results"]["value"]["numerator"] == 1
    assert doc["results"]["value"]["denominator"] == 2
    assert "ambient" in doc["results"]["note"]


@pytest.mark.parametrize("command,seeds,horizon", [
    ("centropy", "0,6", "1"), ("centropy", "0,6", "2"), ("centropy", "-1", "1"),
    ("entropy", "0,6", "1"), ("entropy", "6,-1", "3"),
    # a list that starts with a negative seed is the option's value too
    ("entropy", "-1,6", "3"), ("centropy", "-1,6", "3"),
])
def test_entropy_commands_refuse_seeds_below_one(capsys, command, seeds, horizon):
    code, out = run_cli(command, "--fn", "psi", "--seeds", seeds, "--horizon", horizon)
    assert code == 2 and out == ""
    bad = min(int(s) for s in seeds.split(","))
    assert capsys.readouterr().err == f"error: seeds are naturals >= 1, got {bad}\n"


def test_min_open_command():
    code, doc = run_json("min-open", "--fn", "psi", "--n", "12")
    assert doc["results"]["members"] == [2, 3, 4, 5, 6, 7, 8, 9, 11, 12]
    code, doc = run_json("min-open", "--fn", "phi", "--n", "6",
                         "--topology", "taubar")
    assert doc["results"]["members"] == [1, 2, 6]


def test_separation_and_partition_commands():
    code, doc = run_json("verify-lemma", "separation", "--fn", "psi", "--bound", "1000")
    assert code == 0 and doc["status"] == "PASS"
    code, doc = run_json("verify-lemma", "separation", "--fn", "phi", "--bound", "1000")
    assert code == 1
    code, doc = run_json("partition-demo", "--mod", "2", "--bound", "100")
    assert doc["results"]["component_count"] == 2


def test_components_and_search():
    code, doc = run_json("components", "--fn", "phi", "--bound", "300")
    assert doc["results"]["component_count"] == 1
    code, doc = run_json("search", "--fn", "psi", "--max-start", "8",
                         "--max-depth", "8", "--max-families", "2")
    assert doc["results"]["label"] == "EXPERIMENTAL"
    assert doc["results"]["candidates"]


def test_table_determinism():
    _, first = run_cli("table", "orbit-numbers", "--no-timestamp",
                       "--format", "json")
    _, second = run_cli("table", "orbit-numbers", "--no-timestamp",
                        "--format", "json")
    assert first == second
    doc = json.loads(first)
    assert "timestamp" not in doc
    assert len(doc["results"]["rows"]) == 8


def test_timestamp_present_by_default():
    _, text = run_cli("eval", "--fn", "phi", "--n", "5", "--format", "json")
    assert "timestamp" in json.loads(text)


def test_connectivity_table():
    code, doc = run_json("table", "connectivity", "--bound", "500")
    rows = {r["function"]: r["verdict"] for r in doc["results"]["rows"]}
    assert rows["phi"].startswith("connected")
    assert rows["psi"].startswith("disconnected")
    assert rows["d"].startswith("no verdict")  # d(2) = 2 breaks the hypothesis


@pytest.mark.parametrize("bound", [1, 2])
def test_connectivity_note_only_beside_the_no_verdict_row_of_d(bound):
    # at bound 1 the hypothesis holds vacuously for d, and the note on d(2)
    # would contradict its row
    code, doc = run_json("table", "connectivity", "--bound", str(bound))
    assert code == 0 and doc["status"] == "PASS"
    results = doc["results"]
    d_row = next(r["verdict"] for r in results["rows"] if r["function"] == "d")
    if bound == 1:
        assert d_row == "connected (conditional: f(n) < n verified to 1)"
        assert "note" not in results
    else:
        assert d_row == "no verdict: hypothesis f(n) < n fails at n = 2"
        assert results["note"].startswith("d(2) = 2 breaks the strict-decrease hypothesis")


def test_csv_format():
    code, text = run_cli("table", "connectivity", "--bound", "200",
                         "--format", "csv", "--no-timestamp")
    lines = text.strip().splitlines()
    assert lines[0] == "function,verdict"
    assert len(lines) == 12  # header + 11 catalogue rows


def test_text_format_runs():
    code, text = run_cli("eval", "--fn", "psi", "--n", "6")
    assert "value: 12" in text


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tower_depth_cap": 3}')
    code, _ = run_cli("family", "--scheme", "omega-anti", "--depth", "4",
                      "--config", str(cfg))
    assert code == 2  # depth 4 now exceeds the configured cap
    code, _ = run_cli("family", "--scheme", "omega-anti", "--depth", "3",
                      "--config", str(cfg))
    assert code == 0
    capsys.readouterr()
    # the brute-force oracle is a test helper, so its two budgets are no
    # keys; nor are the six per-scheme depth caps that two keys replaced,
    # nor the prime-index budget that duplicated the fixed _INDEX_LIMIT
    for key in ("unknown_key", "oracle_tuple_budget", "oracle_value_budget",
                "depth_cap_phi_anti", "depth_cap_d_anti", "depth_cap_omega_anti",
                "depth_cap_smallomega_anti", "depth_cap_psi_orbit", "depth_cap_j2_orbit",
                "prime_index_budget"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({key: 1}))
        code, out = run_cli("eval", "--fn", "phi", "--n", "2", "--config", str(bad))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"


@pytest.mark.parametrize("text, key", [
    ('{"bit_budget": "big"}', "bit_budget"),
    ('{"bit_budget": null}', "bit_budget"),
    ('{"sieve_bound": 1e6}', "sieve_bound"),
    ('{"sieve_bound": 1000000.0}', "sieve_bound"),
    ('{"depth_cap": true}', "depth_cap"),
    ('{"inverse_phi_budget": [10]}', "inverse_phi_budget"),
])
def test_config_file_values_must_be_ints(tmp_path, capsys, text, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out = run_cli("eval", "--fn", "phi", "--n", "5", "--config", str(cfg))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key} needs an int, got ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[1, 2]", '"bit_budget"', "7", "null"])
def test_config_file_must_hold_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out = run_cli("eval", "--fn", "phi", "--n", "5", "--config", str(cfg))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: config file {cfg} holds no JSON object\n"


def test_render_value_respects_the_bit_budget():
    code, doc = run_json("family", "--scheme", "j2-orbit", "--depth", "5",
                         "--bit-budget", "64")
    assert code == 0
    assert doc["provenance"]["config"]["bit_budget"] == 64
    last = doc["results"]["terms"][-1]
    assert last == {"factored": "2^95*3", "value": "OVERFLOW"}
    code, doc = run_json("family", "--scheme", "j2-orbit", "--depth", "5")
    assert doc["results"]["terms"][-1]["value"] == "<97-bit integer>"


# runner -> the options it reads, each refused at 0
ZERO_REFUSALS = [
    ("verify-lemma", "generic-note", "--families"),
    ("verify-lemma", "generic-note", "--depth"),
    ("verify-lemma", "monotone-o-zero", "--bound"),
    ("verify-lemma", "monotone-a-zero", "--bound"),
    ("verify-lemma", "strict-o-positive", "--bound"),
    ("verify-lemma", "phi-finite-fibre", "--bound"),
    ("verify-lemma", "nonfinite-fibre", "--families"),
    ("verify-lemma", "tau-subset", "--bound"),
    ("verify-lemma", "taubar-subset", "--bound"),
    ("verify-lemma", "connected-forward", "--bound"),
    ("verify-lemma", "separation", "--bound"),
    ("verify-lemma", "partition-example", "--bound"),
    ("table", "orbit-numbers", "--bound"),
    ("table", "orbit-numbers", "--families"),
    ("table", "orbit-numbers", "--depth"),
    ("table", "connectivity", "--bound"),
]


@pytest.mark.parametrize("command,target,flag", ZERO_REFUSALS)
def test_runners_refuse_non_positive_parameters(capsys, command, target, flag):
    for value in ("0", "-3"):
        code, out = run_cli(command, target, flag, value)
        assert code == 2 and out == "", (target, flag, value)
        assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err


# the other commands' size options, each refused below 1
SIZE_REFUSALS = [
    (["components", "--fn", "phi"], "--bound"),
    (["partition-demo"], "--bound"),
    (["search", "--fn", "phi"], "--max-start"),
    (["search", "--fn", "phi"], "--max-depth"),
    (["search", "--fn", "phi"], "--max-families"),
    (["search", "--fn", "phi", "--direction", "backward"], "--max-depth"),
    (["min-open", "--fn", "phi", "--n", "4"], "--scan-bound"),
    (["preimage", "--fn", "phi", "--m", "4"], "--bound"),
    (["preimage", "--fn", "psi", "--m", "4"], "--bound"),
    (["preimage", "--fn", "Omega", "--m", "4"], "--bound"),
    (["partition-demo"], "--mod"),
]


@pytest.mark.parametrize("argv,flag", SIZE_REFUSALS,
                         ids=lambda v: "-".join(v) if isinstance(v, list) else v)
def test_commands_refuse_non_positive_sizes(capsys, argv, flag):
    for value in ("0", "-5"):
        code, out = run_cli(*argv, flag, value)
        assert code == 2 and out == "", (argv, flag, value)
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {value}\n"


GLOBAL_FLAGS = [["--format", "json"], ["--config", "CFG"], ["--no-timestamp"],
                ["--sieve-bound", "50"], ["--bit-budget", "64"]]
FLAG_COMMANDS = [["family", "--scheme", "j2-orbit", "--depth", "5"],
                 ["verify-lemma", "d-antiorbit", "--families", "2", "--depth", "4"],
                 ["table", "connectivity", "--bound", "100"]]


def _outcome(capsys, argv):
    code, out = run_cli(*argv)
    return code, out, capsys.readouterr().err


@pytest.mark.parametrize("flag", GLOBAL_FLAGS, ids=lambda f: f[0])
@pytest.mark.parametrize("command", FLAG_COMMANDS, ids=lambda c: c[0])
def test_global_flags_parse_before_the_subcommand(tmp_path, capsys, flag, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bit_budget": 100}')
    flag = [str(cfg) if a == "CFG" else a for a in flag]
    # deterministic json, unless the flag under test is one of these two
    rest = [a for f in (["--format", "json"], ["--no-timestamp"]) if f[0] != flag[0]
            for a in f]
    before = _outcome(capsys, [*flag, *command, *rest])
    after = _outcome(capsys, [*command, *rest, *flag])
    assert before == after
    assert before != _outcome(capsys, [*command, *rest])  # the flag acts


def test_a_global_flag_after_the_subcommand_wins():
    code, doc = run_json("--bit-budget", "64", "--format", "csv",
                         "family", "--scheme", "j2-orbit", "--depth", "5",
                         "--bit-budget", "100")
    assert code == 0 and doc["provenance"]["config"]["bit_budget"] == 100
    assert doc["results"]["terms"][-1]["value"] == "<97-bit integer>"  # past 64 bits


def test_main_reports_an_internal_error_on_one_line(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli.dy, "verify_disjoint", crash)
    argv = ["verify-lemma", "d-antiorbit", "--families", "3", "--depth", "2"]
    with pytest.raises(RecursionError):  # run() leaves it to its caller
        cli.run(argv, out=io.StringIO())
    monkeypatch.setattr(sys, "argv", ["arithdyn", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""
    assert captured.err == "error: internal RecursionError: maximum recursion depth exceeded\n"
    # a refusal keeps its exit code 2 through main
    monkeypatch.setattr(sys, "argv", ["arithdyn", "verify-lemma", "d-antiorbit",
                                      "--depth", "0"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2


def test_sieve_refusal_names_its_key(capsys):
    # the connectivity checks walk the primes up to --bound
    code, out = run_cli("table", "connectivity", "--bound", "200", "--sieve-bound", "100")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: sieve request 200 exceeds sieve bound 100 (sieve_bound)\n")


@pytest.mark.parametrize("key, config, argv", [
    ("depth_cap", {"depth_cap": 10}, ["verify-lemma", "phi-antiorbit"]),
    ("inverse_phi_budget", {}, ["preimage", "--fn", "phi", "--m", "2000000"]),
    ("sieve_bound", {"sieve_bound": 100}, ["table", "connectivity", "--bound", "200"]),
    ("tower_depth_cap", {"tower_depth_cap": 3},
     ["verify-lemma", "d-antiorbit", "--families", "2", "--depth", "4"]),
    ("bit_budget", {"bit_budget": 64}, ["orbit", "--fn", "psi", "--n", "2", "--depth", "100"]),
    # a pointwise lemma sieves up to its bound
    ("sieve_bound", {"sieve_bound": 100},
     ["verify-lemma", "separation", "--fn", "psi", "--bound", "1000"]),
    # a forward search refuses an orbit the bit budget stops
    ("bit_budget", {"bit_budget": 20}, ["search", "--fn", "psi"]),
    # a phi closure expanding a node past inverse_phi_budget
    ("inverse_phi_budget", {"inverse_phi_budget": 100},
     ["min-open", "--fn", "phi", "--n", "2", "--scan-bound", "1000"]),
])
def test_budget_refusal_names_its_key(tmp_path, capsys, key, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out = run_cli(*argv, "--config", str(cfg))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f" ({key})\n"), err


def test_preimage_inverter_method_and_sieve_independence():
    code, doc = run_json("preimage", "--fn", "psi", "--m", "12")
    assert doc["results"]["method"] == "divisor-driven inversion (complete)"
    # expansive targets no longer need a sieve up to m
    code, doc = run_json("preimage", "--fn", "sigma_1", "--m", "24",
                         "--sieve-bound", "10")
    assert code == 0
    assert doc["results"]["members"] == [14, 15, 23]
    # bounded fibres name their method: the inverter for phi_star, a scan
    # of one value table for Omega/omega/d_l
    code, doc = run_json("preimage", "--fn", "phi_star", "--m", "6", "--bound", "100")
    assert doc["results"]["method"] == "divisor-driven inversion, members <= 100"
    assert doc["results"]["members"] == [7, 12, 14]
    code, doc = run_json("preimage", "--fn", "Omega", "--m", "1", "--bound", "10")
    assert doc["results"]["method"] == "bounded scan of 1..10"
    assert doc["results"]["members"] == [1, 2, 3, 5, 7]


@pytest.mark.parametrize("fn, depth, candidates", [
    ("phi", 4, [[2, 4, 8, 15], [6, 18, 54, 81], [10, 22, 46, 47]]),
    ("psi", 4, [[6, 4, 3, 2], [24, 12, 8, 7]]),
    ("phi_star", 4, [[2, 3, 4, 5], [6, 7, 8, 9], [10, 22, 46, 47]]),
    ("Omega", 3, [[2, 4, 16], [3, 8, 256]]),
    ("d_3", 4, [[6, 9, 10, 8], [15, 81, 210, 864], [18, 45, 162, 420]]),
])
def test_search_backward(fn, depth, candidates):
    # complete fibres (phi, psi), the inverter cut at the scan bound
    # (phi_star) and one fibre table (Omega, d_3) behind one search
    code, doc = run_json("search", "--direction", "backward", "--fn", fn,
                         "--max-start", "30", "--max-depth", str(depth),
                         "--max-families", "3")
    assert code == 0 and doc["status"] == "INFO"
    assert doc["results"]["direction"] == "BACKWARD"
    assert doc["results"]["candidates"] == candidates


def test_search_backward_phi_refuses_past_the_inverse_phi_budget(tmp_path, capsys):
    # the second family inverts phi at 729, so a budget of 500 refuses the
    # whole search rather than a part of its report
    argv = ("search", "--fn", "phi", "--direction", "backward", "--max-start", "10",
            "--max-depth", "7", "--max-families", "3")
    code, doc = run_json(*argv)
    assert code == 0 and doc["results"]["candidates"] == [
        [2, 4, 8, 16, 32, 64, 85], [6, 18, 54, 162, 486, 1458, 1459]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"inverse_phi_budget": 500}')
    code, out = run_cli(*argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: inverse_phi target 729 over budget (inverse_phi_budget)\n")


def test_table_refuses_depth_past_the_cap(capsys):
    # phi-anti, psi-orbit and j2-orbit run at --depth; their cap is 10000
    code, out = run_cli("table", "orbit-numbers", "--depth", "10001", "--bound", "100")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "depth 10001 outside 1..10000" in err
    assert "(depth_cap)" in err


def test_table_rows_match_the_registry():
    code, doc = run_json("table", "orbit-numbers")
    assert code == 0 and doc["status"] == "PASS"
    cond = "(conditional: hypothesis verified up to 10000 only)"
    rows = [(r["functions"], r["orbit_number"], r["anti_orbit_number"])
            for r in doc["results"]["rows"]]
    assert rows == [
        ("phi (=J_1)", f"0 {cond}", "a(phi) >= 20 certified at depth 30"),
        ("d (=d_2)", f"0 {cond}", "a(d) >= 5 certified at depth 5"),
        ("Omega", f"0 {cond}", "a(Omega) >= 5 certified at depth 5"),
        ("omega", f"0 {cond}", "a(omega) >= 5 certified at depth 6"),
        ("phi_star", f"0 {cond}", "open problem; no verdict (see `search`)"),
        ("J_2", "o(J_2) >= 20 certified at depth 30", f"0 {cond}"),
        ("psi (=psi_1)", "o(psi) >= 20 certified at depth 30", f"0 {cond}"),
        ("sigma_k, psi_k, J_(k+2) (k <= 3)", f"> 0 {cond}", f"0 {cond}"),
    ]
    # each certified cell is what verify-lemma gives for its id at defaults
    certified = {"phi-antiorbit": rows[0][2], "d-antiorbit": rows[1][2],
                 "omega-antiorbit": rows[2][2], "smallomega-antiorbit": rows[3][2],
                 "j2-orbit": rows[5][1], "psi-orbit": rows[6][1]}
    for lemma, cell in certified.items():
        code, doc = run_json("verify-lemma", lemma)
        assert code == 0 and doc["results"]["certified_bound"] == cell, lemma
    # --families/--depth move the phi, J_2 and psi rows; the towers stay pinned
    code, doc = run_json("table", "orbit-numbers", "--families", "3", "--depth", "7",
                         "--bound", "100")
    assert code == 0
    moved = [(r["orbit_number"], r["anti_orbit_number"]) for r in doc["results"]["rows"]]
    assert moved[0][1] == "a(phi) >= 3 certified at depth 7"
    assert [cells[1] for cells in moved[1:4]] == [row[2] for row in rows[1:4]]
    assert moved[5][0] == "o(J_2) >= 3 certified at depth 7"
    assert moved[6][0] == "o(psi) >= 3 certified at depth 7"
