import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from arithdyn import arithfun as af
from arithdyn import dynamics as dy
from arithdyn import factorint
from arithdyn import preimage as pre
from arithdyn.config import DEFAULT_CONFIG
from arithdyn.factorint import (
    BudgetExceeded, DeferredValue, OVERFLOW, factorize, to_integer,
)
from helpers import evaluate_int


ROOT = Path(__file__).resolve().parent.parent


def spec_of(scheme, index=1):
    return dy.FamilySpec(scheme, index)


def test_package_exports_resolve():
    import arithdyn
    namespace = {}
    exec("from arithdyn import *", namespace)
    for name in arithdyn.__all__:
        assert namespace[name] is getattr(arithdyn, name), name


def has_deferred(x):
    """Does the factored natural x hold a DeferredValue, as an exponent or
    as an interval end?"""
    return (any(isinstance(e, DeferredValue) for _, e in x.explicit)
            or any(isinstance(hi, DeferredValue) for _, hi in x.intervals))


def last_term(scheme, n):
    return dy.family_terms(spec_of(scheme), n)[-1]


def test_family_term_examples():
    assert to_integer(last_term(dy.Scheme.PHI_ANTI, 2)) == 18
    assert last_term(dy.Scheme.D_ANTI, 3) == factorize(6561)
    assert to_integer(last_term(dy.Scheme.PSI_ORBIT, 3)) == 24
    assert to_integer(last_term(dy.Scheme.J2_ORBIT, 1)) == 96
    assert to_integer(last_term(dy.Scheme.SMALL_OMEGA_ANTI, 2)) == 105


def test_family_primes():
    assert spec_of(dy.Scheme.OMEGA_ANTI, 1).prime() == 2
    assert spec_of(dy.Scheme.OMEGA_ANTI, 3).prime() == 5
    assert spec_of(dy.Scheme.D_ANTI, 1).prime() == 3
    assert spec_of(dy.Scheme.SMALL_OMEGA_ANTI, 5).prime() == 13
    assert spec_of(dy.Scheme.PHI_ANTI, 2).prime() is None


def test_depth_caps():
    # one key caps the three tower schemes, another the three plain ones
    for scheme in dy.Scheme:
        key = "tower_depth_cap" if scheme in dy.TOWER_SCHEMES else "depth_cap"
        assert scheme.cap_key == key
        cap = getattr(DEFAULT_CONFIG, key)
        with pytest.raises(BudgetExceeded, match=rf"outside 1\.\.{cap} .*\({key}\)"):
            dy.family_terms(spec_of(scheme), cap + 1)
        lower = DEFAULT_CONFIG.replace(**{key: 2})
        assert len(dy.family_terms(spec_of(scheme), 2, lower)) == 2
        with pytest.raises(BudgetExceeded):
            dy.family_terms(spec_of(scheme), 3, lower)
    # the tower cap holds depth 6, where the Omega tower's exponent is the
    # value of term 5, 2^65536, kept as a link to that term
    *_, t5, t6 = dy.family_terms(spec_of(dy.Scheme.OMEGA_ANTI), 6)
    ((p, e),) = t6.explicit
    assert p == 2 and e == DeferredValue(t5, 0)
    assert e.resolve() == 2 ** 65536


def test_omega_tower_terms():
    terms = dy.family_terms(spec_of(dy.Scheme.OMEGA_ANTI), 5)
    values = [to_integer(t) for t in terms]
    assert values == [2, 4, 16, 65536, 2 ** 65536]
    assert values[-1].bit_length() == 65537


def test_smallomega_terms_use_intervals():
    terms = dy.family_terms(spec_of(dy.Scheme.SMALL_OMEGA_ANTI), 6)
    assert to_integer(terms[1]) == 105
    # by depth 4 the value is past any budget, the shape stays exact
    assert to_integer(terms[3]) is OVERFLOW
    assert has_deferred(terms[4]) and has_deferred(terms[5])
    assert af.evaluate(af.SMALL_OMEGA, terms[4]) == DeferredValue(terms[3], 0)


def test_verify_antiorbit_phi():
    rep = dy.verify_disjoint([spec_of(dy.Scheme.PHI_ANTI)], 4)
    assert rep.passed and rep.certified_bound == "a(phi) >= 1 certified at depth 4"
    terms = dy.family_terms(spec_of(dy.Scheme.PHI_ANTI), 4)
    assert [to_integer(t) for t in terms] == [6, 18, 54, 162]


def test_verify_antiorbit_omega_depth5():
    rep = dy.verify_disjoint([spec_of(dy.Scheme.OMEGA_ANTI)], 5)
    assert rep.passed


def test_verify_orbit_examples():
    rep = dy.verify_disjoint([spec_of(dy.Scheme.PSI_ORBIT)], 4)
    assert rep.passed and rep.certified_bound == "o(psi) >= 1 certified at depth 4"
    rep = dy.verify_disjoint([spec_of(dy.Scheme.J2_ORBIT)], 3)
    assert rep.passed
    rep = dy.verify_disjoint([spec_of(dy.Scheme.J2_ORBIT)], 1)
    assert rep.passed  # single term, vacuous


def test_j2_exponent_map():
    terms = dy.family_terms(spec_of(dy.Scheme.J2_ORBIT), 3)
    exps = [dict(t.explicit)[2] for t in terms]
    assert exps == [5, 11, 23]


def test_mismatched_scheme_errors():
    # the scheme names f and the direction, so only a mix of schemes mismatches
    with pytest.raises(ValueError, match="single scheme"):
        dy.verify_disjoint([spec_of(dy.Scheme.PHI_ANTI),
                            spec_of(dy.Scheme.PSI_ORBIT)], 3)


def test_verify_disjoint_pass_and_bound():
    rep = dy.verify_disjoint(dy.default_family_specs(dy.Scheme.PHI_ANTI, 6), 10)
    assert rep.passed
    assert rep.certified_bound == "a(phi) >= 6 certified at depth 10"
    rep = dy.verify_disjoint(dy.default_family_specs(dy.Scheme.PSI_ORBIT, 4), 12)
    assert rep.certified_bound == "o(psi) >= 4 certified at depth 12"


def test_verify_disjoint_catches_duplicates():
    rep = dy.verify_disjoint([spec_of(dy.Scheme.PHI_ANTI, 1)] * 2, 5)
    assert not rep.passed
    assert rep.counterexample.position == 1
    ce = rep.to_payload()["counterexample"]
    assert (ce["expected"], ce["actual"]) == ("2*3", "2*3")


@pytest.mark.parametrize("scheme", list(dy.Scheme))
def test_verify_disjoint_compares_in_one_pass(monkeypatch, scheme):
    calls = []
    real = dy.pairwise_all_different

    def spy(values, config=DEFAULT_CONFIG):
        calls.append(len(values))
        return real(values, config)

    monkeypatch.setattr(dy, "pairwise_all_different", spy)
    depth = min(dy.scheme_depth_cap(scheme, DEFAULT_CONFIG), 8)
    assert dy.verify_disjoint(dy.default_family_specs(scheme, 4), depth).passed
    assert calls == [4 * depth]


def test_repeat_inside_one_family_is_a_collision(monkeypatch):
    t1, t2 = factorize(6), factorize(18)
    monkeypatch.setattr(dy, "family_terms", lambda spec, depth, config: [t1, t2, t1])
    # a 2-cycle t1 <-> t2 keeps the recurrence in either direction
    monkeypatch.setattr(dy, "evaluate", lambda f, n, config: {t1: t2, t2: t1}[n])
    rep = dy.verify_disjoint([spec_of(dy.Scheme.PHI_ANTI)], 3)
    assert not rep.passed
    ce = rep.counterexample
    assert (ce.family, ce.position) == (1, 3)
    assert ce.detail == "collides with family 1 position 1"


def test_disjointness_20_families():
    for scheme, depth in ((dy.Scheme.PHI_ANTI, 30), (dy.Scheme.PSI_ORBIT, 30),
                          (dy.Scheme.J2_ORBIT, 30), (dy.Scheme.D_ANTI, 5),
                          (dy.Scheme.OMEGA_ANTI, 5),
                          (dy.Scheme.SMALL_OMEGA_ANTI, 6)):
        rep = dy.verify_disjoint(dy.default_family_specs(scheme, 20), depth)
        assert rep.passed, (scheme, rep.counterexample)


@pytest.mark.parametrize("scheme", list(dy.Scheme))
def test_verify_disjoint_threads_its_config(monkeypatch, scheme):
    depth = min(dy.scheme_depth_cap(scheme, DEFAULT_CONFIG), 12)
    specs = dy.default_family_specs(scheme, 5)
    want = dy.verify_disjoint(specs, depth)
    small = DEFAULT_CONFIG.replace(bit_budget=64)
    seen = []
    real = factorint.to_integer

    def spy(x, config=DEFAULT_CONFIG):
        seen.append(config)
        return real(x, config)

    for module in (factorint, dy):
        monkeypatch.setattr(module, "to_integer", spy)
    got = dy.verify_disjoint(specs, depth, small)
    assert (got.status, got.certified_bound) == (want.status, want.certified_bound)
    assert all(config is small for config in seen)


def test_verify_disjoint_builds_each_family_once(monkeypatch):
    built = []
    real = dy.family_terms

    def counting(spec, depth, config=DEFAULT_CONFIG):
        built.append(spec)
        return real(spec, depth, config)

    monkeypatch.setattr(dy, "family_terms", counting)
    specs = dy.default_family_specs(dy.Scheme.OMEGA_ANTI, 4)
    assert dy.verify_disjoint(specs, 5).passed
    assert built == specs


TOWER_SCHEMES = (dy.Scheme.D_ANTI, dy.Scheme.OMEGA_ANTI, dy.Scheme.SMALL_OMEGA_ANTI)


@pytest.mark.parametrize("scheme", TOWER_SCHEMES)
def test_repeated_verify_materialises_nothing(monkeypatch, scheme):
    specs = dy.default_family_specs(scheme, 5)
    depth = dy.scheme_depth_cap(scheme, DEFAULT_CONFIG)
    first = dy.verify_disjoint(specs, depth)
    widths = []
    real = factorint._materialise

    def spy(x, config):
        value = real(x, config)
        if value is not OVERFLOW:
            widths.append(value.bit_length())
        return value

    monkeypatch.setattr(factorint, "_materialise", spy)
    again = dy.verify_disjoint(specs, depth)
    # a repeat rebuilds its terms, materialising only their small int links
    assert max(widths, default=0) <= 64
    assert again == first and again.passed


@pytest.mark.parametrize("scheme", list(dy.Scheme))
def test_family_terms_returns_a_new_list(scheme):
    spec = spec_of(scheme, 2)
    a = dy.family_terms(spec, 4)
    b = dy.family_terms(spec, 4)
    assert a is not b and a == b
    a.pop()
    assert len(dy.family_terms(spec, 4)) == 4


def test_deeper_tower_request_reuses_the_shallower_terms():
    spec = spec_of(dy.Scheme.OMEGA_ANTI, 1)
    five = dy.family_terms(spec, 5)
    six = dy.family_terms(spec, 6)
    assert len(six) == 6
    assert six[:5] == five


def test_tower_terms_are_kept_per_config():
    spec = spec_of(dy.Scheme.D_ANTI, 3)  # p = 7: 7, 7^6, 7^117648, ...
    small = DEFAULT_CONFIG.replace(bit_budget=64)
    wide = dy.family_terms(spec, 5)
    narrow = dy.family_terms(spec, 5, small)
    assert not any(x is y for x, y in zip(wide, narrow))
    # 7^117648 might fit the default budget, so its exponent is an int
    # there; under 64 bits it certainly does not, and the exponent links to
    # the previous term
    assert not has_deferred(wide[2]) and has_deferred(narrow[2])
    values = [7, 7 ** 6, 7 ** 117648]
    assert [to_integer(t) for t in wide[:3]] == values
    assert [to_integer(t, small) for t in narrow] == [7, 7 ** 6] + [OVERFLOW] * 3


def test_certify_materialises_no_wide_integer(monkeypatch):
    # a link that must overflow the next term stays symbolic, and certified
    # comparisons decide by structure, so no tower value is materialised
    widths = []
    real = factorint.to_integer

    def spy(x, config=DEFAULT_CONFIG):
        value = real(x, config)
        if value is not OVERFLOW:
            widths.append(value.bit_length())
        return value

    for module in (factorint, dy):
        monkeypatch.setattr(module, "to_integer", spy)
    for scheme, families, depth in ((dy.Scheme.D_ANTI, 20, 5),
                                    (dy.Scheme.OMEGA_ANTI, 10, 5),
                                    (dy.Scheme.SMALL_OMEGA_ANTI, 10, 6)):
        specs = dy.default_family_specs(scheme, families)
        assert dy.verify_disjoint(specs, depth).passed
    assert widths and max(widths) <= 64


@pytest.mark.parametrize("scheme", TOWER_SCHEMES)
@pytest.mark.parametrize("bit_budget", [64, DEFAULT_CONFIG.bit_budget])
def test_towers_certify_past_the_default_caps(scheme, bit_budget):
    # a pair that no rule decides would raise ComparisonUndecided here
    config = DEFAULT_CONFIG.replace(bit_budget=bit_budget, tower_depth_cap=20)
    rep = dy.verify_disjoint(dy.default_family_specs(scheme, 5), 20, config)
    assert rep.passed, rep.counterexample
    assert rep.certified_bound.endswith(">= 5 certified at depth 20")


def test_distinct_tower_terms_compare_without_walking_the_chain(monkeypatch):
    # each d-anti term holds the one before as its exponent's base, so a
    # comparison that recursed into equal-offset bases would visit every
    # earlier term, and the certified comparison every pair below; the
    # bases' cached hashes tell distinct terms apart at once
    config = DEFAULT_CONFIG.replace(tower_depth_cap=40)
    terms = dy.family_terms(spec_of(dy.Scheme.D_ANTI), 40, config)
    calls = []
    real = factorint.FactoredNatural.__eq__

    def counted(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(factorint.FactoredNatural, "__eq__", counted)
    assert not terms[-1] == terms[-2]
    assert len(calls) <= 2
    calls.clear()
    assert factorint.certainly_different(terms[-1], terms[-2], config)
    assert len(calls) <= 40


LINK_OFFSET = {dy.Scheme.D_ANTI: lambda p: -1, dy.Scheme.OMEGA_ANTI: lambda p: 0,
               dy.Scheme.SMALL_OMEGA_ANTI: lambda p: factorint.prime_index(p) - 1}


def _link(scheme, term):
    """The place where a tower term holds the previous term's value, or
    None where a short interval was expanded into explicit primes."""
    if scheme is dy.Scheme.SMALL_OMEGA_ANTI:
        return term.intervals[0][1] if term.intervals else None
    ((_, e),) = term.explicit
    return e


@pytest.mark.parametrize("scheme", TOWER_SCHEMES)
@pytest.mark.parametrize("bit_budget", [20, 64, 5000, DEFAULT_CONFIG.bit_budget])
def test_tower_note_and_links_agree_with_integers(scheme, bit_budget):
    config = DEFAULT_CONFIG.replace(bit_budget=bit_budget)
    note = "terms past the bit budget checked by exact symbolic equality"
    cap = dy.scheme_depth_cap(scheme, config)
    for index in range(1, 11):
        spec = dy.FamilySpec(scheme, index)
        terms = dy.family_terms(spec, cap, config)
        offset = LINK_OFFSET[scheme](spec.prime())
        symbolic = [False]  # the first term, p, has no link
        for prev, term in zip(terms, terms[1:]):
            link = _link(scheme, term)
            if link is None:
                assert not has_deferred(term)
            elif isinstance(link, int):
                assert link == to_integer(prev, config) + offset
            else:
                assert link.base is prev and link.offset == offset
                assert to_integer(term, config) is OVERFLOW
            symbolic.append(isinstance(link, DeferredValue))
        for depth in range(1, cap + 1):
            rep = dy.verify_disjoint([spec], depth, config)
            assert rep.passed, (spec, depth)
            # the note says a step was decided by identity of a symbolic link
            assert (note in rep.notes) == any(symbolic[:depth]), (spec, depth)


def test_smallomega_certificate_keeps_the_prime_list_short():
    # its deepest terms hold q[4..85087]; the bit-length bounds and the
    # interval tests need no prime past the few the terms name explicitly
    code = ("from arithdyn import cli, factorint\n"
            "import io\n"
            "assert cli.run(['verify-lemma', 'smallomega-antiorbit', '--families', '10',"
            " '--depth', '6'], out=io.StringIO()) == 0\n"
            "print(factorint._prime_limit)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100_000


def test_orbit_failure_counterexample_json(monkeypatch):
    # a factored expected value stays a repr string, an int value a number
    monkeypatch.setattr(dy, "evaluate", lambda f, n, config: 7)
    rep = dy.verify_disjoint([dy.FamilySpec(dy.Scheme.D_ANTI, 1)], 3)
    ce = rep.to_payload()["counterexample"]
    assert (ce["family"], ce["position"], ce["expected"], ce["actual"]) == (1, 1, "3", 7)


def test_search_backward_is_not_bounded_by_the_recursion_limit(monkeypatch):
    monkeypatch.setattr(dy, "fibres",
                        lambda f, bound, config: SimpleNamespace(of=lambda y: [y + 1]))
    budget = dy.SearchBudget(max_start=2, max_depth=5000, max_families=1)
    (found,) = dy.search_families(af.PHI, budget, dy.BACKWARD)
    assert found.values == tuple(range(2, 5002))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([dy.Scheme.PHI_ANTI, dy.Scheme.PSI_ORBIT, dy.Scheme.J2_ORBIT]),
       st.integers(min_value=1, max_value=50),
       st.integers(min_value=2, max_value=25))
def test_recurrence_exactness_property(scheme, index, depth):
    assert dy.verify_disjoint([dy.FamilySpec(scheme, index)], depth).passed


def test_generic_psi_consistency_and_subsumption():
    gspec = dy.psi_generic_spec(3)
    generic, rep = dy.generic_family_terms(gspec, 12)
    assert rep.passed
    assert rep.certified_bound == "o(psi) >= 3 certified at depth 12"
    for fam, terms in enumerate(generic, start=1):
        assert terms == dy.family_terms(dy.FamilySpec(dy.Scheme.PSI_ORBIT, fam), 12)
    assert to_integer(dy.generic_family_terms(gspec, 3)[0][0][0]) == 6


def test_generic_j2_subsumption():
    gspec = dy.j2_generic_spec(3)
    generic, rep = dy.generic_family_terms(gspec, 10)
    assert rep.passed and len(generic) == 3
    for fam, terms in enumerate(generic, start=1):
        assert terms == dy.family_terms(dy.FamilySpec(dy.Scheme.J2_ORBIT, fam), 10)


def test_generic_cofactor_support_check():
    with pytest.raises(ValueError):
        dy.GenericFamilySpec(af.PSI, (2, 3), ((1, -1), (1, -1)),
                             (factorize(5), factorize(4)), ((1, 1),))


def test_generic_model_consistency_failure():
    # claim psi(p^n) = p^(n-1) * h(p) with a wrong cofactor
    bad = dy.GenericFamilySpec(af.PSI, (2, 3), ((1, -1), (1, -1)),
                               (factorize(3), factorize(2)), ((1, 1),))
    with pytest.raises(ValueError, match="inconsistent"):
        dy.generic_family_terms(bad, 4)


def test_generic_equal_seeds_collide():
    # families 2 and 3 share a seed, so their whole orbits coincide
    gspec = dy.GenericFamilySpec(af.PSI, (2, 3), ((1, -1), (1, -1)),
                                 (factorize(3), factorize(4)), ((1, 1), (1, 2), (1, 2)))
    generic, rep = dy.generic_family_terms(gspec, 4)
    assert rep.status == "FAIL" and rep.families_checked == 3
    ce = rep.counterexample
    assert (ce.family, ce.position) == (3, 1)
    assert ce.expected == ce.actual == generic[1][0]
    assert ce.detail == "collides with family 2 position 1"
    # without terms there is nothing to tell the families apart
    with pytest.raises(ValueError, match="depth >= 1"):
        dy.generic_family_terms(gspec, 0)


def test_generic_exponents_stay_in_the_support():
    # phi(2^a 3^b) = 2^a 3^(b-1) for a, b >= 1, so the exponent of 3 runs out
    leaving = dy.GenericFamilySpec(af.PHI, (2, 3), ((1, -1), (1, -1)),
                                   (factorize(1), factorize(2)), ((1, 2),))
    assert dy.generic_family_terms(leaving, 2)[1].passed
    with pytest.raises(BudgetExceeded, match=r"\(1, 0\) leaves the support"):
        dy.generic_family_terms(leaving, 3)


def test_generic_seed_may_leave_the_support():
    # only the vectors after the seed must keep every exponent >= 1; the
    # seed (0, 1) is 3, whose psi-image 4 the exponent step (to 6) misses,
    # so the family check reports the broken recurrence
    gspec = dy.GenericFamilySpec(af.PSI, (2, 3), ((1, -1), (1, -1)),
                                 (factorize(3), factorize(4)), ((1, 1), (0, 1)))
    generic, rep = dy.generic_family_terms(gspec, 3)
    assert [to_integer(t) for t in generic[1]] == [3, 6, 12]
    assert rep.status == "FAIL"
    ce = rep.counterexample
    assert (ce.family, ce.position, to_integer(ce.expected)) == (2, 1, 6)
    assert to_integer(ce.actual) == 4


def test_classify_monotonicity():
    cond = "(conditional: hypothesis verified up to 5000 only)"
    for lemma, f, conclusion in (("monotone-o-zero", af.PHI, "o(phi) = 0"),
                                 ("monotone-a-zero", af.PSI, "a(psi) = 0"),
                                 ("strict-o-positive", af.PSI, "o(psi) > 0"),
                                 ("strict-o-positive", af.SIGMA1, "o(sigma_1) > 0")):
        rep = af.pointwise_lemma(lemma, f, 5000)
        assert rep.passed and rep.lemma_id == f"{lemma} {f}"
        assert rep.certified_bound == f"{conclusion} {cond}"
    assert af.pointwise_lemma("monotone-o-zero", af.D, 5000).passed  # d(n) <= n ...
    rep = af.pointwise_lemma("strict-o-positive", af.D, 5000)  # ... but d(2) = 2
    assert not rep.passed
    cx = rep.counterexample
    assert (cx.position, cx.expected, cx.actual) == (2, "> 2", 2)
    assert cx.detail == "hypothesis f(n) > n fails at n = 2"


def test_ent_set_examples():
    est = dy.ent_set_estimate(af.PHI, [6], 6)
    assert est.value == Fraction(1, 2)  # orbit set {6, 2, 1}
    est = dy.ent_set_estimate(af.PSI, [6], 50)
    assert est.value == 1
    est = dy.ent_set_estimate(af.PSI, [6, 18, 54, 162, 486], 500)
    assert abs(est.value - 5) <= Fraction(1, 10)
    assert est.set_size == 2500


def test_ent_set_monotone_collapse():
    est = dy.ent_set_estimate(af.PHI, list(range(1, 101)), 10_000)
    assert est.value <= Fraction(1, 50)  # 0.02


def test_ent_cset_examples():
    # psi^-1(6) = {4, 5}: the backward closure of {6} is {2, 3, 4, 5, 6}
    est = dy.ent_cset_estimate(af.PSI, [6], 10)
    assert est.value == Fraction(1, 2)
    assert est.mode == dy.AMBIENT
    est = dy.ent_cset_estimate(af.PHI, [6], 3)
    assert est.value == 3  # {6,7,9,14,18} plus nine second-level members
    assert est.set_size == 9
    est = dy.ent_cset_estimate(af.PHI, [1], 1)
    assert est.value == 1


def test_ent_cset_needs_complete_fibres_only_past_horizon_one():
    # horizon 1 takes no preimage, so phi_star (no complete fibres) answers
    est = dy.ent_cset_estimate(af.PHI_STAR, [6], 1)
    assert est.value == 1 and est.set_size == 1
    with pytest.raises(pre.NotFiniteFibre):
        dy.ent_cset_estimate(af.PHI_STAR, [6], 2)


def test_ent_cset_core_mode():
    with pytest.raises(ValueError):
        dy.ent_cset_estimate(af.PHI, [6], 3, mode=dy.CORE)
    est = dy.ent_cset_estimate(af.PSI, [6], 5, mode=dy.CORE)
    assert est.value == 0  # 6 is not in sc(psi)
    est = dy.ent_cset_estimate(af.PSI, [1], 5, mode=dy.CORE)
    assert est.value == Fraction(1, 5)  # sc contains the fixed point 1


def test_surjective_core():
    assert dy.surjective_core_membership(af.PSI, 1) is True
    assert dy.surjective_core_membership(af.PSI, 2) is False
    # exhaustive finite-tree search: the closure of 12 under psi-preimages
    # is {2,...,9,11,12} and contains no fixed point
    assert dy.surjective_core_membership(af.PSI, 12) is False
    with pytest.raises(ValueError):
        dy.surjective_core_membership(af.PHI, 5)


def test_search_rediscovers_psi_orbit():
    budget = dy.SearchBudget(max_start=10, max_depth=12, max_families=5)
    found = dy.search_families(af.PSI, budget)
    assert found
    # one candidate runs into the 3*2^n orbit: 6 -> 12 -> 24 -> ...
    psi_orbit = [to_integer(t) for t in
                 dy.family_terms(dy.FamilySpec(dy.Scheme.PSI_ORBIT, 1), 5)]
    assert any(set(psi_orbit) <= set(c.values) for c in found)
    for c in found:
        for a, b in zip(c.values, c.values[1:]):
            assert evaluate_int(af.PSI, a) == b


def test_search_value_cap_is_a_module_constant(monkeypatch):
    # the budget holds the four sizes a caller sets, in this order
    assert dy.SearchBudget(12, 3, 3, 300) == dy.SearchBudget(
        max_start=12, max_depth=3, max_families=3, scan_bound=300)
    budget = dy.SearchBudget(max_start=10, max_depth=12, max_families=5)
    monkeypatch.setattr(dy, "SEARCH_VALUE_BITS", 8)  # psi orbits pass 8 bits by step 12
    assert dy.search_families(af.PSI, budget) == []


@pytest.mark.parametrize("field", ["max_start", "max_depth", "max_families", "scan_bound"])
@pytest.mark.parametrize("value", [0, -2])
def test_search_budget_refuses_a_size_below_one(field, value):
    # a depth below 1 would hand back one-value chains as families
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
        dy.SearchBudget(**{field: value})


def test_search_finds_no_phi_orbit():
    budget = dy.SearchBudget(max_start=100, max_depth=25, max_families=5)
    assert dy.search_families(af.PHI, budget) == []


def test_search_backward_phi():
    budget = dy.SearchBudget(max_start=10, max_depth=8, max_families=2)
    found = dy.search_families(af.PHI, budget, dy.BACKWARD)
    assert found
    for c in found:
        for a, b in zip(c.values, c.values[1:]):
            assert evaluate_int(af.PHI, b) == a  # anti-orbit recurrence


def test_search_backward_scan_families_read_one_table(monkeypatch):
    # Omega, omega and d_l fibres hold every prime, so each node's bounded
    # fibre is read from one value table of 1..scan_bound built per search
    built = []
    real = pre.value_table

    def spy(f, bound, config=DEFAULT_CONFIG):
        built.append((f, bound))
        return real(f, bound, config)

    monkeypatch.setattr(pre, "value_table", spy)
    budget = dy.SearchBudget(max_start=12, max_depth=3, max_families=3, scan_bound=300)
    found = dy.search_families(af.BIG_OMEGA, budget, dy.BACKWARD)
    assert [c.values for c in found] == [(2, 4, 16), (3, 8, 256)]
    assert built == [(af.BIG_OMEGA, 300)]
    budget = dy.SearchBudget(max_start=12, max_depth=4, max_families=3, scan_bound=300)
    found = dy.search_families(af.divisor_count(3), budget, dy.BACKWARD)
    assert [c.values for c in found] == [(6, 9, 10, 8)]
    for c in found:
        for a, b in zip(c.values, c.values[1:]):
            assert b in pre.preimage_bounded(af.divisor_count(3), a, 300).members


@pytest.mark.parametrize("f", [af.PHI, af.PSI, af.PHI_STAR, af.BIG_OMEGA,
                               af.SMALL_OMEGA, af.D, af.SIGMA1], ids=str)
def test_entropy_estimate_matches_int_sets(f):
    # the union of f^t(A) for t < horizon, computed on plain integers; the
    # seeds 2 and 4 meet later iterates of the prime-counting families
    seeds, horizon = [2, 4, 6, 12, 30], 8
    current, acc = set(seeds), set(seeds)
    for _ in range(horizon - 1):
        current = {evaluate_int(f, x) for x in current}
        acc |= current
    est = dy.ent_set_estimate(f, seeds, horizon)
    assert est.set_size == len(acc)
    assert est.value == Fraction(len(acc), horizon)


def test_entropy_estimate_refuses_int_iterates_past_128_bits():
    # sigma_2 from 2 reaches 163 bits at step 7, an int too wide to factorise
    assert dy.ent_set_estimate(af.sigma(2), [2], 7).set_size == 7
    with pytest.raises(BudgetExceeded, match="163-bit"):
        dy.ent_set_estimate(af.sigma(2), [2], 8)


def test_entropy_estimate_validation():
    for estimate in (dy.ent_set_estimate, dy.ent_cset_estimate):
        with pytest.raises(ValueError):
            estimate(af.PHI, [], 5)
        with pytest.raises(ValueError):
            estimate(af.PHI, [3], 0)
        for seed in (0, -1):  # a seed is a natural, at every horizon
            for horizon in (1, 2):
                with pytest.raises(ValueError, match=f"seeds are naturals >= 1, got {seed}"):
                    estimate(af.PSI, [seed, 6], horizon)


def test_surjective_core_matches_table_closures():
    bound = 200
    for f in (af.PSI, af.SIGMA1, af.J2):
        values = af.value_table(f, bound)
        table = pre.fibre_table(f, bound)
        for x in range(1, bound + 1):
            acc, frontier = {x}, [x]
            while frontier:
                for c in table.get(frontier.pop(), []):
                    if c not in acc:
                        acc.add(c)
                        frontier.append(c)
            assert dy.surjective_core_membership(f, x) == any(
                values[y] == y for y in acc), (f, x)
