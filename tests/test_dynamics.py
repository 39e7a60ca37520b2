from fractions import Fraction

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


def spec_of(scheme, index=1):
    return dy.FamilySpec(scheme, index)


def test_family_term_examples():
    assert to_integer(dy.family_term(spec_of(dy.Scheme.PHI_ANTI), 2)) == 18
    assert dy.family_term(spec_of(dy.Scheme.D_ANTI), 3) == factorize(6561)
    assert to_integer(dy.family_term(spec_of(dy.Scheme.PSI_ORBIT), 3)) == 24
    assert to_integer(dy.family_term(spec_of(dy.Scheme.J2_ORBIT), 1)) == 96
    assert to_integer(dy.family_term(spec_of(dy.Scheme.SMALL_OMEGA_ANTI), 2)) == 105


def test_family_primes():
    assert spec_of(dy.Scheme.OMEGA_ANTI, 1).prime == 2
    assert spec_of(dy.Scheme.OMEGA_ANTI, 3).prime == 5
    assert spec_of(dy.Scheme.D_ANTI, 1).prime == 3
    assert spec_of(dy.Scheme.SMALL_OMEGA_ANTI, 5).prime == 13
    assert spec_of(dy.Scheme.PHI_ANTI, 2).prime is None


def test_depth_caps():
    with pytest.raises(BudgetExceeded):
        dy.family_terms(spec_of(dy.Scheme.OMEGA_ANTI), 6)
    with pytest.raises(BudgetExceeded):
        dy.family_terms(spec_of(dy.Scheme.D_ANTI), 6)
    with pytest.raises(BudgetExceeded):
        dy.family_terms(spec_of(dy.Scheme.SMALL_OMEGA_ANTI), 7)
    # config override unlocks depth 6, where the Omega tower's exponent is
    # the full value 2^65536
    deeper = DEFAULT_CONFIG.replace(depth_cap_omega_anti=6)
    t6 = dy.family_terms(spec_of(dy.Scheme.OMEGA_ANTI), 6, deeper)[-1]
    ((p, e),) = t6.explicit
    assert p == 2 and e == 2 ** 65536


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
    assert terms[4].has_deferred and terms[5].has_deferred
    assert af.evaluate(af.SMALL_OMEGA, terms[4]) == DeferredValue(terms[3], 0)


def test_verify_antiorbit_phi():
    rep = dy.verify_antiorbit(spec_of(dy.Scheme.PHI_ANTI), af.PHI, 4)
    assert rep.passed
    terms = dy.family_terms(spec_of(dy.Scheme.PHI_ANTI), 4)
    assert [to_integer(t) for t in terms] == [6, 18, 54, 162]


def test_verify_antiorbit_omega_depth5():
    rep = dy.verify_antiorbit(spec_of(dy.Scheme.OMEGA_ANTI), af.BIG_OMEGA, 5)
    assert rep.passed


def test_verify_orbit_examples():
    rep = dy.verify_orbit(spec_of(dy.Scheme.PSI_ORBIT), af.PSI, 4)
    assert rep.passed
    rep = dy.verify_orbit(spec_of(dy.Scheme.J2_ORBIT), af.J2, 3)
    assert rep.passed
    rep = dy.verify_orbit(spec_of(dy.Scheme.J2_ORBIT), af.J2, 1)
    assert rep.passed  # single term, vacuous


def test_j2_exponent_map():
    terms = dy.family_terms(spec_of(dy.Scheme.J2_ORBIT), 3)
    exps = [dict(t.explicit)[2] for t in terms]
    assert exps == [5, 11, 23]


def test_mismatched_scheme_errors():
    with pytest.raises(dy.MismatchedScheme):
        dy.verify_antiorbit(spec_of(dy.Scheme.PHI_ANTI), af.PSI, 3)
    with pytest.raises(dy.MismatchedScheme):
        dy.verify_orbit(spec_of(dy.Scheme.PHI_ANTI), af.PHI, 3)
    with pytest.raises(dy.MismatchedScheme):
        dy.verify_antiorbit(spec_of(dy.Scheme.PSI_ORBIT), af.PSI, 3)
    with pytest.raises(dy.MismatchedScheme):
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

    for module in (factorint, dy, af):
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


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([dy.Scheme.PHI_ANTI, dy.Scheme.PSI_ORBIT, dy.Scheme.J2_ORBIT]),
       st.integers(min_value=1, max_value=50),
       st.integers(min_value=2, max_value=25))
def test_recurrence_exactness_property(scheme, index, depth):
    f = dy.SCHEME_FUNCTION[scheme]
    if scheme in dy.ANTI_SCHEMES:
        assert dy.verify_antiorbit(dy.FamilySpec(scheme, index), f, depth).passed
    else:
        assert dy.verify_orbit(dy.FamilySpec(scheme, index), f, depth).passed


def test_generic_psi_consistency_and_subsumption():
    gspec = dy.psi_generic_spec(3)
    for fam in range(1, 4):
        terms, rep = dy.generic_family_terms(gspec, fam, 12)
        assert rep.passed
        assert terms == dy.family_terms(dy.FamilySpec(dy.Scheme.PSI_ORBIT, fam), 12)
    assert to_integer(dy.generic_family_terms(gspec, 1, 3)[0][0]) == 6


def test_generic_j2_subsumption():
    gspec = dy.j2_generic_spec(3)
    for fam in range(1, 4):
        terms, rep = dy.generic_family_terms(gspec, fam, 10)
        assert rep.passed
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
        dy.generic_family_terms(bad, 1, 4)


def test_classify_monotonicity():
    rep = dy.classify_monotonicity(af.PHI, 5000)
    assert rep.kind == dy.DECREASING_WEAK
    assert any("o(phi) = 0" in c for c in rep.conclusions)
    assert all("conditional" in c for c in rep.conclusions)
    rep = dy.classify_monotonicity(af.PSI, 5000)
    assert rep.kind == dy.INCREASING_STRICT_ABOVE_1
    assert any("a(psi) = 0" in c for c in rep.conclusions)
    assert any("o(psi) > 0" in c for c in rep.conclusions)
    rep = dy.classify_monotonicity(af.SIGMA1, 5000)
    assert rep.kind == dy.INCREASING_STRICT_ABOVE_1
    rep = dy.classify_monotonicity(af.D, 5000)
    assert rep.kind == dy.DECREASING_WEAK  # d(n) <= n, but d(2) = 2 kills strictness


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


def test_ent_cset_core_mode():
    with pytest.raises(ValueError):
        dy.ent_cset_estimate(af.PHI, [6], 3, mode=dy.CORE)
    est = dy.ent_cset_estimate(af.PSI, [6], 5, mode=dy.CORE)
    assert est.value == 0  # 6 is not in sc(psi)
    est = dy.ent_cset_estimate(af.PSI, [1], 5, mode=dy.CORE)
    assert est.value == Fraction(1, 5)  # sc contains the fixed point 1


def test_surjective_core():
    assert dy.surjective_core_verdict(af.PSI, 1) == dy.IN_CORE
    assert dy.surjective_core_verdict(af.PSI, 2) == dy.NOT_IN_CORE
    # exhaustive finite-tree search: the closure of 12 under psi-preimages
    # is {2,...,9,11,12} and contains no fixed point
    assert dy.surjective_core_verdict(af.PSI, 12) == dy.NOT_IN_CORE
    with pytest.raises(ValueError):
        dy.surjective_core_membership(af.PHI, 5)


def test_search_rediscovers_psi_orbit():
    budget = dy.SearchBudget(max_start=10, max_depth=12, max_families=5)
    found = dy.search_families(af.PSI, budget)
    assert found and all(c.label == "EXPERIMENTAL" for c in found)
    # one candidate runs into the 3*2^n orbit: 6 -> 12 -> 24 -> ...
    psi_orbit = [to_integer(t) for t in
                 dy.family_terms(dy.FamilySpec(dy.Scheme.PSI_ORBIT, 1), 5)]
    assert any(set(psi_orbit) <= set(c.values) for c in found)
    for c in found:
        for a, b in zip(c.values, c.values[1:]):
            assert af.evaluate_int(af.PSI, a) == b


def test_search_finds_no_phi_orbit():
    budget = dy.SearchBudget(max_start=100, max_depth=25, max_families=5)
    assert dy.search_families(af.PHI, budget) == []


def test_search_backward_phi():
    budget = dy.SearchBudget(max_start=10, max_depth=8, max_families=2)
    found = dy.search_families(af.PHI, budget, dy.BACKWARD)
    assert found
    for c in found:
        for a, b in zip(c.values, c.values[1:]):
            assert af.evaluate_int(af.PHI, b) == a  # anti-orbit recurrence


def test_entropy_estimate_validation():
    with pytest.raises(ValueError):
        dy.ent_set_estimate(af.PHI, [], 5)
    with pytest.raises(ValueError):
        dy.ent_set_estimate(af.PHI, [3], 0)


def test_surjective_core_matches_table_closures():
    bound = 200
    for f in (af.PSI, af.SIGMA1, af.J2):
        values = af.value_table(f, bound)
        table = pre.preimage_table(f, bound)
        for x in range(1, bound + 1):
            acc, frontier = {x}, [x]
            while frontier:
                for c in table[frontier.pop()]:
                    if c not in acc:
                        acc.add(c)
                        frontier.append(c)
            assert dy.surjective_core_membership(f, x) == any(
                values[y] == y for y in acc), (f, x)
