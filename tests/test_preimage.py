import pytest
from hypothesis import given, settings, strategies as st

from arithdyn import arithfun as af
from arithdyn import preimage as pre
from arithdyn.config import DEFAULT_CONFIG
from arithdyn.factorint import BudgetExceeded, to_integer


def brute_fibre(f, m, bound):
    return tuple(x for x in range(1, bound + 1) if af.evaluate_int(f, x) == m)


def test_psi_fibres_match_brute_force():
    # psi(4) = psi(5) = 6 and psi(8) = psi(9) = 12, so these fibres are
    # bigger than a naive guess; the scan is the oracle
    assert pre.preimage_expansive(af.PSI, 12).members == (6, 8, 9, 11)
    assert pre.preimage_expansive(af.PSI, 6).members == (4, 5)
    assert pre.preimage_expansive(af.PSI, 1).members == (1,)
    assert pre.preimage_expansive(af.SIGMA1, 2).members == ()
    for m in range(1, 200):
        assert pre.preimage_expansive(af.PSI, m).members == brute_fibre(af.PSI, m, m)


def test_preimage_expansive_rejects_phi():
    with pytest.raises(pre.NotExpansive):
        pre.preimage_expansive(af.PHI, 4)
    with pytest.raises(pre.NotExpansive):
        pre.preimage_expansive(af.PHI_STAR, 4)


def test_preimage_bounded_for_phi_star():
    res = pre.preimage_bounded(af.PHI_STAR, 6, 100)
    assert res.completeness == pre.BOUNDED_SEARCH
    assert res.search_bound == 100
    assert res.members == brute_fibre(af.PHI_STAR, 6, 100)
    assert all(af.evaluate_int(af.PHI_STAR, x) == 6 for x in res.members)


def test_phi_bound_examples():
    assert to_integer(pre.phi_bound(1)) == 2
    assert to_integer(pre.phi_bound(2)) == 36
    # containment of the real fibre in the certificate
    assert max(pre.inverse_phi(2).members) == 6 <= 36


def test_inverse_phi_examples():
    assert pre.inverse_phi(1).members == (1, 2)
    assert pre.inverse_phi(4).members == (5, 8, 10, 12)
    assert pre.inverse_phi(3).members == ()
    assert pre.inverse_phi(2).members == (3, 4, 6)
    assert pre.inverse_phi(1).completeness == pre.COMPLETE


def test_inverse_phi_against_brute_scan():
    table = af.value_table(af.PHI, 20_000)
    fibres = {}
    for x in range(1, 20_001):
        fibres.setdefault(table[x], []).append(x)
    for m in range(1, 301):
        assert pre.inverse_phi(m).members == tuple(fibres.get(m, []))


def test_inverse_phi_budget():
    tiny = DEFAULT_CONFIG.replace(inverse_phi_budget=100)
    with pytest.raises(BudgetExceeded):
        pre.inverse_phi(1000, tiny)


def test_phi_bound_containment():
    for m in range(1, 31):
        cert = to_integer(pre.phi_bound(m))
        for x in pre.inverse_phi(m).members:
            assert x <= cert


@given(st.integers(min_value=1, max_value=300))
def test_expansive_members_at_most_m(m):
    assert all(x <= m for x in pre.preimage_expansive(af.PSI, m).members)


@given(st.integers(min_value=1, max_value=120),
       st.integers(min_value=1, max_value=120))
def test_fibre_disjointness(m1, m2):
    if m1 == m2:
        return
    a = set(pre.inverse_phi(m1).members)
    b = set(pre.inverse_phi(m2).members)
    assert not (a & b)


def test_nonfinite_fibre_witnesses():
    assert pre.nonfinite_fibre_witness(af.BIG_OMEGA, 1, 4) == [2, 3, 5, 7]
    assert pre.nonfinite_fibre_witness(af.D, 2, 3) == [2, 3, 5]
    assert pre.nonfinite_fibre_witness(af.SMALL_OMEGA, 1, 1) == [2]
    assert pre.nonfinite_fibre_witness(af.divisor_count(3), 3, 2) == [2, 3]
    with pytest.raises(ValueError):
        pre.nonfinite_fibre_witness(af.BIG_OMEGA, 2, 3)
    with pytest.raises(pre.NotFiniteFibre):
        pre.nonfinite_fibre_witness(af.PSI, 1, 3)
    # every witness really sits in the fibre
    for p in pre.nonfinite_fibre_witness(af.divisor_count(4), 4, 50):
        assert af.evaluate_int(af.divisor_count(4), p) == 4


def test_complete_preimage_dispatch():
    assert pre.complete_preimage(af.PHI, 4) == (5, 8, 10, 12)
    assert pre.complete_preimage(af.PSI, 12) == (6, 8, 9, 11)
    with pytest.raises(pre.NotFiniteFibre):
        pre.complete_preimage(af.BIG_OMEGA, 1)
    with pytest.raises(pre.NotFiniteFibre):
        pre.complete_preimage(af.PHI_STAR, 6)


def test_preimage_table():
    table = pre.preimage_table(af.PSI, 200)
    for y in range(1, 201):
        assert tuple(table[y]) == brute_fibre(af.PSI, y, 200)


def test_expansive_containment_to_1e4():
    # fibre members never exceed their target, verified across the window
    for f in (af.PSI, af.jordan(2), af.SIGMA1):
        table = pre.preimage_table(f, 10_000)
        for y in range(1, 10_001):
            assert all(x <= y for x in table[y])


def test_result_validation():
    with pytest.raises(ValueError):
        pre.PreimageResult(3, (2, 1), pre.COMPLETE)
    with pytest.raises(ValueError):
        pre.PreimageResult(3, (1, 2), pre.BOUNDED_SEARCH)
    with pytest.raises(ValueError):
        pre.PreimageResult(3, (1, 2), "PARTIAL")


# ---------------------------------------------------------------------------
# the divisor-driven inverter against scans

INVERTIBLE = ("phi", "J_2", "J_3", "psi", "psi_2", "psi_3", "sigma_1",
              "sigma_2", "phi_star")
EXPANSIVE = [name for name in INVERTIBLE if pre.is_expansive_family(af.parse_function(name))]
SCAN = 20_000


@pytest.mark.parametrize("name", INVERTIBLE)
def test_bounded_fibres_match_value_table_scan(name):
    f = af.parse_function(name)
    table = af.value_table(f, SCAN)
    fibres = {}
    for x in range(1, SCAN + 1):
        fibres.setdefault(table[x], []).append(x)
    for m in range(1, SCAN + 1):
        res = pre.preimage_bounded(f, m, SCAN)
        assert res.members == tuple(fibres.get(m, ())), (name, m)
        assert res.completeness == pre.BOUNDED_SEARCH and res.search_bound == SCAN


@pytest.mark.parametrize("name", EXPANSIVE)
def test_complete_fibres_match_expansive_scan(name):
    f = af.parse_function(name)
    for m in list(range(1, 201)) + [720, 5040, 7776]:
        assert pre.complete_preimage(f, m) == pre.preimage_expansive(f, m).members, (name, m)


def _fibre(f, m, n):
    if f == af.PHI_STAR:
        return pre.preimage_bounded(f, m, n).members
    return pre.complete_preimage(f, m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(INVERTIBLE), st.integers(min_value=1, max_value=1_000_000))
def test_every_n_lies_in_the_fibre_of_its_value(name, n):
    # completeness past the sieve: J_3(n) reaches 1e18 here
    f = af.parse_function(name)
    m = af.evaluate_int(f, n)
    members = _fibre(f, m, n)
    assert n in members
    assert all(af.evaluate_int(f, x) == m for x in members)


def test_large_prime_power_candidates():
    p = 1_000_003
    for f in (af.SIGMA1, af.sigma(2), af.jordan(2), af.generalized_psi(2), af.PSI):
        for a in (1, 2, 3):
            assert p ** a in _fibre(f, af.evaluate_int(f, p ** a), p ** a), (f, a)
    # p^a - 1 divides m for each factor of a phi_star preimage
    assert 2 ** 4 * p in _fibre(af.PHI_STAR, 15 * (p - 1), 2 ** 4 * p)


def test_expansive_targets_past_the_sieve_bound():
    tiny = DEFAULT_CONFIG.replace(sieve_bound=100)
    assert pre.complete_preimage(af.PSI, 7776, tiny) == pre.complete_preimage(af.PSI, 7776)
    with pytest.raises(BudgetExceeded):
        pre.preimage_expansive(af.PSI, 7776, tiny)


def test_preimage_bounded_validation():
    with pytest.raises(ValueError):
        pre.preimage_bounded(af.PSI, 3, 0)
    with pytest.raises(ValueError):
        pre.preimage_bounded(af.PHI_STAR, 0, 10)
    # Omega keeps the scan
    assert pre.preimage_bounded(af.BIG_OMEGA, 1, 10).members == (1, 2, 3, 5, 7)


@given(st.integers(min_value=0, max_value=2 ** 128), st.integers(min_value=1, max_value=12))
def test_iroot(n, k):
    r = pre._iroot(n, k)
    assert r ** k <= n < (r + 1) ** k
    assert pre._iroot(r ** k, k) == r


def test_preimage_closure_expands_nodes_up_to_the_bound():
    closure = pre.preimage_closure(af.PHI, 6, 300)
    for y in closure:
        if y <= 300:
            assert set(pre.inverse_phi(y).members) <= closure
    # a node above the bound joins unexpanded: phi(n) < n for n >= 2, so the
    # fibre of the largest node lies above it and outside the closure
    top = max(closure)
    assert top > 300 and not set(pre.inverse_phi(top).members) & closure
    assert pre.preimage_closure(af.PSI, 12) == {2, 3, 4, 5, 6, 7, 8, 9, 11, 12}
    with pytest.raises(ValueError):
        pre.preimage_closure(af.PHI_STAR, 6)
