import pytest

from arithdyn import arithfun as af
from arithdyn import topology as tp
from arithdyn import preimage as pre
from arithdyn.preimage import NotFiniteFibre


def brute_backward_closure(f, x):
    acc, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        for c in range(1, y + 1):
            if af.evaluate_int(f, c) == y and c not in acc:
                acc.add(c)
                frontier.append(c)
    return tuple(sorted(acc))


def test_min_open_forward_phi():
    m = tp.min_open_forward(af.PHI, 6)
    assert m.members == (1, 2, 6)
    assert m.completeness == tp.COMPLETE
    assert tp.min_open_forward(af.PHI, 1).members == (1,)


def test_min_open_forward_truncates_on_growth():
    m = tp.min_open_forward(af.PSI, 6)
    assert m.completeness == tp.TRUNCATED
    assert m.members[:4] == (6, 12, 24, 48)


def test_min_open_backward_psi():
    m = tp.min_open_backward(af.PSI, 12)
    assert m.completeness == tp.COMPLETE
    assert m.members == brute_backward_closure(af.PSI, 12)
    assert m.members == (2, 3, 4, 5, 6, 7, 8, 9, 11, 12)
    assert max(m.members) <= 12
    assert tp.min_open_backward(af.PSI, 1).members == (1,)


def test_min_open_backward_refuses_prime_counters():
    for f in (af.BIG_OMEGA, af.SMALL_OMEGA, af.D):
        with pytest.raises(NotFiniteFibre):
            tp.min_open_backward(f, 1, 100)


def test_min_open_backward_phi():
    m = tp.min_open_backward(af.PHI, 5, scan_bound=1000)
    assert m.members == (5,) and m.completeness == tp.COMPLETE
    m = tp.min_open_backward(af.PHI, 6, scan_bound=300)
    assert m.completeness == tp.TRUNCATED
    assert {6, 7, 9, 14, 18} <= set(m.members)
    with pytest.raises(ValueError):
        tp.min_open_backward(af.PHI, 6)


def test_min_open_backward_bounded_only():
    m = tp.min_open_backward(af.PHI_STAR, 6, scan_bound=200)
    assert m.completeness == tp.TRUNCATED
    assert 6 in m.members


def test_contains_one_forward():
    rep = tp.contains_one_forward(af.PHI, 3000)
    assert rep.passed
    assert "connected" in rep.certified_bound
    assert "conditional" in rep.certified_bound
    rep = tp.contains_one_forward(af.PHI_STAR, 2000)
    assert rep.passed
    rep = tp.contains_one_forward(af.PSI, 100)
    assert not rep.passed
    assert rep.counterexample.position == 2  # psi(2) = 3 > 2
    rep = tp.contains_one_forward(af.D, 100)
    assert not rep.passed
    assert rep.counterexample.position == 2  # d(2) = 2, not < 2


def test_separation_check():
    for name in ("psi", "psi_2", "J_2", "sigma_1"):
        rep = tp.separation_check(af.parse_function(name), 2000)
        assert rep.passed, name
        assert "disconnected" not in (rep.certified_bound or "")  # phrased as separation
        assert "separates" in rep.certified_bound
    rep = tp.separation_check(af.PHI, 2000)
    assert not rep.passed
    # least violation: phi(2) = 1 < 2 (phi(3) = 2 < 3 also violates)
    assert rep.counterexample.position == 2
    assert af.evaluate_int(af.PHI, 3) == 2 < 3


def test_tau_subset():
    rep = tp.verify_tau_subset(af.PSI, 2000)
    assert rep.passed
    with pytest.raises(ValueError):
        tp.verify_tau_subset(af.PHI, 100)


def test_taubar_subset():
    rep = tp.verify_taubar_subset(af.PHI, 2000)
    assert rep.passed
    rep = tp.verify_taubar_subset(af.PSI, 100)
    assert not rep.passed  # hypothesis f <= n fails immediately


def test_partition_odds_evens():
    res = tp.partition_map(tp.odds_evens(), 10)
    assert res.components == ((1, 3, 5, 7, 9), (2, 4, 6, 8, 10))
    assert res.report.passed
    assert res.function_table[1] == 3 and res.function_table[2] == 4
    assert 9 in res.boundary and 10 in res.boundary


def test_partition_single_block():
    res = tp.partition_map([tp.ResidueBlock(1, 0)], 50)
    assert len(res.components) == 1
    assert res.report.passed


def test_partition_mod3():
    res = tp.partition_map(tp.residue_partition(3), 12)
    assert len(res.components) == 3
    for comp in res.components:
        mods = {x % 3 for x in comp}
        assert len(mods) == 1  # components never straddle blocks


def test_partition_explicit_blocks():
    threes = tuple(range(3, 100, 3))
    rest = tuple(x for x in range(1, 100) if x % 3)
    res = tp.partition_map([tp.ExplicitBlock(threes), tp.ExplicitBlock(rest)], 60)
    assert len(res.components) == 2
    assert res.report.passed


def test_partition_rejects_non_partition():
    with pytest.raises(ValueError):
        tp.partition_map([tp.ResidueBlock(2, 0)], 10)  # odds uncovered
    with pytest.raises(ValueError):
        tp.partition_map([tp.ResidueBlock(2, 0), tp.ResidueBlock(1, 0)], 10)


def test_forward_orbit_minimum_is_fixed_point():
    # for decreasing maps the orbit minimum can go nowhere, so it is fixed
    for f in (af.PHI, af.PHI_STAR):
        for k in (1, 2, 17, 96, 720, 5040):
            members = tp.min_open_forward(f, k).members
            bottom = min(members)
            assert af.evaluate_int(f, bottom) == bottom
            assert bottom == 1 or k == 1


def test_component_census():
    out = tp.component_census(af.PHI, 500)
    assert out["component_count"] == 1  # everything funnels into 1
    out = tp.component_census(af.PSI, 500)
    assert out["component_count"] >= 1
    assert out["boundary_elements"] > 0  # psi values escape the window


def test_minimal_open_set_validation():
    with pytest.raises(ValueError):
        tp.MinimalOpenSet(5, tp.TAU, (1, 2), tp.COMPLETE)  # point missing
    with pytest.raises(ValueError):
        tp.MinimalOpenSet(1, "other", (1,), tp.COMPLETE)


def _table_closure(pre_table, x):
    acc, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        for c in pre_table[y]:
            if c not in acc:
                acc.add(c)
                frontier.append(c)
    return tuple(sorted(acc))


def test_min_open_backward_matches_preimage_table_closures():
    bound = 3000
    for name in ("psi", "psi_2", "J_2", "sigma_1"):
        f = af.parse_function(name)
        table = pre.preimage_table(f, bound)
        for x in range(1, bound + 1, 29):
            m = tp.min_open_backward(f, x)
            assert m.members == _table_closure(table, x), (name, x)
            assert m.completeness == tp.COMPLETE
    table = pre.preimage_table(af.PHI_STAR, bound)
    for x in range(1, bound + 1, 29):
        m = tp.min_open_backward(af.PHI_STAR, x, scan_bound=bound)
        assert m.members == _table_closure(table, x), x
        assert (m.completeness, m.truncation_bound) == (tp.TRUNCATED, bound)
