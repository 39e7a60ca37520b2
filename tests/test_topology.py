import time

import pytest
from hypothesis import given, settings, strategies as st

from arithdyn import arithfun as af
from arithdyn import topology as tp
from arithdyn import preimage as pre
from arithdyn.config import DEFAULT_CONFIG
from arithdyn.factorint import BudgetExceeded
from arithdyn.preimage import NotFiniteFibre
from helpers import ExplicitBlock, evaluate_int


def brute_backward_closure(f, x):
    acc, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        for c in range(1, y + 1):
            if evaluate_int(f, c) == y and c not in acc:
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
    # a scan bound below 1 is refused, even where phi's fibres are complete
    for f, scan_bound in ((af.PHI, 0), (af.PSI, -3), (af.PHI_STAR, 0)):
        with pytest.raises(ValueError):
            tp.min_open_backward(f, 4, scan_bound)


def _inverse_phi_closure(x, scan_bound):
    # per-target inverse_phi, every node up to scan_bound expanded
    acc, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        if y <= scan_bound:
            fresh = set(pre.inverse_phi(y).members) - acc
            acc |= fresh
            frontier.extend(fresh)
    return tuple(sorted(acc))


@pytest.mark.parametrize("scan_bound", [50, 2000, 5000])
def test_min_open_backward_phi_matches_inverse_phi_closures(scan_bound):
    # x = 3 is one node and never builds the fibre table; x = 2 covers 1..bound
    for x in (2, 3, 4, 6, 96, 1000):
        m = tp.min_open_backward(af.PHI, x, scan_bound)
        assert m.members == _inverse_phi_closure(x, scan_bound), (x, scan_bound)
        truncated = m.members[-1] > scan_bound
        assert m.completeness == (tp.TRUNCATED if truncated else tp.COMPLETE)
        assert m.truncation_bound == (scan_bound if truncated else None)


def test_min_open_backward_phi_budgets():
    # a node past inverse_phi_budget is refused, as without the fibre table
    small = DEFAULT_CONFIG.replace(inverse_phi_budget=100)
    with pytest.raises(BudgetExceeded, match="inverse_phi_budget"):
        tp.min_open_backward(af.PHI, 2, 1000, small)
    # a sieve_bound below the scan bound only shrinks the table: no refusal
    for sieve_bound in (1, 100):
        tiny = DEFAULT_CONFIG.replace(sieve_bound=sieve_bound)
        assert tp.min_open_backward(af.PHI, 2, 2000, tiny) == tp.min_open_backward(
            af.PHI, 2, 2000)


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
    assert evaluate_int(af.PHI, 3) == 2 < 3


def test_tau_subset():
    rep = tp.verify_tau_subset(af.PSI, 2000)
    assert rep.passed
    with pytest.raises(ValueError):
        tp.verify_tau_subset(af.PHI, 100)


def test_tau_subset_builds_one_table(monkeypatch):
    # expansiveness is decided on the prime powers, and once f(x) >= x
    # every preimage of k lies in 1..k: neither the value table nor the
    # fibre table of 1..bound is built any more
    built = []

    def spy(real):
        def wrapped(f, bound, config=DEFAULT_CONFIG):
            built.append((real.__name__, f, bound))
            return real(f, bound, config)
        return wrapped

    for name in ("value_table", "fibre_table"):
        real = getattr(pre, name)
        for module in (af, pre, tp):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(real))
    assert tp.verify_tau_subset(af.PSI, 500).passed
    assert built == []


def test_taubar_subset():
    rep = tp.verify_taubar_subset(af.PHI, 2000)
    assert rep.passed
    rep = tp.verify_taubar_subset(af.PSI, 100)
    assert not rep.passed  # hypothesis f <= n fails immediately


def test_partition_odds_evens():
    res = tp.partition_map(tp.residue_partition(2), 10)
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
    res = tp.partition_map([ExplicitBlock(threes), ExplicitBlock(rest)], 60)
    assert len(res.components) == 2
    assert res.report.passed


def test_partition_rejects_non_partition():
    # each refusal names the least x held by 0 or by 2+ blocks
    with pytest.raises(ValueError, match=r"^1 belongs to 0 blocks; need a partition of 1\.\.10$"):
        tp.partition_map([tp.ResidueBlock(2, 0)], 10)  # odds uncovered
    with pytest.raises(ValueError, match=r"^2 belongs to 2 blocks; need a partition of 1\.\.10$"):
        tp.partition_map([tp.ResidueBlock(2, 0), tp.ResidueBlock(1, 0)], 10)
    overlap = [ExplicitBlock((1, 3, 5)), tp.ResidueBlock(2, 0), ExplicitBlock((2, 4, 7)),
               tp.ResidueBlock(2, 1)]
    with pytest.raises(ValueError, match=r"^1 belongs to 2 blocks; need a partition of 1\.\.9$"):
        tp.partition_map(overlap, 9)
    with pytest.raises(ValueError, match=r"^2 belongs to 2 blocks; need a partition of 1\.\.9$"):
        tp.partition_map(overlap[:3], 9)


def _brute_partition(blocks, bound):
    """(refusal, None) for the least x of 1..bound held by 0 or 2+ blocks,
    else (None, (owner, successor table)), asking every block about every x."""
    def holds(block, x):
        if isinstance(block, tp.ResidueBlock):
            return x % block.modulus == block.residue
        return x in block.generators

    owner = {}
    for x in range(1, bound + 1):
        holders = [i for i, b in enumerate(blocks) if holds(b, x)]
        if len(holders) != 1:
            return f"{x} belongs to {len(holders)} blocks; need a partition of 1..{bound}", None
        owner[x] = holders[0]
    ftable = {}
    for x in range(1, bound + 1):
        block = blocks[owner[x]]
        if isinstance(block, tp.ResidueBlock):
            ftable[x] = x + block.modulus
        else:
            later = [g for g in block.generators if g > x]
            if later:
                ftable[x] = later[0]
    return None, (owner, ftable)


@st.composite
def _partitions(draw):
    """A residue or explicit partition of a window, sometimes with a block
    dropped (a hole) or one added (an overlap), and the window's bound."""
    bound = draw(st.integers(1, 60))
    if draw(st.booleans()):
        blocks = tp.residue_partition(draw(st.integers(1, 8)))
    else:
        k = draw(st.integers(1, 4))
        # members run past the bound, and 0 belongs to no window
        span = bound + draw(st.integers(0, 10))
        owners = draw(st.lists(st.integers(0, k - 1), min_size=span + 1, max_size=span + 1))
        blocks = [ExplicitBlock(tuple(x for x, o in enumerate(owners) if o == i))
                  for i in range(k)]
    blocks = list(draw(st.permutations(blocks)))
    if len(blocks) > 1 and draw(st.booleans()):
        del blocks[draw(st.integers(0, len(blocks) - 1))]
    if draw(st.booleans()):
        modulus = draw(st.integers(1, 8))
        blocks.append(tp.ResidueBlock(modulus, draw(st.integers(0, modulus - 1))))
    if draw(st.booleans()):
        extra = draw(st.lists(st.integers(-2, bound + 3), unique=True, max_size=4))
        blocks.append(ExplicitBlock(tuple(sorted(extra))))
    return blocks, bound


@given(_partitions())
@settings(max_examples=300, deadline=None)
def test_partition_map_matches_brute_owner_table(case):
    blocks, bound = case
    refusal, expected = _brute_partition(blocks, bound)
    if refusal is not None:
        with pytest.raises(ValueError) as exc:
            tp.partition_map(blocks, bound)
        assert str(exc.value) == refusal
        return
    owner, ftable = expected
    res = tp.partition_map(blocks, bound)
    assert list(res.function_table.items()) == list(ftable.items())
    assert res.boundary == tuple(x for x in range(1, bound + 1)
                                 if x not in ftable or ftable[x] > bound)
    # each block's members in the window form one successor chain
    by_block = {}
    for x in range(1, bound + 1):
        by_block.setdefault(owner[x], []).append(x)
    assert res.components == tuple(sorted(map(tuple, by_block.values())))
    assert res.report.passed
    assert res.blocks == tuple(b.label() for b in blocks)


def test_partition_map_lists_members_instead_of_asking_every_block():
    # the owner table once asked every block about every x: 400 x 40000
    # contains calls.  That scan is linear in the bound, so it is timed on
    # 1..1000 and scaled; the whole map must be at least 10x faster.
    blocks = tp.residue_partition(400)

    def best_of_3(run):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        return min(times)

    new = best_of_3(lambda: tp.partition_map(blocks, 40000))
    scan = best_of_3(lambda: [[i for i, b in enumerate(blocks) if b.contains(x)]
                              for x in range(1, 1001)]) * 40
    assert 10 * new <= scan, (new, scan)


def test_forward_orbit_minimum_is_fixed_point():
    # for decreasing maps the orbit minimum can go nowhere, so it is fixed
    for f in (af.PHI, af.PHI_STAR):
        for k in (1, 2, 17, 96, 720, 5040):
            members = tp.min_open_forward(f, k).members
            bottom = min(members)
            assert evaluate_int(f, bottom) == bottom
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


def _table_closure(fibre_table, x):
    acc, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        for c in fibre_table.get(y, []):
            if c not in acc:
                acc.add(c)
                frontier.append(c)
    return tuple(sorted(acc))


def test_min_open_backward_matches_preimage_table_closures():
    bound = 3000
    for name in ("psi", "psi_2", "J_2", "sigma_1"):
        f = af.parse_function(name)
        table = pre.fibre_table(f, bound)
        for x in range(1, bound + 1, 29):
            m = tp.min_open_backward(f, x)
            assert m.members == _table_closure(table, x), (name, x)
            assert m.completeness == tp.COMPLETE
    table = pre.fibre_table(af.PHI_STAR, bound)
    for x in range(1, bound + 1, 29):
        m = tp.min_open_backward(af.PHI_STAR, x, scan_bound=bound)
        assert m.members == _table_closure(table, x), x
        assert (m.completeness, m.truncation_bound) == (tp.TRUNCATED, bound)


EVERY_FAMILY = [
    af.PHI, af.jordan(2), af.jordan(3), af.PSI, af.generalized_psi(2),
    af.generalized_psi(3), af.PHI_STAR, af.BIG_OMEGA, af.SMALL_OMEGA, af.D,
    af.divisor_count(3), af.sigma(1), af.sigma(2), af.sigma(3),
]


def _int_min_open_forward(f, x, max_steps=512, value_bits=120):
    # the loop min_open_forward used before it iterated in factored form:
    # every iterate an int, factorised again for the next step
    seen, cur = {x}, x
    for _ in range(max_steps):
        if cur.bit_length() > value_bits:
            return tuple(sorted(seen)), tp.TRUNCATED
        cur = evaluate_int(f, cur)
        if cur in seen:
            return tuple(sorted(seen)), tp.COMPLETE
        seen.add(cur)
    return tuple(sorted(seen)), tp.TRUNCATED


@pytest.mark.parametrize("f", EVERY_FAMILY, ids=str)
def test_min_open_forward_matches_int_iteration(f):
    for x in range(1, 201):
        m = tp.min_open_forward(f, x)
        assert (m.members, m.completeness) == _int_min_open_forward(f, x), x
        assert m.truncation_bound == (512 if m.completeness == tp.TRUNCATED else None)
