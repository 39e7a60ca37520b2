import io
import operator
import random
from functools import lru_cache
from itertools import islice
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from arithdyn import (
    arithfun as af, cli, dynamics as dy, factorint as fi, preimage as pre, topology as tp,
)
from arithdyn.config import DEFAULT_CONFIG
from arithdyn.factorint import (
    BudgetExceeded, DeferredValue, FactoredNatural, factored_range, factorize, to_integer,
)
from definitional import oracle_evaluate
from helpers import evaluate_int

ALL_SMALL = [
    af.PHI, af.jordan(2), af.jordan(3),
    af.PSI, af.generalized_psi(2), af.generalized_psi(3),
    af.PHI_STAR, af.BIG_OMEGA, af.SMALL_OMEGA,
    af.D, af.divisor_count(3),
    af.sigma(1), af.sigma(2), af.sigma(3),
]


def test_function_id_validation():
    with pytest.raises(ValueError):
        af.jordan(0)
    with pytest.raises(ValueError):
        af.divisor_count(1)
    with pytest.raises(ValueError):
        af.FunctionId(af.Family.BIG_OMEGA, 2)
    assert af.PHI == af.jordan(1)
    assert af.D == af.divisor_count(2)


def test_parse_function_spellings():
    assert af.parse_function("phi") == af.PHI
    assert af.parse_function("J_1") == af.PHI
    assert af.parse_function("psi_2") == af.generalized_psi(2)
    assert af.parse_function("phi_star") == af.PHI_STAR
    assert af.parse_function("Omega") == af.BIG_OMEGA
    assert af.parse_function("omega") == af.SMALL_OMEGA
    assert af.parse_function("d_3") == af.divisor_count(3)
    assert af.parse_function("sigma_1") == af.SIGMA1
    with pytest.raises(ValueError):
        af.parse_function("zeta")
    for f in ALL_SMALL:
        assert af.parse_function(str(f)) == f
    assert af.parse_function("psi_1") == af.PSI
    assert af.parse_function("d_2") == af.D
    # one spelling per function: str(f) or the three aliases above, so no
    # leading zero, non-ASCII digit, sign or surrounding whitespace
    for text in ("J_01", "J_\u0663", " phi ", "phi ", "J_+3", "psi_02", "d_", "J",
                 "sigma", "omega_1", "phi_star_1", "Phi", "d_" + "1" * 641):
        with pytest.raises(ValueError, match="^unknown function id "):
            af.parse_function(text)
    # a parameter of up to 640 digits is read
    assert af.parse_function("d_" + "1" * 640) == af.divisor_count(int("1" * 640))
    # a spelled parameter outside the family's range keeps its own refusal
    for text, message in (("J_0", "jordan needs a parameter >= 1"),
                          ("d_1", "d_l needs l >= 2"),
                          ("sigma_0", "sigma needs a parameter >= 1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            af.parse_function(text)


def test_known_values():
    assert evaluate_int(af.PHI, 18) == 6
    assert evaluate_int(af.PSI, 6) == 12
    assert evaluate_int(af.J2, 96) == 6144
    assert af.evaluate(af.J2, 96) == factorize(6144)
    assert evaluate_int(af.PHI_STAR, 12) == 6
    assert af.evaluate(af.BIG_OMEGA, 16) == 4
    assert af.evaluate(af.SMALL_OMEGA, 105) == 3
    assert af.evaluate(af.D, 9) == 3


def test_everything_maps_one_to_one():
    for f in ALL_SMALL:
        assert evaluate_int(f, 1) == 1
        assert oracle_evaluate(f, 1) == 1


def test_oracle_examples():
    assert oracle_evaluate(af.PHI, 6) == 2
    assert oracle_evaluate(af.divisor_count(3), 12) == 18
    assert oracle_evaluate(af.sigma(2), 6) == 50


def test_oracle_equivalence_sample():
    for f in ALL_SMALL:
        hi = 60 if f == af.jordan(3) else 150
        for n in range(1, hi + 1):
            assert evaluate_int(f, n) == oracle_evaluate(f, n), (str(f), n)


def test_intervals_only_for_prime_counters():
    block = FactoredNatural(((3, 1),), ((3, 10 ** 9),))
    assert af.evaluate(af.BIG_OMEGA, block) == 10 ** 9 - 1
    assert af.evaluate(af.SMALL_OMEGA, block) == 10 ** 9 - 1
    for f in (af.PHI, af.PSI, af.PHI_STAR, af.D, af.SIGMA1):
        with pytest.raises(ValueError):
            af.evaluate(f, block)


def test_symbolic_exponent_support():
    t4 = FactoredNatural(((13, 13 ** 12 - 1),))
    t5 = FactoredNatural(((13, DeferredValue(t4, -1)),))
    d_val = af.evaluate(af.D, t5)
    assert isinstance(d_val, DeferredValue)
    assert d_val == DeferredValue(t4, 0)
    omega_val = af.evaluate(af.BIG_OMEGA, t5)
    assert omega_val == DeferredValue(t4, -1)
    with pytest.raises(BudgetExceeded):
        af.evaluate(af.divisor_count(3), t5)
    with pytest.raises(BudgetExceeded):
        af.evaluate(af.sigma(1), t5)


_PRIMES_TO_200 = [p for p in range(2, 201) if fi.is_prime(p)]


def _phi_star_refusal(n):
    """(exception, message) that evaluate raises at phi_star(n), or None.
    Merged exponents reach past the generator's 6 (89^20 from four parts);
    evaluate refuses a tail p^e - 1 of more than 140 estimated bits before
    it is built, and factorize refuses one of more than 128 bits."""
    for p, e in n.explicit:
        if e * p.bit_length() > 140:
            return BudgetExceeded, rf"^phi_star factor {p}\^{e}-1 too large to factor$"
        if (p ** e - 1).bit_length() > 128:
            return ValueError, "^factorize handles inputs up to 128 bits$"
    return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([af.PHI, af.jordan(2), af.jordan(3), af.PSI, af.generalized_psi(2),
                        af.generalized_psi(3), af.PHI_STAR]),
       st.lists(st.tuples(st.sampled_from(_PRIMES_TO_200), st.integers(min_value=1, max_value=6)),
                max_size=6),
       st.randoms(use_true_random=False))
@example(af.PHI_STAR, [(89, 20)], random.Random(0))  # a 130-bit tail under the estimate
@example(af.PHI_STAR, [(131, 18)], random.Random(0))  # refused by the estimate
def test_evaluate_returns_the_normal_form(f, parts, rng):
    # pairwise_all_different decides plain pairs by hash alone, so an
    # unsorted or unmerged value would certify two equal values as different
    n = FactoredNatural(parts)
    refusal = _phi_star_refusal(n) if f == af.PHI_STAR else None
    if refusal is not None:
        exception, message = refusal
        with pytest.raises(exception, match=message):
            af.evaluate(f, n)
        return
    value = af.evaluate(f, n)
    primes = [p for p, _ in value.explicit]
    assert primes == sorted(set(primes))
    assert all(type(e) is int and e >= 1 for _, e in value.explicit)
    assert value.is_plain and value.intervals == ()
    shuffled = list(value.explicit)
    rng.shuffle(shuffled)
    rebuilt = FactoredNatural(shuffled)
    assert rebuilt == value and hash(rebuilt) == hash(value)
    m = evaluate_int(f, n)
    if m.bit_length() <= 128:
        want = factorize(m)
        assert want == value and hash(want) == hash(value)


def test_evaluate_keeps_deferred_exponents_apart():
    d = DeferredValue(FactoredNatural(((13, 13 ** 12 - 1),)), -1)
    # phi(2^D * 3): the tail 3 - 1 = 2 meets 2's deferred exponent
    with pytest.raises(ValueError, match="^cannot merge deferred exponents$"):
        af.evaluate(af.PHI, FactoredNatural(((2, d), (3, 1))))
    value = af.evaluate(af.PHI, FactoredNatural(((3, d),)))
    assert not value.is_plain
    assert value.explicit == ((2, 1), (3, d.shift(-1)))


def test_sigma_overflow_guard():
    big = FactoredNatural(((2, 10 ** 7),))
    with pytest.raises(BudgetExceeded):
        af.evaluate(af.sigma(1), big)


@given(st.integers(min_value=1, max_value=1000),
       st.integers(min_value=1, max_value=1000))
def test_multiplicativity(a, b):
    if gcd(a, b) != 1:
        return
    for f in (af.PHI, af.jordan(2), af.PSI, af.PHI_STAR, af.D, af.sigma(2)):
        assert evaluate_int(f, a * b) == \
            evaluate_int(f, a) * evaluate_int(f, b)


@given(st.integers(min_value=2, max_value=1000),
       st.integers(min_value=2, max_value=1000))
def test_additivity_of_prime_counters(a, b):
    # the f(1) = 1 convention breaks additivity at 1, hence a, b >= 2
    if gcd(a, b) != 1:
        return
    for f in (af.BIG_OMEGA, af.SMALL_OMEGA):
        assert af.evaluate(f, factorize(a * b)) == \
            af.evaluate(f, factorize(a)) + af.evaluate(f, factorize(b))


def test_sigma_equals_psi_on_squarefree():
    for n, pps in factored_range(10 ** 4):
        if all(a == 1 for _, a in pps):
            for k in (1, 2, 3):
                assert af.scalar_value(af.sigma(k), pps) == \
                    af.scalar_value(af.generalized_psi(k), pps), (n, k)


def test_identity_check():
    rep = af.identity_check_psi_jordan(1, 5000)
    assert rep.passed
    # spot view of the identity at one point
    assert evaluate_int(af.generalized_psi(2), 6) == 50
    assert evaluate_int(af.jordan(2), 6) == 24
    assert evaluate_int(af.jordan(4), 6) == 1200
    assert 50 * 24 == 1200


def test_monotone_profile_shapes():
    prof = af.monotone_profile(af.PHI, 5000)
    assert prof.le_violation is None
    assert prof.ge_violation == 2  # phi(2) = 1 < 2
    prof = af.monotone_profile(af.PSI, 5000)
    assert prof.strict_violation is None
    prof = af.monotone_profile(af.D, 5000)
    assert prof.le_violation is None
    assert prof.strict_violation == 2  # d(2) = 2, not > 2


def test_catalogue_sweep_small():
    res = af.catalogue_monotone_sweep(2000)
    assert all(v is None for v in res.values()), res
    assert "phi <= n" in res and "J_5 > n" in res and "sigma_3 > n" in res
    assert len(res) == 16


def test_value_table_matches_evaluate():
    table = af.value_table(af.PSI, 300)
    for n in range(1, 301):
        assert table[n] == evaluate_int(af.PSI, n)


def test_scalar_value_empty_is_one():
    for f in ALL_SMALL:
        assert af.scalar_value(f, []) == 1


# every function the bulk sweeps read: J_1..J_5, psi_1..psi_3, phi_star,
# Omega, omega, d_2, d_3, sigma_1..sigma_3
SWEPT = ([af.jordan(k) for k in range(1, 6)]
         + [af.generalized_psi(k) for k in (1, 2, 3)]
         + [af.PHI_STAR, af.BIG_OMEGA, af.SMALL_OMEGA, af.D, af.divisor_count(3)]
         + [af.sigma(k) for k in (1, 2, 3)])


@pytest.mark.parametrize("f", SWEPT, ids=str)
def test_value_table_matches_decomposition_scan(f):
    bound = 20_000
    table = af.value_table(f, bound)
    assert table[0] == 0 and table[1] == 1
    assert table[2:] == [af.scalar_value(f, pps) for _, pps in factored_range(bound)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SWEPT), st.integers(min_value=0, max_value=3000))
@example(af.PHI, 0).via("the empty table")
@example(af.BIG_OMEGA, 1).via("no prime power at all")
@example(af.PSI, 2).via("2 at the bound: its slice holds f(2) times the empty product")
@example(af.SMALL_OMEGA, 3)
@example(af.PHI_STAR, 4).via("the first square")
@example(af.PHI, 14).via("5 > 14 // 3: written, its odd multiple 15 is past the bound")
@example(af.PHI, 15).via("5 = 15 // 3: the pass for 5 reaches 15")
@example(af.PSI, 20).via("7 > 20 // 3: written, its odd multiple 21 is past the bound")
@example(af.PSI, 21).via("7 = 21 // 3: the pass for 7 reaches 21")
@example(af.D, 15)
@example(af.BIG_OMEGA, 16).via("16 at the bound: an additive slice over table[1] = 0 alone")
@example(af.SMALL_OMEGA, 12).via("the additive slices for 2 and 4 add to the odd prefix")
@example(af.sigma(2), 24)
@example(af.BIG_OMEGA, 25).via("the square 25 > bound // 3")
@example(af.PHI, 48)
@example(af.sigma(2), 48).via("a parametric family: the slice for 16 times sigma_2(16)")
@example(af.jordan(3), 49).via("7^2 at the bound")
@example(af.PHI, 63).via("32 <= 63 < 64: the slice for 32 reads table[1] alone")
@example(af.PHI, 64).via("phi(2) = 1: the slice for 2 is a plain copy; 64 at the bound")
def test_value_table_matches_scalar_values_over_factored_range(f, bound):
    # the slice sieve against the independent spf path, edge bounds included
    expected = [0, 1][:bound + 1] + [af.scalar_value(f, pps) for _, pps in factored_range(bound)]
    assert af.value_table(f, bound) == expected


def test_value_table_refuses_a_negative_bound():
    with pytest.raises(ValueError, match=r"^bound must be >= 0, got -5$"):
        af.value_table(af.PHI, -5)
    assert af.value_table(af.PHI, 0) == [0]


def test_value_tables_build_no_spf_table(monkeypatch):
    bound = 1000

    def answers():
        return (af.value_table(af.PHI, bound), pre.fibre_table(af.BIG_OMEGA, bound),
                tp.component_census(af.PHI, bound),
                tp.verify_taubar_subset(af.PHI, bound).to_payload())

    expected = answers()

    def refuse(*args, **kwargs):
        raise AssertionError("a value table built the spf table")

    for module in (fi, af):
        monkeypatch.setattr(module, "smallest_factor_table", refuse, raising=False)
    assert answers() == expected


# every record of the catalogue table at parameters k <= 4
RECORDS = [af.FunctionId(fam, k) for fam in af.Family
           for k in ([None] if fam.least is None else range(fam.least, 5))]
PRIMES_TO_50 = list(fi.primes_upto(50))


def _oracle_affordable(f, p, a):
    """Whether the brute-force oracle answers f(p^a) in well under a second:
    the J_k tuple count recurses on the p^(a-1) multiples of p at each of k
    levels; d_l and sigma_l scan 1..p^a."""
    n = p ** a
    if f.family is af.Family.JORDAN:
        return n * (n // p) ** (f.param - 1) <= 100_000
    if f.family in (af.Family.DIVISOR_COUNT, af.Family.SIGMA):
        return n <= 20_000
    return True


@lru_cache(maxsize=None)
def _record_classes_hold(f):
    """The record's classes against the functions: expansive exactly when
    no n <= 2000 has f(n) < n, factored exactly when evaluate returns a
    FactoredNatural, additive exactly when f(24) = f(8) + f(3) (else
    f(8) f(3)), and the infinite-fibre target holds the first 50 primes (or,
    with none, f separates them)."""
    table = af.value_table(f, 2000)
    assert f.expansive == all(table[n] >= n for n in range(1, 2001)), f
    assert f.family.factored == isinstance(af.evaluate(f, 720), FactoredNatural), f
    parts = oracle_evaluate(f, 8), oracle_evaluate(f, 3)
    assert oracle_evaluate(f, 24) == (sum(parts) if f.family.additive else parts[0] * parts[1]), f
    at_primes = [oracle_evaluate(f, fi.nth_prime(i)) for i in range(1, 51)]
    if f.infinite_fibre is None:
        assert len(set(at_primes)) == 50, f
    else:
        assert set(at_primes) == {f.infinite_fibre}, f
    return True


@pytest.mark.parametrize("f", RECORDS, ids=str)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_records_match_the_definitions(f, data):
    # the closed form at p^a, p <= 50 and a <= 6 as far as the oracle
    # affords it, through each reader: the form itself, scalar_value,
    # evaluate and, at a = 1, the at-prime tail p^t + s
    p = data.draw(st.sampled_from(PRIMES_TO_50), label="p")
    a = data.draw(st.integers(min_value=1, max_value=max(
        a for a in range(1, 7) if _oracle_affordable(f, p, a))), label="a")
    want = oracle_evaluate(f, p ** a)
    assert f.family.form(p, a, f.param, f.family.sign) == want
    assert af.scalar_value(f, [(p, a)]) == want
    assert evaluate_int(f, p ** a) == want
    t, s = f.at_prime
    assert p ** t + s == oracle_evaluate(f, p)
    assert _record_classes_hold(f)


def test_value_table_matches_oracle():
    # the Jordan oracle counts tuples one at a time; skipping n^k > 1e6
    # keeps J_3, J_4 and J_5 to n = 100, 31 and 15 and this test to seconds
    checked = 0
    for f in SWEPT:
        table = af.value_table(f, 300)
        for n in range(1, 301):
            if f.family is af.Family.JORDAN and n ** f.param > 10 ** 6:
                continue
            assert table[n] == oracle_evaluate(f, n), (str(f), n)
            checked += 1
    assert checked > 4000


def test_catalogue_sweep_matches_monotone_profiles():
    bound = 20_000
    sweep = af.catalogue_monotone_sweep(bound)
    expected = {}
    for key in sweep:  # "phi <= n", "J_5 > n", ...
        name, relation, _ = key.split()
        prof = af.monotone_profile(af.parse_function(name), bound)
        expected[key] = prof.le_violation if relation == "<=" else prof.strict_violation
    assert sweep == expected


def _tail_past_128_bits(f, n):
    """Whether a tail that f factorises at n, p^k -+ 1 (J_k, psi_k) or
    p^e - 1 (phi_star) for p^e || n, has more than 128 bits."""
    for p, e in fi.prime_factors(n):
        if f.family is af.Family.JORDAN:
            tail = p ** f.param - 1
        elif f.family is af.Family.GENERALIZED_PSI:
            tail = p ** f.param + 1
        elif f.family is af.Family.UNITARY_TOTIENT:
            tail = p ** e - 1
        else:
            continue
        if tail.bit_length() > 128:
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_SMALL), st.integers(min_value=1, max_value=10 ** 4))
@example(f=af.jordan(3), x=3671)
def test_forward_orbit_equals_int_iteration(f, x):
    # the factored-space orbit against evaluate_int on plain integers, for as
    # long as the values stay within 120 bits; a step whose tail p^k -+ 1
    # passes the factorizer's 128 bits (J_3 at the 107-bit second iterate
    # from 3671) is refused, and then all three refuse it at the same step;
    # a refusal with no such tail fails the test
    raw = af.forward_orbit(f, x)
    values = af.orbit_values(f, x)
    cur = x
    for _ in range(200):
        try:
            want = evaluate_int(f, cur)
        except ValueError as exc:
            msg = str(exc)
            if msg != "factorize handles inputs up to 128 bits" or not _tail_past_128_bits(f, cur):
                raise
            with pytest.raises(ValueError) as raw_exc:
                next(raw)
            with pytest.raises(ValueError) as values_exc:
                next(values)
            assert str(raw_exc.value) == str(values_exc.value) == msg
            break
        got = next(raw)
        if f.family.factored:
            assert isinstance(got, FactoredNatural) and to_integer(got) == want
        else:
            assert got == want
        assert next(values) == want
        if want.bit_length() > 120:
            break
        cur = want


def test_forward_orbit_factorises_only_tails(monkeypatch):
    # 400 psi steps from 2 reach 400 bits; no iterate is factorised, only
    # tails p + 1 of the few primes the orbit meets
    bits = []
    real = af.factorize

    def spy(n, config=DEFAULT_CONFIG):
        bits.append(n.bit_length())
        return real(n, config)

    monkeypatch.setattr(af, "factorize", spy)
    af._tail_factors.cache_clear()
    values = list(islice(af.orbit_values(af.PSI, 2), 399))
    assert values[-1].bit_length() > 390
    assert bits and max(bits) <= 4


def test_tail_memo_is_keyed_on_the_tail_alone():
    # psi at 2 * 3^2 * 5 * 7 has the four tails 3, 4, 6, 8; a second config
    # finds them all in the memo, as factorize reads no budget
    n = factorize(2 * 3 ** 2 * 5 * 7)
    af._tail_factors.cache_clear()
    for config in (DEFAULT_CONFIG, DEFAULT_CONFIG.replace(bit_budget=64)):
        assert af.evaluate(af.PSI, n, config) == factorize(3 * 4 * 3 * 6 * 8)
    info = af._tail_factors.cache_info()
    assert (info.misses, info.hits) == (4, 4)


def test_tails_past_128_bits_are_refused_before_they_are_computed(monkeypatch):
    # J_128(2) = 2^128 - 1 is still factorised; J_129(2) is refused with
    # factorize's own message without computing 2^129 - 1, and psi_128(2) =
    # 2^128 + 1 (129 bits) by factorize itself
    assert evaluate_int(af.jordan(128), 2) == 2 ** 128 - 1
    real = af.factorize

    def spy(n, config=DEFAULT_CONFIG):
        assert n.bit_length() <= 129, "an oversized tail was computed"
        return real(n, config)

    monkeypatch.setattr(af, "factorize", spy)
    af._tail_factors.cache_clear()
    for f in (af.jordan(129), af.generalized_psi(128), af.jordan(10 ** 8)):
        with pytest.raises(ValueError, match="^factorize handles inputs up to 128 bits$"):
            af.evaluate(f, 2)


def test_catalogue_monotone_sweep_checks_each_function_once(monkeypatch):
    walked = []
    real = af.least_violations

    def spy(f, bound, violated, config=DEFAULT_CONFIG):
        walked.append(f)
        return real(f, bound, violated, config)

    monkeypatch.setattr(af, "least_violations", spy)
    sweep = af.catalogue_monotone_sweep(500)
    assert len(sweep) == 16 and sweep["psi > n"] == sweep["psi_1 > n"]
    assert len(walked) == 15 and len(set(walked)) == 15  # psi once, not twice


def test_prime_power_values_lists_every_prime_power():
    # pins each family's one-term value at a prime against scalar_value
    functions = {af.parse_function(name) for name in af._MONOTONE_CHECKS} | {
        af.divisor_count(3), af.generalized_psi(3)}
    for bound in (1, 2, 3, 4, 8, 9, 16, 17, 1000):
        pps = {n: pps[0] for n, pps in factored_range(bound) if len(pps) == 1}
        for f in functions:
            walk = list(af.prime_power_values(f, bound))
            assert len(walk) == len(pps), (f, bound)
            assert dict(walk) == {q: af.scalar_value(f, [pp]) for q, pp in pps.items()}, (
                f, bound)


def test_pointwise_checks_build_no_value_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pointwise hypothesis built a value table")

    for module in (af, tp, pre):
        monkeypatch.setattr(module, "value_table", refuse)
    for module in (tp, pre):
        monkeypatch.setattr(module, "fibre_table", refuse, raising=False)
    assert tp.verify_tau_subset(af.PSI, 3000).passed
    assert tp.verify_taubar_subset(af.PHI, 3000).passed
    assert af.monotone_profile(af.PHI, 3000).ge_violation == 2
    assert all(v is None for v in af.catalogue_monotone_sweep(3000).values())
    assert af.identity_check_psi_jordan(2, 3000).passed
    assert tp.contains_one_forward(af.PHI, 3000).passed
    assert tp.separation_check(af.PSI, 3000).passed
    for lemma, f in (("monotone-o-zero", af.PHI), ("monotone-a-zero", af.PSI),
                     ("strict-o-positive", af.PSI)):
        assert af.pointwise_lemma(lemma, f, 3000).passed, lemma
    assert dy.surjective_core_membership(af.PSI, 1) is True
    assert cli.run(["table", "connectivity", "--bound", "3000"], out=io.StringIO()) == 0


def _least_by_scan(table, bound, violated):
    """(n, f(n)) for the least n in 2..bound with violated(f(n), n): the
    full-table scan the prime-power decisions replaced."""
    return next(((n, table[n]) for n in range(2, bound + 1) if violated(table[n], n)), None)


def _failure_fields(rep):
    cx = rep.counterexample
    return None if rep.passed else (cx.position, cx.expected, cx.actual)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SWEPT), st.integers(min_value=1, max_value=3000))
@example(af.D, 2).via("d(2) = 2: no strict decrease, no strict increase")
@example(af.PHI, 2).via("phi(2) = 1 < 2")
@example(af.PSI, 2).via("psi(2) = 3 > 2")
def test_prime_power_decisions_match_a_full_table_scan(f, bound):
    table = af.value_table(f, bound)
    le, ge, strict = (_least_by_scan(table, bound, rel)
                      for rel in (operator.gt, operator.lt, operator.le))
    prof = af.monotone_profile(f, bound)
    assert (prof.le_violation, prof.ge_violation, prof.strict_violation) == tuple(
        None if v is None else v[0] for v in (le, ge, strict))
    for lemma, relation, least in (("monotone-o-zero", "<=", le),
                                   ("monotone-a-zero", ">=", ge),
                                   ("strict-o-positive", ">", strict)):
        assert _failure_fields(af.pointwise_lemma(lemma, f, bound)) == (
            None if least is None else (least[0], f"{relation} {least[0]}", least[1]))
    below = _least_by_scan(table, bound, operator.ge)
    assert _failure_fields(tp.contains_one_forward(f, bound)) == (
        None if below is None else (below[0], f"< {below[0]}", below[1]))
    assert _failure_fields(tp.separation_check(f, bound)) == (
        None if ge is None else (ge[0], f">= {ge[0]}", ge[1]))
    assert _failure_fields(tp.verify_taubar_subset(f, bound)) == (
        None if le is None else (le[0], f"<= {le[0]}", le[1]))
    if f.expansive:
        assert _failure_fields(tp.verify_tau_subset(f, bound)) == (
            None if ge is None else (ge[0], f">= {ge[0]}", ge[1]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RECORDS), st.integers(min_value=1, max_value=3000),
       st.sampled_from([operator.lt, operator.le, operator.gt, operator.ge]))
@example(af.PHI, 3000, operator.lt).via("holds at the first prime: phi(2) = 1 < 2")
@example(af.PSI, 3000, operator.le).via("holds at no prime: psi(p) = p + 1")
@example(af.divisor_count(3), 3000, operator.le).via("t = 0, bisected: d_3(3) = 3 <= 3")
def test_least_violations_decide_the_primes_as_a_full_scan(f, bound, violated):
    # the at-prime lemma: the primes a predicate holds at are a prefix or a
    # suffix, so least_violations bisects them instead of scanning
    want = _least_by_scan(af.value_table(f, bound), bound, violated)
    assert af.least_violations(f, bound, (violated,)) == [want]


@pytest.mark.parametrize("bound", [0, -5])
def test_pointwise_checks_refuse_a_bound_below_one(bound):
    checks = [
        lambda: tp.contains_one_forward(af.PHI, bound),
        lambda: tp.separation_check(af.PSI, bound),
        lambda: tp.verify_taubar_subset(af.PHI, bound),
        lambda: tp.verify_tau_subset(af.PSI, bound),
        lambda: af.identity_check_psi_jordan(1, bound),
        lambda: af.monotone_profile(af.PHI, bound),
        lambda: af.pointwise_lemma("monotone-o-zero", af.PHI, bound),
        lambda: af.pointwise_lemma("monotone-a-zero", af.PSI, bound),
        lambda: af.pointwise_lemma("strict-o-positive", af.PSI, bound),
    ]
    for check in checks:
        with pytest.raises(ValueError, match=f"bound must be >= 1, got {bound}"):
            check()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=3000))
def test_sweep_and_identity_match_a_full_table_scan(bound):
    expected = {}
    for name in af._MONOTONE_CHECKS:
        f = af.parse_function(name)
        below = not f.expansive
        least = _least_by_scan(af.value_table(f, bound), bound,
                               operator.gt if below else operator.le)
        expected[f"{name} {'<=' if below else '>'} n"] = None if least is None else least[0]
    assert af.catalogue_monotone_sweep(bound) == expected
    for k in (1, 2, 3):
        psi_k, j_k, j_2k = (af.value_table(f, bound) for f in (
            af.generalized_psi(k), af.jordan(k), af.jordan(2 * k)))
        failure = next(((n, j_2k[n], psi_k[n] * j_k[n]) for n in range(1, bound + 1)
                        if psi_k[n] * j_k[n] != j_2k[n]), None)
        assert _failure_fields(af.identity_check_psi_jordan(k, bound)) == failure
