import pytest
from hypothesis import given, strategies as st

from arithdyn.config import DEFAULT_CONFIG, ToolConfig
from arithdyn.factorint import (
    BudgetExceeded, ComparisonUndecided, DeferredValue, FactoredNatural, OVERFLOW,
    certainly_different, certainly_less, factorize, factored_range, is_prime,
    multiply, nat_add, nth_prime, pairwise_all_different, prime_index,
    primes_upto, smallest_factor_table, to_integer,
)


def test_factorize_examples():
    assert factorize(1) == FactoredNatural()
    assert factorize(96) == FactoredNatural(((2, 5), (3, 1)))
    assert factorize(6561) == FactoredNatural(((3, 8),))


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)
    with pytest.raises(ValueError):
        factorize(1 << 130)


def test_to_integer_examples():
    assert to_integer(FactoredNatural()) == 1
    assert to_integer(FactoredNatural(((2, 5), (3, 1)))) == 96
    assert to_integer(FactoredNatural(((2, 2 ** 65536),))) is OVERFLOW


def test_to_integer_large_but_in_budget():
    v = to_integer(FactoredNatural(((2, 65536),)))
    assert v == 2 ** 65536
    assert v.bit_length() == 65537


def test_nth_prime_and_index():
    assert nth_prime(1) == 2
    assert nth_prime(4) == 7
    assert prime_index(3) == 2
    assert prime_index(2) == 1
    for p in (2, 3, 5, 97, 104729):
        assert nth_prime(prime_index(p)) == p
    with pytest.raises(ValueError):
        prime_index(4)
    with pytest.raises(ValueError):
        nth_prime(0)


def test_nth_prime_budget():
    tiny = DEFAULT_CONFIG.replace(prime_index_budget=10)
    with pytest.raises(BudgetExceeded):
        nth_prime(11, tiny)


def test_nth_prime_strictly_increasing_to_1e5():
    ps = [nth_prime(i) for i in range(1, 100_001)]
    assert all(a < b for a, b in zip(ps, ps[1:]))


def test_multiply_examples():
    one = FactoredNatural()
    two = FactoredNatural(((2, 1),))
    assert multiply(one, two) == two
    assert multiply(two, FactoredNatural(((2, 2), (3, 1)))) == \
        FactoredNatural(((2, 3), (3, 1)))
    with_interval = multiply(FactoredNatural(((3, 1),)),
                             FactoredNatural((), ((3, 4),)))
    assert to_integer(with_interval) == 3 * 5 * 7


def test_interval_expansion_gives_canonical_equality():
    a = FactoredNatural(((3, 1),), ((3, 4),))
    b = FactoredNatural(((3, 1), (5, 1), (7, 1)))
    assert a == b
    assert hash(a) == hash(b)
    assert to_integer(a) == 105


def test_interval_invariants():
    with pytest.raises(ValueError):
        FactoredNatural((), ((4, 3),))  # empty range
    with pytest.raises(ValueError):
        FactoredNatural((), ((3, 6), (5, 9)))  # overlap
    # a short interval expands first, so a colliding explicit prime merges
    # (multiply semantics); 5 = q_3 picks up the interval copy
    merged = FactoredNatural(((5, 1),), ((3, 4),))
    assert merged == FactoredNatural(((5, 2), (7, 1)))
    # but collisions with a non-expandable interval are invariant violations
    big = FactoredNatural((), ((3, 10 ** 9),))
    with pytest.raises(ValueError):
        FactoredNatural(((7, 1),), ((4, DeferredValue(big, 0)),))  # 7 = q_4 inside


def test_adjacent_intervals_merge():
    a = FactoredNatural((), ((200, 300), (301, 400)))
    b = FactoredNatural((), ((200, 400),))
    assert a == b


def test_explicit_invariants():
    with pytest.raises(ValueError):
        FactoredNatural(((4, 1),))
    with pytest.raises(ValueError):
        FactoredNatural(((3, 0),))
    assert FactoredNatural(((3, 1), (3, 2))) == FactoredNatural(((3, 3),))


def test_one_is_empty_factorization():
    assert factorize(1).is_one
    assert int(factorize(1)) == 1


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_round_trip(n):
    assert to_integer(factorize(n)) == n


@given(st.integers(min_value=1, max_value=1000),
       st.integers(min_value=1, max_value=1000))
def test_fundamental_theorem(a, b):
    assert factorize(a * b) == multiply(factorize(a), factorize(b))


@given(st.integers(min_value=2, max_value=10 ** 5))
def test_normalization_idempotent(n):
    f = factorize(n)
    again = FactoredNatural(f.explicit, f.intervals)
    assert f == again and hash(f) == hash(again)


@given(st.integers(min_value=2, max_value=10 ** 12))
def test_factorize_yields_primes(n):
    f = factorize(n)
    assert all(is_prime(p) for p, _ in f.explicit)
    assert all(e >= 1 for _, e in f.explicit)
    primes = [p for p, _ in f.explicit]
    assert primes == sorted(primes)


def test_spf_table_agrees_with_trial_division():
    spf = smallest_factor_table(10_000)
    for n in range(2, 10_000):
        p = spf[n]
        assert n % p == 0 and is_prime(p)
        assert all(n % q for q in primes_upto(p - 1)) or p == 2


def test_factored_range_matches_factorize():
    for n, pps in factored_range(500):
        assert FactoredNatural(pps) == factorize(n)


def test_is_prime_against_sieve():
    marks = set(primes_upto(2000))
    for n in range(2, 2000):
        assert is_prime(n) == (n in marks)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)


def test_deferred_value_arithmetic():
    base = factorize(720)
    d = DeferredValue(base, 2)
    assert d.resolve() == 722
    assert nat_add(d, -2).resolve() == 720
    assert d == DeferredValue(factorize(720), 2)
    assert d != DeferredValue(base, 3)


def test_deferred_value_overflow_resolution():
    huge = FactoredNatural(((2, 2 ** 30),))
    assert DeferredValue(huge, 1).resolve() is OVERFLOW


def test_certified_distinctness_deep_values():
    t3 = FactoredNatural(((13, 13 ** 12 - 1),))
    t4 = FactoredNatural(((13, DeferredValue(t3, -1)),))
    t5 = FactoredNatural(((13, DeferredValue(t4, -1)),))
    assert certainly_different(t3, t4)
    assert certainly_different(t4, t5)
    assert not certainly_different(t4, FactoredNatural(((13, DeferredValue(t3, -1)),)))
    assert pairwise_all_different([t3, t4, t5]) is None


def test_certified_distinctness_intervals():
    a = FactoredNatural(((3, 1),), ((3, 10 ** 40),))
    b = FactoredNatural(((3, 1),), ((3, DeferredValue(a, 1)),))
    assert certainly_different(a, b)
    assert certainly_less(a, b)
    # different explicit prime content decides across families
    c = FactoredNatural(((5, 1),), ((4, 10 ** 40),))
    assert certainly_different(a, c)


def test_equal_interval_values_never_certified_different():
    # 2 * q[2..D] == q[1..D]; D = 2^30 is past the prime-index budget, so
    # neither side materialises and the pair must stay undecided
    d = DeferredValue(FactoredNatural(((2, 30),)), 0)
    a = FactoredNatural(((2, 1),), ((2, d),))
    b = FactoredNatural((), ((1, d),))
    with pytest.raises(ComparisonUndecided):
        certainly_different(a, b)
    with pytest.raises(ComparisonUndecided):
        pairwise_all_different([a, b])


def test_explicit_prime_next_to_an_interval_is_not_certified_different():
    # 7927 = q[1001], so 7927*q[10..1000] == q[10..1001]; under a 64-bit
    # budget both overflow and only the same-lo rule could decide the pair
    tight = DEFAULT_CONFIG.replace(bit_budget=64)
    assert nth_prime(1001) == 7927
    a = FactoredNatural(((7927, 1),), ((10, 1000),))
    b = FactoredNatural((), ((10, 1001),))
    assert to_integer(a) == to_integer(b)
    with pytest.raises(ComparisonUndecided):
        certainly_different(a, b, tight)
    with pytest.raises(ComparisonUndecided):
        pairwise_all_different([a, b], tight)


def test_short_interval_past_prime_index_budget_is_refused():
    # equal values; OVERFLOW for the interval would certify them different
    tight = DEFAULT_CONFIG.replace(prime_index_budget=100)
    a = FactoredNatural((), ((101, 700),))
    b = FactoredNatural([(nth_prime(i), 1) for i in range(101, 701)])
    assert to_integer(a) == to_integer(b)
    with pytest.raises(BudgetExceeded):
        pairwise_all_different([a, b], tight)


def test_to_integer_materialises_once_per_object():
    x = FactoredNatural(((3, 100_000),))
    assert to_integer(x) is to_integer(x)


@given(st.lists(st.integers(min_value=1, max_value=200), max_size=30),
       st.sampled_from([1, 1000]))
def test_pairwise_plain_agrees_with_int_distinctness(ns, m):
    # m = 1000 puts most values past a 64-bit budget
    values = [FactoredNatural((p, e * m) for p, e in factorize(n).explicit)
              for n in ns]
    ints = [int(v) for v in values]
    for config in (DEFAULT_CONFIG, ToolConfig(bit_budget=64)):
        got = pairwise_all_different(values, config)
        if len(set(ints)) == len(ints):
            assert got is None
        else:
            i, j = got
            assert i < j and ints[i] == ints[j]


@given(st.integers(min_value=64, max_value=5000), st.booleans())
def test_cached_value_is_keyed_by_budget(e, default_first):
    x = FactoredNatural(((2, e),))
    small = ToolConfig(bit_budget=64)
    order = (DEFAULT_CONFIG, small) if default_first else (small, DEFAULT_CONFIG)
    for config in order + order:
        if config is small:
            assert to_integer(x, config) is OVERFLOW
        else:
            assert to_integer(x, config) == 2 ** e


def test_pairwise_collision_detection():
    vals = [factorize(6), factorize(10), factorize(6)]
    assert pairwise_all_different(vals) == (0, 2)
    assert pairwise_all_different([factorize(n) for n in (2, 3, 4)]) is None


def test_sieve_budget_respected():
    tiny = DEFAULT_CONFIG.replace(sieve_bound=100)
    with pytest.raises(BudgetExceeded):
        smallest_factor_table(1000, tiny)
