import gc
import weakref
from array import array
from bisect import bisect_left
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from arithdyn import arithfun as af, factorint
from arithdyn.config import DEFAULT_CONFIG, ToolConfig
from arithdyn.factorint import (
    BudgetExceeded, ComparisonUndecided, DeferredValue, FactoredNatural, OVERFLOW,
    certainly_different, factorize, factored_range, is_prime,
    nat_add, nth_prime, pairwise_all_different,
    prime_factors, primes_upto, smallest_factor_table, to_integer,
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
    for i, p in ((1, 2), (2, 3), (3, 5), (4, 7), (25, 97), (10_000, 104_729)):
        assert nth_prime(i) == p
    with pytest.raises(ValueError):
        nth_prime(0)


def test_nth_prime_budget():
    size = len(factorint._primes)
    with pytest.raises(BudgetExceeded, match="fixed limit 10000000"):
        nth_prime(factorint._INDEX_LIMIT + 1)
    assert len(factorint._primes) == size  # refused before the list grows


@pytest.mark.parametrize("explicit", [2, 1_000_003])
def test_interval_past_the_index_limit_beside_a_smaller_prime(explicit):
    # q_lo > explicit is certain once the list covers every prime up to
    # `explicit`, so the constructor needs no prime past the limit
    ivals = ((factorint._INDEX_LIMIT + 1, factorint._INDEX_LIMIT + 600),)
    x = FactoredNatural(((explicit, 1),), ivals)
    assert x.explicit == ((explicit, 1),) and x.intervals == ivals
    assert len(factorint._primes) < factorint._INDEX_LIMIT


def test_nth_prime_strictly_increasing_to_1e5():
    ps = [nth_prime(i) for i in range(1, 100_001)]
    assert all(a < b for a, b in zip(ps, ps[1:]))


def test_multiply_examples():
    # the constructor multiplies: repeated primes add their exponents
    one = FactoredNatural()
    two = FactoredNatural(((2, 1),))
    assert FactoredNatural(one.explicit + two.explicit) == two
    assert FactoredNatural(((2, 1), (2, 2), (3, 1))) == FactoredNatural(((2, 3), (3, 1)))
    with_interval = FactoredNatural(((3, 1),), ((3, 4),))
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
    # 7 = q_4 against intervals too long to expand: in budget and past it
    with pytest.raises(ValueError):
        FactoredNatural(((7, 1),), ((3, 2000),))
    assert FactoredNatural(((7, 1),), ((5, 2000),)).explicit == ((7, 1),)
    with pytest.raises(ValueError):
        FactoredNatural(((7, 1),), ((3, 10 ** 9),))
    assert FactoredNatural(((2, 1),), ((3, 10 ** 9),)).intervals == ((3, 10 ** 9),)


def test_interval_membership_grows_the_prime_list_to_min_p_q_hi(monkeypatch):
    # start from the list's initial primes, below 38
    monkeypatch.setattr(factorint, "_primes", array("q", primes_upto(37)))
    monkeypatch.setattr(factorint, "_prime_limit", 38)
    outside = factorint._prime_outside_intervals
    # 7 = q_4 lies in q[4..85087]: decided without q_85087 (about 1.09 M)
    assert not outside(7, ((4, 85087),))
    assert factorint._prime_limit == 38
    assert outside(5, ((4, 85087),))
    # the Mersenne prime 2^61 - 1 lies past q_600 = 4409: decided at q_600
    assert outside(2 ** 61 - 1, ((1, 600),))
    assert len(factorint._primes) >= 600 and factorint._prime_limit < 10_000
    assert not outside(4409, ((1, 600),))
    assert outside(4421, ((1, 600),))  # q_601


SEED_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # all below 38
PAST_2_20 = 2 ** 20 + 64


@lru_cache(maxsize=1)
def plain_sieve(limit: int) -> list[int]:
    """The primes below limit, by a plain bytearray Eratosthenes over every
    n (no wheel): the reference for the odd-only segmented sieve."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [n for n in range(limit) if sieve[n]]


# a limit just below or at the square of a base prime: the segment then
# ends just before p^2, or p^2 is its last entry and p must cross it out
AT_SQUARES = st.builds(lambda p, d: p * p - d,
                       st.sampled_from(SEED_PRIMES[1:] + (41, 43, 47, 53)), st.sampled_from((0, 1)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 6000), AT_SQUARES), max_size=6),
       st.integers(2 ** 20, PAST_2_20 - 1))
@example([168], 2 ** 20).via("limit 13^2 - 1: the odd _prime_limit 169, 13 not a base prime")
@example([168, 501], 2 ** 20).via("the odd lo 169 = 13^2 is the segment's first entry")
@example([169, 360, 961], 2 ** 20 + 1).via("13^2, 19^2 - 1 and 31^2: _prime_limit 170, "
                                             "361 and 962, each square crossed out or left out")
@example([], 2 ** 20).via("one jump from the seed: the base primes are grown first")
def test_sieve_growth_matches_a_plain_sieve(steps, jump):
    reference = plain_sieve(PAST_2_20 + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorint, "_primes", array("q", SEED_PRIMES))
        mp.setattr(factorint, "_prime_limit", 38)
        for limit in steps + [jump]:
            before = factorint._prime_limit
            factorint._extend_primes_upto(limit)
            hi = factorint._prime_limit
            assert hi == (before if limit < before else max(limit + 1, 2 * before))
            assert list(factorint._primes) == reference[:bisect_left(reference, hi)], (steps, limit)


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
    # small primes are certified by membership in a fixed set of ints, so a
    # float or bool that hashes like one of them must still be refused
    for bad in (2.0, 3.0, True, 1, 0, -3):
        with pytest.raises(ValueError):
            FactoredNatural(((bad, 1),))
    with pytest.raises(ValueError):
        FactoredNatural(((561, 1),))  # Carmichael: 3 * 11 * 17
    with pytest.raises(TypeError):
        FactoredNatural(((3, 1.0),))
    assert FactoredNatural(((2 ** 61 - 1, 1),)).explicit == ((2 ** 61 - 1, 1),)


_NORMAL_FORM_PRIMES = list(primes_upto(200))  # both sides of q_12 = 37


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_NORMAL_FORM_PRIMES),
                          st.integers(min_value=1, max_value=2)), max_size=8),
       st.randoms(use_true_random=False))
def test_normal_form_matches_factorize(parts, rng):
    # shuffled parts with repeated primes merge into factorize's normal form;
    # 16 prime factors below 2^8 keep the product inside factorize's 128 bits
    product = 1
    for p, e in parts:
        product *= p ** e
    rng.shuffle(parts)
    built = FactoredNatural(parts)
    want = factorize(product)
    assert built.explicit == want.explicit
    assert built.is_plain and want.is_plain
    assert built == want and hash(built) == hash(want)


def test_deferred_exponents_are_not_plain_and_do_not_merge():
    d = DeferredValue(factorize(720), 2)
    for p in (3, 41):  # one prime below 37 and one above
        v = FactoredNatural(((5, 1), (p, d)))
        assert not v.is_plain and v.explicit == tuple(sorted(((5, 1), (p, d))))
        for parts in (((p, d), (p, d)), ((p, d), (p, 1)), ((p, 1), (p, d))):
            with pytest.raises(ValueError, match="cannot merge deferred"):
                FactoredNatural(parts)


# small primes, primes past the fixed table of q_1..q_12, and one larger one
_MERGE_PRIMES = (2, 3, 5, 7, 11, 13, 37, 41, 43, 101, 7919)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_MERGE_PRIMES), st.integers(1, 4)), max_size=10),
       st.one_of(st.none(), st.tuples(st.integers(1, 20), st.integers(0, 6))),
       st.randoms(use_true_random=False))
def test_one_merge_builds_the_normal_form(parts, interval, rng):
    # FactoredNatural merges unsorted pairs with repeated primes, and the
    # primes of a short interval, into one strictly ascending tuple
    intervals = [] if interval is None else [(interval[0], interval[0] + interval[1])]
    built = FactoredNatural(parts, intervals)
    every = parts + [(nth_prime(i), 1) for lo, hi in intervals for i in range(lo, hi + 1)]
    want: dict[int, int] = {}
    for p, e in every:
        want[p] = want.get(p, 0) + e
    primes = [p for p, _ in built.explicit]
    assert all(a < b for a, b in zip(primes, primes[1:]))
    assert dict(built.explicit) == want and built.intervals == () and built.is_plain
    product = 1
    for p, e in want.items():
        product *= p ** e
    assert to_integer(built) == product

    # a DeferredValue meeting another exponent of its prime is refused,
    # whether that exponent is explicit or comes from the interval
    if parts:
        d = DeferredValue(factorize(720), 2)
        i = rng.randrange(len(parts))
        deferred = parts[:i] + [(parts[i][0], d)] + parts[i + 1:]
        if [p for p, _ in every].count(parts[i][0]) == 1:
            assert not FactoredNatural(deferred, intervals).is_plain
        else:
            with pytest.raises(ValueError, match="^cannot merge deferred exponents$"):
                FactoredNatural(deferred, intervals)
        deferred.insert(rng.randrange(len(deferred) + 1), (parts[i][0], rng.choice((1, d))))
        with pytest.raises(ValueError, match="^cannot merge deferred exponents$"):
            FactoredNatural(deferred)

    # evaluate's value is FactoredNatural(...) of the same parts: the input's
    # p^(k(e-1)) and the factors of each tail, shuffled
    for f, k, sign in ((af.PHI, 1, -1), (af.jordan(2), 2, -1), (af.PSI, 1, 1),
                       (af.PHI_STAR, None, -1)):
        if k is None and any(e * p.bit_length() > 120 for p, e in built.explicit):
            continue  # a phi_star tail too large to factor
        tails = [(p, k * (e - 1)) for p, e in built.explicit if k and e > 1]
        for p, e in built.explicit:
            tails += prime_factors(p ** (k or e) + sign)
        rng.shuffle(tails)
        assert af.evaluate(f, built) == FactoredNatural(tails), f


def test_evaluate_and_the_constructor_merge_deferred_exponents_alike():
    d = DeferredValue(factorize(720), 2)
    # phi(3^D * 7): the tail 7 - 1 = 2 * 3 meets 3's deferred exponent
    parts = [(3, d.shift(-1)), (2, 1), (2, 1), (3, 1)]
    with pytest.raises(ValueError, match="^cannot merge deferred exponents$"):
        FactoredNatural(parts)
    with pytest.raises(ValueError, match="^cannot merge deferred exponents$"):
        af.evaluate(af.PHI, FactoredNatural(((3, d), (7, 1))))
    # phi(5^D * 7) = 2^2 * 5^(D-1) * 2 * 3, the same merge either way
    value = af.evaluate(af.PHI, FactoredNatural(((5, d), (7, 1))))
    assert value == FactoredNatural([(5, d.shift(-1)), (2, 2), (2, 1), (3, 1)])
    assert value.explicit == ((2, 3), (3, 1), (5, d.shift(-1))) and not value.is_plain


def test_one_is_empty_factorization():
    assert factorize(1).is_one
    assert to_integer(factorize(1)) == 1


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_round_trip(n):
    assert to_integer(factorize(n)) == n


@given(st.integers(min_value=1, max_value=1000),
       st.integers(min_value=1, max_value=1000))
def test_fundamental_theorem(a, b):
    assert factorize(a * b) == FactoredNatural(factorize(a).explicit + factorize(b).explicit)


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


_WHEEL_PRIMES = primes_upto(1000)[3:]      # 7..997: split off by the wheel
_RHO_BAND = primes_upto(100_000)[len(primes_upto(1000)):]  # 1009..99991


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prime_factors_of_known_prime_products(data):
    # one prime of up to 60 bits, primes from 1000..100000 (split off by
    # Pollard-Brent, not the wheel) and wheel primes, kept within 128 bits
    bits = data.draw(st.integers(min_value=18, max_value=60))
    q = _next_prime(data.draw(st.integers(min_value=2 ** (bits - 1),
                                          max_value=2 ** bits - 1)))
    want, n = {q: 1}, q
    for pool, count in ((_RHO_BAND, 3), (_WHEEL_PRIMES, 2)):
        for p in data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=count, unique=True)):
            e = data.draw(st.integers(min_value=1, max_value=3))
            if (n * p ** e).bit_length() <= 128:
                want[p] = e
                n *= p ** e
    assert prime_factors(n) == sorted(want.items())


def test_spf_table_agrees_with_trial_division():
    spf = smallest_factor_table(10_000)
    for n in range(2, 10_000):
        p = spf[n]
        assert n % p == 0 and is_prime(p)
        assert all(n % q for q in primes_upto(p - 1)) or p == 2


def test_factored_range_matches_factorize():
    for n, pps in factored_range(500):
        assert FactoredNatural(pps) == factorize(n)


def test_factored_range_leaves_no_spf_table_behind(monkeypatch):
    # the table lives as long as the generator walking it, not the process
    tables = []
    real = factorint.smallest_factor_table

    def spy(bound, config=DEFAULT_CONFIG):
        table = real(bound, config)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(factorint, "smallest_factor_table", spy)
    assert sum(1 for _ in factored_range(10 ** 5)) == 10 ** 5 - 1
    gc.collect()
    assert len(tables) == 1 and tables[0]() is None


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
    # both overflow, under the default budget and a 64-bit one; whichever
    # budget materialised them last, the buckets of pairwise_all_different
    # (smallest primes 3 and 5) decide
    c = FactoredNatural(((5, 1),), ((4, 10 ** 40),))
    tight = DEFAULT_CONFIG.replace(bit_budget=64)
    for config in (DEFAULT_CONFIG, tight):
        assert to_integer(a, config) is OVERFLOW and to_integer(c, config) is OVERFLOW
        assert pairwise_all_different([a, c]) is None


def test_equal_interval_values_never_certified_different():
    # 2 * q[2..D] == q[1..D], D = 2^30: no structural rule decides the
    # pair, so it must stay undecided
    d = DeferredValue(FactoredNatural(((2, 30),)), 0)
    a = FactoredNatural(((2, 1),), ((2, d),))
    b = FactoredNatural((), ((1, d),))
    with pytest.raises(ComparisonUndecided):
        certainly_different(a, b)
    with pytest.raises(ComparisonUndecided):
        pairwise_all_different([a, b])


def test_explicit_prime_next_to_an_interval_is_not_certified_different():
    # 7927 = q[1001], so 7927*q[10..1000] == q[10..1001]; only the same-lo
    # rule could decide the pair, and the values, equal, are never read
    assert nth_prime(1001) == 7927
    a = FactoredNatural(((7927, 1),), ((10, 1000),))
    b = FactoredNatural((), ((10, 1001),))
    assert to_integer(a) == to_integer(b)
    with pytest.raises(ComparisonUndecided):
        certainly_different(a, b)
    with pytest.raises(ComparisonUndecided):
        pairwise_all_different([a, b])


def test_short_interval_past_prime_index_budget_is_refused(monkeypatch):
    # equal values; to_integer refuses the interval rather than report
    # OVERFLOW, and pairwise_all_different refuses at nth_prime(101), which
    # buckets a by its smallest prime.  The fixed prime-index limit is
    # lowered to 100 once b is built.
    b = FactoredNatural([(nth_prime(i), 1) for i in range(101, 701)])
    monkeypatch.setattr(factorint, "_INDEX_LIMIT", 100)
    a = FactoredNatural((), ((101, 700),))
    with pytest.raises(BudgetExceeded):
        to_integer(a)
    with pytest.raises(BudgetExceeded):
        pairwise_all_different([a, b])
    monkeypatch.undo()
    assert to_integer(a) == to_integer(b)


def test_to_integer_materialises_once_per_object():
    x = FactoredNatural(((3, 100_000),))
    assert to_integer(x) is to_integer(x)


def _outcome(compare, *args):
    """compare(*args), or ComparisonUndecided when it raises that."""
    try:
        return compare(*args)
    except ComparisonUndecided:
        return ComparisonUndecided


def _assert_collision_is_exact(got, ints):
    if len(set(ints)) == len(ints):
        assert got is None
    else:
        i, j = got
        assert i < j and ints[i] == ints[j]


@settings(deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=200), max_size=30),
       st.sampled_from([1, 1000]), st.data())
def test_pairwise_plain_agrees_with_int_distinctness(ns, m, data):
    # m = 1000 puts most values past a 64-bit budget
    values = [FactoredNatural((p, e * m) for p, e in factorize(n).explicit)
              for n in ns]
    ints = [to_integer(v) for v in values]
    _assert_collision_is_exact(pairwise_all_different(values), ints)
    # mixed shapes (deferred exponents and interval ends); a repeated shape
    # in another form is an equal value that is structurally different
    shapes = data.draw(st.lists(_value_shapes(), min_size=1, max_size=4))
    picks = data.draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=6))
    values = [data.draw(_forms(shape)) for shape in picks]
    ints = [to_integer(v) for v in values]
    got = _outcome(pairwise_all_different, values)
    if got is not ComparisonUndecided:  # a pair that no rule decides
        _assert_collision_is_exact(got, ints)
    # the same outcome with every value materialised under 64 bits
    tight = ToolConfig(bit_budget=64)
    for v in values:
        to_integer(v, tight)
    assert _outcome(pairwise_all_different, values) == got


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
    refusal = r"^sieve request 1000 exceeds sieve bound 100 \(sieve_bound\)$"
    with pytest.raises(BudgetExceeded, match=refusal):
        smallest_factor_table(1000, tiny)
    with pytest.raises(BudgetExceeded, match=refusal):
        primes_upto(1000, tiny)
    with pytest.raises(BudgetExceeded, match=refusal):
        af.value_table(af.PHI, 1000, tiny)


# -- budget-differential: symbolic rules under a 64-bit budget against the
# integers under the default budget


@st.composite
def _small_base(draw, near=None):
    """A plain base and its value, for a DeferredValue over a small base."""
    lo, hi = (2, 3000) if near is None else (max(2, near - 40), near)
    n = draw(st.integers(min_value=lo, max_value=hi))
    return factorize(n), n


@st.composite
def _value_shapes(draw):
    """A value as {prime: exponent} times an optional q[lo..hi] of more
    than 512 primes (so normalization keeps it an interval)."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7]), max_size=2, unique=True))
    explicit = {p: draw(st.integers(min_value=1, max_value=2000)) for p in primes}
    interval = None
    if draw(st.booleans()):
        lo = draw(st.integers(min_value=5, max_value=15))
        interval = (lo, lo + draw(st.integers(min_value=514, max_value=700)) - 1)
    return explicit, interval


@st.composite
def _forms(draw, shape):
    """One of the factored forms of a shape's value."""
    explicit, interval = shape
    parts = []
    for p, e in explicit.items():
        if draw(st.booleans()):
            base, v = draw(_small_base())
            e = DeferredValue(base, e - v)
        parts.append((p, e))
    if interval is None:
        return FactoredNatural(parts)
    lo, hi = interval
    form = draw(st.sampled_from(["interval", "next_hi", "next_lo", "deferred_hi"]))
    if form == "next_hi":
        return FactoredNatural(parts + [(nth_prime(hi), 1)], [(lo, hi - 1)])
    if form == "next_lo":
        return FactoredNatural(parts + [(nth_prime(lo), 1)], [(lo + 1, hi)])
    if form == "deferred_hi":
        base, v = draw(_small_base(near=hi))
        try:
            return FactoredNatural(parts, [(lo, DeferredValue(base, hi - v))])
        except ValueError:  # the base's bit-length bound cannot certify lo <= hi
            pass
    return FactoredNatural(parts, [(lo, hi)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_symbolic_rules_agree_with_integers_under_a_small_budget(data):
    tight = DEFAULT_CONFIG.replace(bit_budget=64)
    shape_a = data.draw(_value_shapes())
    shape_b = shape_a if data.draw(st.booleans()) else data.draw(_value_shapes())
    a, b = data.draw(_forms(shape_a)), data.draw(_forms(shape_b))
    for v in (a, b):
        to_integer(v, tight)
    different = _outcome(certainly_different, a, b)
    ia, ib = to_integer(a), to_integer(b)
    assert ia is not OVERFLOW and ib is not OVERFLOW
    # the same decision, or the same refusal, with the values cached under
    # the default budget as under 64 bits
    assert _outcome(certainly_different, a, b) == different
    if different is not ComparisonUndecided:
        assert different == (ia != ib)
    if shape_a == shape_b:
        assert different is not True


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_certified_comparison_materialises_no_value(data):
    # equal shapes in other forms are pairs that structure alone must
    # decide or refuse; no value, under any budget, may decide them
    shape_a = data.draw(_value_shapes())
    shape_b = shape_a if data.draw(st.booleans()) else data.draw(_value_shapes())
    a, b = data.draw(_forms(shape_a)), data.draw(_forms(shape_b))

    def refuse(x, config):
        raise AssertionError(f"materialised {x!r}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorint, "_materialise", refuse)
        _outcome(certainly_different, a, b)
