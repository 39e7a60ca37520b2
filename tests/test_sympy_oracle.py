"""sympy as a second, independent test oracle (skipped when not installed).

The definitional oracle (tests/definitional.py) only reaches small n; these
checks draw n up to 1e15, where factorize goes past trial division to
Pollard-Brent, and test is_prime over the whole range where its
Miller-Rabin base table is deterministic.
"""
import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from arithdyn import arithfun as af  # noqa: E402
from arithdyn.factorint import _MR_BASE_TABLE, is_prime, primes_upto  # noqa: E402
from helpers import evaluate_int  # noqa: E402

# each catalogue function with its sympy counterpart
COUNTERPARTS = [
    (af.PHI, sympy.totient),
    (af.D, sympy.divisor_count),
    (af.sigma(1), lambda n: sympy.divisor_sigma(n, 1)),
    (af.sigma(2), lambda n: sympy.divisor_sigma(n, 2)),
    (af.sigma(3), lambda n: sympy.divisor_sigma(n, 3)),
    (af.BIG_OMEGA, sympy.primeomega),
    (af.SMALL_OMEGA, sympy.primenu),
]

# a product of two primes near 1e7: no small factor, so only Pollard splits it
SEMIPRIMES = st.builds(lambda a, b: sympy.nextprime(a) * sympy.nextprime(b),
                       st.integers(10 ** 6, 3 * 10 ** 7), st.integers(10 ** 6, 3 * 10 ** 7))

# is_prime is deterministic below the last limit of its base table
DETERMINISTIC_BELOW = 33 * 10 ** 23


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(2, 10 ** 15), SEMIPRIMES))
@example(2)
@example(999_999_999_999_989)  # the largest prime below 1e15
@example(10 ** 15)
@example(2 ** 49)
def test_evaluate_int_matches_sympy(n):
    # n >= 2: the catalogue maps 1 to 1 for Omega and omega, sympy to 0
    for f, expected in COUNTERPARTS:
        assert evaluate_int(f, n) == int(expected(n)), (str(f), n)


def _is_prime_agrees(n):
    assert is_prime(n) == sympy.isprime(n), n


@settings(max_examples=300, deadline=None)
@given(st.integers(0, DETERMINISTIC_BELOW - 1))
def test_is_prime_matches_sympy(n):
    _is_prime_agrees(n)
    # a random n is rarely prime: also check the next prime and a semiprime
    p = sympy.nextprime(n)
    if p < DETERMINISTIC_BELOW:
        _is_prime_agrees(p)
    q = sympy.nextprime(int(n ** 0.5) + 2)
    if p * q < DETERMINISTIC_BELOW:
        _is_prime_agrees(p * q)


def test_is_prime_at_every_base_table_limit():
    # each limit is the least strong pseudoprime to its row's bases, the
    # composite where that row would first answer wrong
    for limit, _ in _MR_BASE_TABLE:
        for n in (limit - 2, limit - 1, limit, limit + 1, limit + 2):
            if n < DETERMINISTIC_BELOW:
                _is_prime_agrees(n)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 300_000))
@example(0)
@example(2)
@example(300_000)
def test_primes_upto_matches_sympy_primerange(limit):
    # the cached list, however it grew, against sympy's own sieve
    assert list(primes_upto(limit)) == list(sympy.primerange(2, limit + 1))
