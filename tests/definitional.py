"""Catalogue values recomputed from the literal definitions (brute force).

A test oracle for ``arithfun``: tuple counting for J_k, ordered-factorization
enumeration for d_l, divisor scans for sigma_l, and its own trial-division
factorizer for the rest.  It calls none of ``evaluate``, ``scalar_value`` or
``factorize``, so it stays independent of the closed forms it checks.  It
has no budget: each test bounds its own range (the J_k tuple count grows as
n^k).
"""
from math import gcd

from arithdyn.arithfun import Family, FunctionId


def _oracle_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _count_coprime_tuples(n: int, k: int) -> int:
    # tuples (s_1..s_k) in {1..n}^k with gcd(s_1,...,s_k,n) = 1; once the
    # running gcd hits 1 every extension qualifies, which keeps this honest
    # counting instead of a closed form while staying feasible
    def rec(depth: int, g: int) -> int:
        if g == 1:
            return n ** (k - depth)
        if depth == k:
            return 0
        return sum(rec(depth + 1, gcd(g, s)) for s in range(1, n + 1))
    return rec(0, n)


def _count_ordered_factorizations(n: int, l: int) -> int:
    if l == 1:
        return 1
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _count_ordered_factorizations(n // d, l - 1)
    return total


def oracle_evaluate(f: FunctionId, n: int) -> int:
    """f(n) straight from the definitional description (brute force)."""
    if n < 1:
        raise ValueError("oracle domain is n >= 1")
    if n == 1:
        return 1
    fam, k = f.family, f.param
    if fam is Family.JORDAN:
        return _count_coprime_tuples(n, k)
    if fam is Family.GENERALIZED_PSI:
        out = n ** k
        for p, _ in _oracle_factor(n):
            out = out // p ** k * (p ** k + 1)
        return out
    if fam is Family.UNITARY_TOTIENT:
        out = 1
        for p, a in _oracle_factor(n):
            out *= p ** a - 1
        return out
    if fam is Family.BIG_OMEGA:
        return sum(a for _, a in _oracle_factor(n))
    if fam is Family.SMALL_OMEGA:
        return len(_oracle_factor(n))
    if fam is Family.DIVISOR_COUNT:
        return _count_ordered_factorizations(n, k)
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)
