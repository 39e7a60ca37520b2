"""Exact preimage enumeration where finite-fibre structure permits.

Three regimes:

* the multiplicative families (Jordan J_k, generalized psi_k, sigma_k and
  the unitary totient phi_star) are inverted by one divisor-driven
  recursion: each prime power p^a of a preimage of m has f(p^a) | m, so the
  fibre is the set of coprime products of such candidates whose values
  multiply to exactly m.  The result is complete for phi, whose explicit
  (astronomical) containment bound stays available as a checkable
  certificate, and for the expansive families (f(n) >= n pointwise);
  phi_star fibres are only ever asked for below a bound;
* the scan of 1..m, complete for expansive f, stays as the test oracle;
* Omega, omega and d_l contain all primes in one fibre and admit only
  witness lists and bounded scans, never complete enumerations.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, isqrt, lcm
from typing import Optional

from .config import DEFAULT_CONFIG, ToolConfig
from .arithfun import (
    Family, FunctionId, PHI, scalar_value, value_table,
)
from .factorint import (
    BudgetExceeded, FactoredNatural, factored_range, is_prime, nth_prime,
    prime_factors, primes_upto,
)


class NotFiniteFibre(Exception):
    """Raised when a complete fibre enumeration is impossible in principle."""


class NotExpansive(Exception):
    """Raised when the scan-to-m method is applied to a non-expansive f."""


COMPLETE = "COMPLETE"
BOUNDED_SEARCH = "BOUNDED_SEARCH"


@dataclass(frozen=True)
class PreimageResult:
    target: int
    members: tuple[int, ...]
    completeness: str
    search_bound: Optional[int] = None

    def __post_init__(self):
        if self.completeness not in (COMPLETE, BOUNDED_SEARCH):
            raise ValueError(f"bad completeness {self.completeness!r}")
        if (self.completeness == BOUNDED_SEARCH) != (self.search_bound is not None):
            raise ValueError("BOUNDED_SEARCH results carry their bound")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be sorted and duplicate-free")


def is_expansive_family(f: FunctionId) -> bool:
    """Families with f(n) >= n for all n (so fibres live in {1..m})."""
    if f.family in (Family.GENERALIZED_PSI, Family.SIGMA):
        return True
    return f.family is Family.JORDAN and f.param >= 2


# ---------------------------------------------------------------------------
# the divisor-driven inverter

_INVERTIBLE = (Family.JORDAN, Family.GENERALIZED_PSI, Family.SIGMA,
               Family.UNITARY_TOTIENT)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _iroot(n: int, k: int) -> int:
    """The largest r with r^k <= n, for n >= 0 within float range."""
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _prime_root(q: int, k: int) -> Optional[int]:
    """The prime p with p^k == q, or None."""
    if k == 1:
        return q if is_prime(q) else None
    p = _iroot(q, k)
    return p if p ** k == q and is_prime(p) else None


def _as_prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, a) with p prime and p^a == q, or None."""
    for p in _SMALL_PRIMES:
        if q % p == 0:
            a = 0
            while q % p == 0:
                q //= p
                a += 1
            return (p, a) if q == 1 else None
    if is_prime(q):
        return q, 1
    a = 2  # every prime factor is past 31, so p^a == q needs 37^a <= q
    while 37 ** a <= q:
        p = _prime_root(q, a)
        if p is not None:
            return p, a
        a += 1
    return None


def _divisors(m: int, config: ToolConfig) -> list[int]:
    divs = [1]
    for p, e in prime_factors(m, config):
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _candidates(f: FunctionId, m: int, config: ToolConfig) -> list[list[tuple[int, int]]]:
    """For every prime p with some f(p^a) | m, the list [(f(p^a), p^a), ...]
    of those powers, ascending in a.

    * J_k, psi_k: f(p) = p^k -+ 1 is a divisor d, and f(p^a) = f(p) p^(k(a-1));
    * phi_star: f(p^a) = p^a - 1, so p^a = d + 1;
    * sigma_k: f(p^a) = 1 + p^k + ... + p^(ka).  For a = 1, p^k = d - 1.
      For a >= 2, p^(ka) < d - 1 < (p+1)^(ka) leaves p = floor((d -
      1)^(1/(ka))) as the only candidate; primes up to 31 are instead
      walked through their powers directly, so the roots are only taken
      while 37^(ka) < d.
    """
    fam, k = f.family, f.param
    divisors = _divisors(m, config)
    by_prime: dict[int, list[tuple[int, int]]] = {}
    if fam is Family.UNITARY_TOTIENT:
        for d in divisors:
            pa = _as_prime_power(d + 1)
            if pa is not None:
                by_prime.setdefault(pa[0], []).append((d, d + 1))
    elif fam is Family.SIGMA:
        for d in divisors:
            p = _prime_root(d - 1, k)
            if p is not None:
                by_prime.setdefault(p, []).append((d, p))
            a = 2
            while 37 ** (k * a) < d:
                p = _iroot(d - 1, k * a)
                pk = p ** k
                if (pk ** (a + 1) - 1) // (pk - 1) == d and is_prime(p):
                    by_prime.setdefault(p, []).append((d, p ** a))
                a += 1
        for p in _SMALL_PRIMES:
            pk = p ** k
            value, pw = 1 + pk + pk * pk, p * p
            if value > m:
                break
            while value <= m:
                if m % value == 0:
                    by_prime.setdefault(p, []).append((value, pw))
                value, pw = value * pk + 1, pw * p
    else:
        sign = 1 if fam is Family.JORDAN else -1
        for d in divisors:
            p = _prime_root(d + sign, k)
            if p is None:
                continue
            powers = by_prime[p] = []
            value, pw = d, p
            while m % value == 0:
                powers.append((value, pw))
                value, pw = value * (d + sign), pw * p
    return [sorted(powers) for powers in by_prime.values()]


def _invert(f: FunctionId, m: int, bound: Optional[int],
            config: ToolConfig) -> tuple[int, ...]:
    """Every x (x <= bound, when given) with f(x) == m, ascending.

    The recursion picks at most one power of each candidate prime, taking
    the primes in order of descending least value.  Two cuts keep it to
    live branches: a bisection skips the primes whose least value exceeds
    the remaining quotient, and a quotient is only pursued if it divides
    what the primes still to come can supply."""
    if m < 1:
        raise ValueError("m >= 1")
    groups = sorted(_candidates(f, m, config), reverse=True)
    least = [-powers[0][0] for powers in groups]  # ascending
    # reach[j] = gcd(m, product of the lcm of each of groups[j:]'s values)
    reach = [1] * (len(groups) + 1)
    for j in range(len(groups) - 1, -1, -1):
        reach[j] = gcd(m, reach[j + 1] * lcm(*(value for value, _ in groups[j])))
    members: list[int] = []

    def assemble(rem: int, idx: int, acc: int) -> None:
        if rem == 1:
            members.append(acc)
            # no return: phi(2) = phi_star(2) = 1 may still be appended
        limit = None if bound is None else bound // acc
        for j in range(max(idx, bisect_left(least, -rem)), len(groups)):
            for value, pw in groups[j]:
                if value > rem or (limit is not None and pw > limit):
                    break
                if rem % value == 0 and reach[j + 1] % (rem // value) == 0:
                    assemble(rem // value, j + 1, acc * pw)

    if reach[0] == m:
        assemble(m, 0, 1)
    return tuple(sorted(members))


# ---------------------------------------------------------------------------
# public fibre routines


def preimage_expansive(f: FunctionId, m: int,
                       config: ToolConfig = DEFAULT_CONFIG) -> PreimageResult:
    """Complete fibre f^-1(m) for expansive f, by scanning 1..m.

    Kept as the reference the inverter is tested against."""
    if not is_expansive_family(f):
        raise NotExpansive(f"{f} is not in the expansive set")
    if m < 1:
        raise ValueError("m >= 1")
    members = [1] if m == 1 else []
    for n, pps in factored_range(m, config=config):
        v = scalar_value(f, pps)
        if v < n:
            raise NotExpansive(f"{f}({n}) = {v} < {n}")  # pragma: no cover
        if v == m:
            members.append(n)
    return PreimageResult(m, tuple(members), COMPLETE)


def preimage_bounded(f: FunctionId, m: int, bound: int,
                     config: ToolConfig = DEFAULT_CONFIG) -> PreimageResult:
    """Members of f^-1(m) found below `bound`; never claimed complete.

    Multiplicative families go through the inverter; Omega, omega and d_l
    scan 1..bound."""
    if bound < 1:
        raise ValueError("bound >= 1")
    if f.family in _INVERTIBLE:
        return PreimageResult(m, _invert(f, m, bound, config), BOUNDED_SEARCH, bound)
    members = [1] if m == 1 else []
    for n, pps in factored_range(bound, config=config):
        if scalar_value(f, pps) == m:
            members.append(n)
    return PreimageResult(m, tuple(members), BOUNDED_SEARCH, bound)


def phi_bound(m: int, config: ToolConfig = DEFAULT_CONFIG) -> FactoredNatural:
    """The containment certificate for phi^-1(m): every x with phi(x) = m
    divides (hence is at most) prod of p^(floor(log2 m) + 1) over p <= m+1."""
    if m < 1:
        raise ValueError("m >= 1")
    exponent = m.bit_length()  # floor(log2 m) + 1
    return FactoredNatural((p, exponent) for p in primes_upto(m + 1, config))


def inverse_phi(m: int, config: ToolConfig = DEFAULT_CONFIG) -> PreimageResult:
    """Complete enumeration of phi^-1(m) by the divisor-driven recursion:
    candidate prime powers p^a contribute (p-1)p^(a-1) to the totient."""
    if m < 1:
        raise ValueError("m >= 1")
    if m > config.inverse_phi_budget:
        raise BudgetExceeded(f"inverse_phi target {m} over budget")
    return PreimageResult(m, _invert(PHI, m, None, config), COMPLETE)


def nonfinite_fibre_witness(f: FunctionId, target: int, count: int,
                            config: ToolConfig = DEFAULT_CONFIG) -> list[int]:
    """`count` distinct fibre members certifying f^-1(target) beats any
    finite bound: all primes sit in omega^-1(1), Omega^-1(1) and d_k^-1(k)."""
    expected = {
        Family.BIG_OMEGA: 1,
        Family.SMALL_OMEGA: 1,
        Family.DIVISOR_COUNT: f.param,
    }.get(f.family)
    if expected is None:
        raise NotFiniteFibre(f"{f} has no catalogued infinite fibre")
    if target != expected:
        raise ValueError(f"the catalogued infinite fibre of {f} sits over {expected}")
    if count < 1:
        raise ValueError("count >= 1")
    return [nth_prime(i, config) for i in range(1, count + 1)]


def complete_preimage(f: FunctionId, m: int,
                      config: ToolConfig = DEFAULT_CONFIG) -> tuple[int, ...]:
    """Complete fibre for functions that admit one; raises otherwise."""
    if f == PHI:
        return inverse_phi(m, config).members
    if is_expansive_family(f):
        return _invert(f, m, None, config)
    if f.family in (Family.BIG_OMEGA, Family.SMALL_OMEGA, Family.DIVISOR_COUNT):
        raise NotFiniteFibre(f"{f} is not finite fibre")
    raise NotFiniteFibre(f"no complete enumeration method for {f}")


def preimage_closure(f: FunctionId, x: int, scan_bound: Optional[int] = None,
                     config: ToolConfig = DEFAULT_CONFIG) -> set[int]:
    """x and all its iterated preimages.

    Fibres are complete where f admits that (phi and the expansive
    families) and cut at scan_bound otherwise.  A node above scan_bound
    joins the closure but is not expanded.
    """
    if x < 1:
        raise ValueError("x >= 1")
    if f == PHI or is_expansive_family(f):
        def fibre(y: int) -> tuple[int, ...]:
            return complete_preimage(f, y, config)
    elif scan_bound is None:
        raise ValueError(f"{f} needs a scan_bound")
    else:
        def fibre(y: int) -> tuple[int, ...]:
            return preimage_bounded(f, y, scan_bound, config).members
    closure = {x}
    frontier = [x]
    while frontier:
        y = frontier.pop()
        if scan_bound is not None and y > scan_bound:
            continue
        for member in fibre(y):
            if member not in closure:
                closure.add(member)
                frontier.append(member)
    return closure


def preimage_table(f: FunctionId, bound: int,
                   config: ToolConfig = DEFAULT_CONFIG) -> list[list[int]]:
    """pre[y] = ascending x <= bound with f(x) = y, for y <= bound.

    For expansive f this is the complete fibre of every y <= bound.
    """
    table = value_table(f, bound, config)
    pre: list[list[int]] = [[] for _ in range(bound + 1)]
    for x in range(1, bound + 1):
        v = table[x]
        if v <= bound:
            pre[v].append(x)
    return pre
