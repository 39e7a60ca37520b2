"""Exact preimage enumeration where finite-fibre structure permits.

``fibres(f, bound)`` is the one fibre policy: every caller that needs
f^-1(y) for many y (the CLI, closures, the backward search) takes its
lookup from there, and it alone decides how the fibre is found:

* complete, for phi (``inverse_phi``, within its budget) and for the
  expansive families J_k (k >= 2), psi_k and sigma_k, through one
  divisor-driven inverter: each prime power p^a of a preimage of m has
  f(p^a) | m, so the fibre is the set of coprime products of such
  candidates whose values multiply to exactly m.  A phi lookup with a
  bound switches, once its targets y <= top have cost about what a table
  costs, to one batch table of every fibre phi^-1(y), y <= top: one walk
  over the primes p <= top + 1 takes at most one power of each while the
  product of the phi(p^a) stays <= top.  Its fibres are complete by the
  same argument (each phi(p^a) of a member divides y, so p <= top + 1);
  the table lives as long as that lookup and is not kept for the process;
* cut at ``bound``, for phi_star (the same inverter, members <= bound) and
  for Omega, omega and d_l (one ``fibre_table`` of 1..bound): the latter
  contain all primes in one fibre and admit only witness lists and bounded
  scans, never complete enumerations;
* refused (``NotFiniteFibre``) when no bound is given and no complete
  method exists.

``preimage_closure`` is the one closure routine built on it.  The scan of
1..m, complete for expansive f, stays as the test oracle.
"""
from __future__ import annotations

from bisect import bisect_left
from math import gcd, isqrt, lcm
from typing import Callable, NamedTuple, Optional, Sequence

from .config import DEFAULT_CONFIG, ToolConfig
from .arithfun import (
    Family, FunctionId, PHI, scalar_value, value_table,
)
from .factorint import (
    BudgetExceeded, FactoredNatural, _factored, factored_range, is_prime,
    nth_prime, prime_factors, primes_upto,
)
from .reports import CheckedRecord


class NotFiniteFibre(ValueError):
    """Raised when a complete fibre enumeration is impossible in principle;
    a ValueError, because a bound is the missing argument."""


class NotExpansive(Exception):
    """Raised when the scan-to-m method is applied to a non-expansive f."""


COMPLETE = "COMPLETE"
BOUNDED_SEARCH = "BOUNDED_SEARCH"


class _PreimageResult(NamedTuple):
    target: int
    members: tuple[int, ...]
    completeness: str
    search_bound: Optional[int] = None


class PreimageResult(CheckedRecord, _PreimageResult):
    __slots__ = ()

    def _check(self) -> None:
        if self.completeness not in (COMPLETE, BOUNDED_SEARCH):
            raise ValueError(f"bad completeness {self.completeness!r}")
        if (self.completeness == BOUNDED_SEARCH) != (self.search_bound is not None):
            raise ValueError("BOUNDED_SEARCH results carry their bound")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be sorted and duplicate-free")


# ---------------------------------------------------------------------------
# the divisor-driven inverter

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
    of those powers, ascending in a.  A divisor d of m is solved against
    f's at-prime tail f(p) = p^t + s (FunctionId.at_prime), and the values
    at higher powers come from f's closed form (Family.form):

    * J_k, psi_k: p^k = d - s, and f(p^a) = d p^(k(a-1)), so each power
      steps the value by p^k: f(p^(a+1)) = f(p^a) p^k;
    * phi_star: the tail is every f(p^a) = p^a + s, so p^a = d - s;
    * sigma_k: f(p^a) = 1 + p^k + ... + p^(ka).  For a = 1, p^k = d - s.
      For a >= 2, p^(ka) < d - 1 < (p+1)^(ka) leaves p = floor((d -
      1)^(1/(ka))) as the only candidate; primes up to 31 are instead
      walked through their powers directly, so the roots are only taken
      while 37^(ka) < d.
    """
    fam, k = f.family, f.param
    t, s = f.at_prime
    form = fam.form
    divisors = _divisors(m, config)
    by_prime: dict[int, list[tuple[int, int]]] = {}
    if fam is Family.UNITARY_TOTIENT:
        for d in divisors:
            pa = _as_prime_power(d - s)
            if pa is not None:
                by_prime.setdefault(pa[0], []).append((d, d - s))
    elif fam is Family.SIGMA:
        for d in divisors:
            p = _prime_root(d - s, t)
            if p is not None:
                by_prime.setdefault(p, []).append((d, p))
            a = 2
            while 37 ** (t * a) < d:
                p = _iroot(d - 1, t * a)
                if form(p, a, k, s) == d and is_prime(p):
                    by_prime.setdefault(p, []).append((d, p ** a))
                a += 1
        for p in _SMALL_PRIMES:
            a, value = 2, form(p, 2, k, s)
            if value > m:
                break
            while value <= m:
                if m % value == 0:
                    by_prime.setdefault(p, []).append((value, p ** a))
                a, value = a + 1, form(p, a + 1, k, s)
    else:
        for d in divisors:
            p = _prime_root(d - s, t)
            if p is None:
                continue
            powers = by_prime[p] = []
            pa, value, step = p, d, p ** t
            while m % value == 0:
                powers.append((value, pa))
                pa, value = pa * p, value * step
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
    if not f.expansive:
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

    Families with finite fibres go through the inverter; Omega, omega and
    d_l read the fibre table of 1..bound."""
    if bound < 1:
        raise ValueError("bound >= 1")
    if m < 1:
        raise ValueError("m >= 1")
    if f.infinite_fibre is None:
        members = _invert(f, m, bound, config)
    else:
        members = tuple(fibre_table(f, bound, config).get(m, ()))
    return PreimageResult(m, members, BOUNDED_SEARCH, bound)


def phi_bound(m: int, config: ToolConfig = DEFAULT_CONFIG) -> FactoredNatural:
    """The containment certificate for phi^-1(m): every x with phi(x) = m
    divides (hence is at most) prod of p^(floor(log2 m) + 1) over p <= m+1."""
    if m < 1:
        raise ValueError("m >= 1")
    exponent = m.bit_length()  # floor(log2 m) + 1
    # sieve primes, ascending and once each: the normal form as it stands
    return _factored(tuple((p, exponent) for p in primes_upto(m + 1, config)))


def inverse_phi(m: int, config: ToolConfig = DEFAULT_CONFIG) -> PreimageResult:
    """Complete enumeration of phi^-1(m) by the divisor-driven recursion:
    candidate prime powers p^a contribute (p-1)p^(a-1) to the totient."""
    if m < 1:
        raise ValueError("m >= 1")
    if m > config.inverse_phi_budget:
        raise BudgetExceeded(f"inverse_phi target {m} over budget (inverse_phi_budget)")
    return PreimageResult(m, _invert(PHI, m, None, config), COMPLETE)


def nonfinite_fibre_witness(f: FunctionId, target: int, count: int) -> list[int]:
    """`count` distinct fibre members certifying f^-1(target) beats any
    finite bound: all primes sit in omega^-1(1), Omega^-1(1) and d_k^-1(k)
    (FunctionId.infinite_fibre)."""
    expected = f.infinite_fibre
    if expected is None:
        raise NotFiniteFibre(f"{f} has no catalogued infinite fibre")
    if target != expected:
        raise ValueError(f"the catalogued infinite fibre of {f} sits over {expected}")
    if count < 1:
        raise ValueError("count >= 1")
    return [nth_prime(i) for i in range(1, count + 1)]


def fibre_table(f: FunctionId, bound: int,
                config: ToolConfig = DEFAULT_CONFIG) -> dict[int, list[int]]:
    """{y: ascending x <= bound with f(x) = y}: every bounded fibre of f at
    once, from one value table."""
    table = value_table(f, bound, config)
    by_value: dict[int, list[int]] = {}
    for x in range(1, bound + 1):
        by_value.setdefault(table[x], []).append(x)
    return by_value


# A phi lookup builds its table once it has answered top // _TABLE_SWITCH
# targets y <= top one inverse_phi call at a time: for targets up to a few
# thousand a call costs about 37 us and the table about 2 us per unit of top
# (Python 3.11 on a 2-core x86-64 machine), so by then the calls have cost
# about what the table costs.
_TABLE_SWITCH = 16


def _phi_fibre_table(top: int, config: ToolConfig) -> dict[int, tuple[int, ...]]:
    """{y: phi^-1(y), ascending} for every y <= top whose fibre is not empty.

    Every x with phi(x) = y is a coprime product of prime powers p^a, and
    phi(x) is the product of their phi(p^a) = (p-1)p^(a-1), so each
    phi(p^a) divides y and p <= y + 1 <= top + 1.  An iterative depth-first
    walk over the primes p <= top + 1 in ascending order, taking at most
    one power of each while the product of the phi(p^a) stays <= top,
    emits every such x exactly once under its phi value: each fibre is
    complete, as inverse_phi's are.
    """
    primes = primes_upto(top + 1, config)
    count = len(primes)
    table: dict[int, list[int]] = {1: [1]}
    stack = [(0, 1, 1)]  # (index of the next prime, phi value, product)
    while stack:
        i, value, x = stack.pop()
        limit = top // value
        for j in range(i, count):
            p = primes[j]
            w = p - 1  # phi(p^a), from a = 1
            if w > limit:
                break
            # a product goes on only while (q - 1) times its phi value stays
            # <= top for the next prime q
            grow = primes[j + 1] - 1 if j + 1 < count else limit + 1
            xp = x * p
            while w <= limit:
                y = value * w
                members = table.get(y)
                if members is None:
                    table[y] = [xp]
                else:
                    members.append(xp)
                if w * grow <= limit:
                    stack.append((j + 1, y, xp))
                w *= p
                xp *= p
    for y, members in table.items():  # in place: each list is freed for its tuple
        members.sort()
        table[y] = tuple(members)
    return table


def _phi_fibres(bound: Optional[int], config: ToolConfig) -> Callable[[int], tuple[int, ...]]:
    """phi's lookup for `fibres(PHI, bound)`.  top is the bound cut to
    inverse_phi_budget and to what primes_upto serves under sieve_bound;
    targets above it always go to inverse_phi and its budget.  Nothing is
    built until the lookup is called.  Once built, the table holds every x
    with phi(x) <= top, so its memory grows with top and so with those two
    keys: at top = 10^6 (the default inverse_phi_budget) a closure's peak
    RSS was 235 MiB, where per-target calls peaked at 172 MiB."""
    top = 0 if bound is None else min(bound, config.inverse_phi_budget,
                                      config.sieve_bound - 1)
    table: Optional[dict[int, tuple[int, ...]]] = None
    calls = 0

    def of(y: int) -> tuple[int, ...]:
        nonlocal table, calls
        if not 1 <= y <= top:
            return inverse_phi(y, config).members
        if table is None:
            if calls * _TABLE_SWITCH < top:
                calls += 1
                return inverse_phi(y, config).members
            table = _phi_fibre_table(top, config)
        return table.get(y, ())
    return of


class Fibres(NamedTuple):
    """f's fibres under the policy `fibres` chose: of(y) is f^-1(y),
    ascending, complete or cut at search_bound; method says how."""
    of: Callable[[int], Sequence[int]]
    completeness: str
    search_bound: Optional[int]
    method: str


def fibres(f: FunctionId, bound: Optional[int] = None,
           config: ToolConfig = DEFAULT_CONFIG) -> Fibres:
    """The fibre lookup for f: complete where f admits that (phi and the
    expansive families, whatever the bound), else cut at `bound`.

    phi calls inverse_phi per target until its targets y <= top, top the
    bound cut to inverse_phi_budget and sieve_bound, number top / 16;
    then it builds one table of every fibre phi^-1(y), y <= top, and reads
    from it (`_phi_fibres`).  Without a bound it never builds the table.
    Omega, omega and d_l read one fibre table of 1..bound, built here once,
    so a lookup is a dict lookup; a target below 1 is refused, as the
    inverters refuse it.  Without a bound they, and phi_star,
    raise NotFiniteFibre.  A bound below 1 is refused for every f.  Each
    table belongs to the lookup returned; none is kept for the process.
    """
    if bound is not None and bound < 1:
        raise ValueError("bound >= 1")
    if f == PHI:
        return Fibres(_phi_fibres(bound, config), COMPLETE, None,
                      "divisor-driven inverse totient")
    if f.expansive:
        return Fibres(lambda y: _invert(f, y, None, config), COMPLETE, None,
                      "divisor-driven inversion (complete)")
    if bound is None:
        raise NotFiniteFibre(f"{f} admits no complete enumeration without a bound")
    if f.infinite_fibre is None:  # phi_star
        return Fibres(lambda y: _invert(f, y, bound, config), BOUNDED_SEARCH, bound,
                      f"divisor-driven inversion, members <= {bound}")
    table = fibre_table(f, bound, config)

    def of(y: int) -> Sequence[int]:
        if y < 1:
            raise ValueError("m >= 1")
        return table.get(y, ())
    return Fibres(of, BOUNDED_SEARCH, bound, f"bounded scan of 1..{bound}")


def preimage_closure(f: FunctionId, x: int, scan_bound: Optional[int] = None,
                     config: ToolConfig = DEFAULT_CONFIG) -> set[int]:
    """x and all its iterated preimages, with the fibres of
    `fibres(f, scan_bound)`.  A node above scan_bound joins the closure but
    is not expanded.
    """
    if x < 1:
        raise ValueError("x >= 1")
    fibre = fibres(f, scan_bound, config).of
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
