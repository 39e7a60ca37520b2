"""The catalogue of number-theoretic special functions.

Eight families are supported, every one mapping 1 to 1 by convention
(including the prime-counting ones, whose natural value at 1 would be 0):

* Jordan totients J_k (J_1 is Euler's phi),
* generalized Dedekind psi_k (psi_1 is the classical psi),
* the unitary totient phi*,
* Omega (prime factors with multiplicity) and omega (distinct primes),
* ordered-factorization counts d_l (d_2 is the divisor count d),
* power divisor sums sigma_l.

``evaluate`` uses multiplicative closed forms over factored input; the
bulk paths (``value_table``, ``prime_power_values``) use the same closed
forms over prime powers.  The definitional brute-force oracle that checks
them, sharing no code with this module's arithmetic, is a test helper
(``tests/definitional.py``).
"""
from __future__ import annotations

import enum
import operator
from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache
from itertools import compress, count, islice
from math import comb, isqrt
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .config import DEFAULT_CONFIG, ToolConfig
from .factorint import (
    BudgetExceeded, DeferredValue, FactoredNatural, Nat, ONE, OVERFLOW,
    _factored, _merge_exponents, factorize, nat_add, nat_resolve, primes_upto,
)
from .reports import CheckedRecord, Counterexample, VerificationReport


def _tail_times_power(p: int, a: int, k: int, s: int) -> int:
    """J_k (s = -1), psi_k (s = +1): (p^k + s) p^(k(a-1))."""
    return (p ** k + s) * p ** (k * (a - 1))


def _power_tail(p: int, a: int, k: None, s: int) -> int:
    """phi_star (s = -1): p^a + s."""
    return p ** a + s


def _geometric(p: int, a: int, k: int, s: int) -> int:
    """sigma_k (s = +1): 1 + p^k + ... + p^(ka) = (p^(k(a+1)) - 1) / (p^k - 1)."""
    pk = p ** k
    return (pk ** (a + 1) - 1) // (pk - 1)


def _binomial(p: int, a: int, l: int, s: None) -> int:
    """d_l: C(a + l - 1, l - 1), the ordered ways to write p^a as l factors."""
    return comb(a + l - 1, l - 1)


def _exponent(p: int, a: Nat, k: None, s: None) -> Nat:
    """Omega: a."""
    return a


def _one(p: int, a: Nat, k: None, s: None) -> int:
    """omega: 1."""
    return 1


class Family(enum.Enum):
    """A catalogue family, carrying its record: the one home of each fact
    about it.  The value is its name ("jordan").

    * Spelling: str(f) is `prefix`, or `prefix`_k for a parameter k >=
      `least` (None: the family takes none); `short`, (k, name), spells
      that k as name (phi = J_1, psi = psi_1, d = d_2).
    * Closed form: `form`(p, a, k, sign) = f(p^a).  `sign` is the s of the
      tail f(p) = p^t + s of J_k, psi_k, sigma_k (t = k) and phi_star
      (t = 1), and None for the counts d_l, Omega and omega, which are
      constant on the primes (FunctionId.at_prime).
    * Classes: `factored` (evaluate keeps the value a FactoredNatural),
      `additive` (a sum over coprime factors: Omega and omega) and
      `expansive_from` (the least k from which f(n) >= n for every n;
      None: none).  The kind of fibres and the infinite fibre follow from
      the at-prime form (FunctionId.infinite_fibre).
    """
    #                  value       prefix      short        least  form               sign  factored additive expansive_from
    JORDAN =          ("jordan",   "J",        (1, "phi"),  1,     _tail_times_power, -1,   True,    False,   2)
    GENERALIZED_PSI = ("psi",      "psi",      (1, "psi"),  1,     _tail_times_power, 1,    True,    False,   1)
    UNITARY_TOTIENT = ("phi_star", "phi_star", None,        None,  _power_tail,       -1,   True,    False,   None)
    BIG_OMEGA =       ("Omega",    "Omega",    None,        None,  _exponent,         None, False,   True,    None)
    SMALL_OMEGA =     ("omega",    "omega",    None,        None,  _one,              None, False,   True,    None)
    DIVISOR_COUNT =   ("d",        "d",        (2, "d"),    2,     _binomial,         None, False,   False,   None)
    # sigma from l = 1 on purpose: sigma_1 is the classical sum of divisors and
    # the monotone table needs it, even though some statements of the
    # catalogue start at l = 2
    SIGMA =           ("sigma",    "sigma",    None,        1,     _geometric,        1,    False,   False,   1)

    def __new__(cls, value: str, prefix: str, short: Optional[tuple[int, str]],
                least: Optional[int], form: Callable, sign: Optional[int],
                factored: bool, additive: bool, expansive_from: Optional[int]):
        member = object.__new__(cls)
        member._value_ = value
        member.prefix, member.short, member.least, member.form = prefix, short, least, form
        member.sign, member.factored, member.additive = sign, factored, additive
        member.expansive_from = expansive_from
        return member


class _FunctionId(NamedTuple):
    family: Family
    param: Optional[int] = None


class FunctionId(CheckedRecord, _FunctionId):
    # no __slots__ = (): cached_property keeps at_prime in the instance dict

    def _check(self) -> None:
        least = self.family.least
        if least is None:
            if self.param is not None:
                raise ValueError(f"{self.family.value} takes no parameter")
        elif self.param is None or self.param < 1:
            raise ValueError(f"{self.family.value} needs a parameter >= 1")
        elif self.param < least:
            raise ValueError(f"{self.family.prefix}_l needs l >= {least}")

    def __str__(self):
        fam, k = self.family, self.param
        if k is None:
            return fam.prefix
        return fam.short[1] if fam.short and fam.short[0] == k else f"{fam.prefix}_{k}"

    @cached_property  # the inverter reads it on every call
    def at_prime(self) -> tuple[int, int]:
        """(t, s) with f(p) = p^t + s at every prime p; t = 0 for the counts."""
        fam, k = self.family, self.param
        if fam.sign is None:
            return 0, fam.form(2, 1, k, None) - 1
        return (1 if k is None else k), fam.sign

    @property
    def infinite_fibre(self) -> Optional[int]:
        """The one target whose fibre holds every prime, for f constant on
        the primes; None where every fibre is finite."""
        t, s = self.at_prime
        return 1 + s if t == 0 else None

    @property
    def expansive(self) -> bool:
        """f(n) >= n for every n, so every fibre f^-1(m) lies in 1..m."""
        least = self.family.expansive_from
        return least is not None and self.param >= least


def jordan(k: int) -> FunctionId:
    return FunctionId(Family.JORDAN, k)


def generalized_psi(k: int) -> FunctionId:
    return FunctionId(Family.GENERALIZED_PSI, k)


def divisor_count(l: int) -> FunctionId:
    return FunctionId(Family.DIVISOR_COUNT, l)


def sigma(l: int) -> FunctionId:
    return FunctionId(Family.SIGMA, l)


PHI = jordan(1)
PSI = generalized_psi(1)
PHI_STAR = FunctionId(Family.UNITARY_TOTIENT)
BIG_OMEGA = FunctionId(Family.BIG_OMEGA)
SMALL_OMEGA = FunctionId(Family.SMALL_OMEGA)
D = divisor_count(2)
J2 = jordan(2)
SIGMA1 = sigma(1)


# the most digits a parameter may have: 640 is the least limit Python's
# int-string conversion can be set to, so int() and str() never refuse it
_PARAM_DIGITS = 640


def parse_function(text: str) -> FunctionId:
    """Parse str(f) for every catalogue f (phi, psi, phi_star, Omega, omega,
    d, J_k, psi_k, d_l, sigma_l), and J_1, psi_1 and d_2: the name of a
    family that takes no parameter, a short name, or a prefix, "_" and the
    parameter in at most 640 ASCII digits without a leading zero.  Any
    other spelling is refused."""
    head, sep, tail = text.partition("_")
    for fam in Family:
        if fam.least is None:
            if text == fam.prefix:
                return FunctionId(fam)
        elif fam.short is not None and text == fam.short[1]:
            return FunctionId(fam, fam.short[0])
        elif (head == fam.prefix and sep and tail.isascii() and tail.isdigit()
              and len(tail) <= _PARAM_DIGITS and str(int(tail)) == tail):
            return FunctionId(fam, int(tail))
    raise ValueError(f"unknown function id {text!r}")


Value = Union[FactoredNatural, int, DeferredValue]


@lru_cache(maxsize=1024)
def _tail_factors(tail: int) -> tuple[tuple[int, Nat], ...]:
    """The factorization of a tail p^k -+ 1 (J_k, psi_k) or p^e - 1
    (phi_star), memoised on the tail alone (factorize reads no budget): the
    iterates of an orbit share a few primes, so the same tails come back at
    every step."""
    return factorize(tail).explicit


def evaluate(f: FunctionId, n: Union[int, FactoredNatural],
             config: ToolConfig = DEFAULT_CONFIG) -> Value:
    """Exact value of f at n via its record's closed form (Family.form).

    The factored families (J_k, psi_k, phi_star) return a FactoredNatural;
    Omega/omega/d_l/sigma_l return a plain natural (possibly a DeferredValue
    when the input carries symbolic exponents).  Interval factors are only
    understood by Omega and omega.

    The two tail forms are read in factored shape: J_k and psi_k give
    p^(k(e-1)) and the factors of p^k + s, phi_star those of p^e + s.  The
    input's own exponents and the cached factorisations of its tails go
    into factorint's one merge (_merge_exponents), so the value is never
    re-checked by FactoredNatural.__init__.  A tail p^k + s of more than
    128 bits is refused with factorize's message before it is computed,
    so a huge k costs nothing.
    """
    if isinstance(n, int):
        n = factorize(n, config)
    fam, k = f.family, f.param
    if not n.explicit and not n.intervals:
        return ONE if fam.factored else 1
    form = fam.form

    if form is _exponent or form is _one:
        # one count per explicit prime (its exponent for Omega), then
        # hi - lo + 1 per interval of consecutive primes
        counts = [e for _, e in n.explicit] if form is _exponent else [1] * len(n.explicit)
        counts += [nat_add(hi, 1 - lo) for lo, hi in n.intervals]
        total: Nat = 0
        for count in counts:
            if isinstance(count, DeferredValue):
                if not isinstance(total, int):
                    raise BudgetExceeded("cannot add two symbolic counts")
                total = count.shift(total)
            else:
                total = nat_add(total, count)
        return total

    if n.intervals:
        raise ValueError(f"{f} does not evaluate on interval factors")

    if form is _tail_times_power:  # J_k, psi_k: (p^k + s) p^(k(e-1))
        sign = fam.sign
        parts: list[tuple[int, Nat]] = []
        for p, e in n.explicit:
            if isinstance(e, int):
                if e > 1:
                    parts.append((p, k * (e - 1)))
            elif k == 1:  # a deferred exponent scales by k = 1 only
                parts.append((p, e.shift(-1)))
            else:
                raise BudgetExceeded(f"cannot scale symbolic exponent {e!r} by {k}")
            if k * (p.bit_length() - 1) > 128:  # p^k + s >= 2^129 - 1
                raise ValueError("factorize handles inputs up to 128 bits")
            parts.extend(_tail_factors(pow(p, k) + sign))
        # only the input's own exponents can be deferred, and each one is
        # kept, so the value is plain exactly when n is
        return _factored(_merge_exponents(parts, n.is_plain), n.is_plain)

    if form is _power_tail:  # phi_star: p^e + s
        sign = fam.sign
        parts = []
        for p, e in n.explicit:
            if not isinstance(e, int):
                raise BudgetExceeded("phi_star needs explicit exponents")
            if e * p.bit_length() > 140:
                raise BudgetExceeded(f"phi_star factor {p}^{e}-1 too large to factor")
            parts.extend(_tail_factors(pow(p, e) + sign))
        return _factored(_merge_exponents(parts, True))

    if form is _binomial:
        deferred = [e for _, e in n.explicit if isinstance(e, DeferredValue)]
        if deferred:
            if k == 2 and len(n.explicit) == 1:
                return deferred[0].shift(1)  # C(e+1, 1) = e + 1
            raise BudgetExceeded("symbolic exponents support d_2 on prime powers only")
        return scalar_value(f, n.explicit)

    # sigma_l
    for p, e in n.explicit:
        if not isinstance(e, int):
            raise BudgetExceeded("sigma_l needs explicit exponents")
        if k * (e + 1) * p.bit_length() > config.bit_budget:
            raise BudgetExceeded(f"sigma_{k}({n!r}) exceeds the bit budget (bit_budget)")
    return scalar_value(f, n.explicit)


def forward_orbit(f: FunctionId, x: Union[int, FactoredNatural],
                  config: ToolConfig = DEFAULT_CONFIG) -> Iterator[Value]:
    """The iterates f(x), f(f(x)), ... in the form evaluate returns them.

    Each iterate is fed back as it came: the factored families (J_k, psi_k,
    phi_star) stay factored, so a step factorises only the small tails
    p^k -+ 1 and never an iterate; an int iterate (Omega, omega, d_l,
    sigma_l) is factorised once, when the iterate after it is asked for.
    """
    while True:
        x = evaluate(f, x, config)
        yield x


def orbit_values(f: FunctionId, x: int,
                 config: ToolConfig = DEFAULT_CONFIG) -> Iterator[int]:
    """forward_orbit as plain integers (nat_resolve on each iterate); an
    iterate past the bit budget is refused (BudgetExceeded).  The refusal
    names the previous iterate in factored form, as its digits may be too
    many to print."""
    prev: Union[int, FactoredNatural] = x
    for y in forward_orbit(f, x, config):
        v = nat_resolve(y, config)
        if v is OVERFLOW:
            raise BudgetExceeded(f"{f}({prev!r}) exceeds the bit budget (bit_budget)")
        yield v
        prev = y


# ---------------------------------------------------------------------------
# fast scalar path for bulk sweeps


def scalar_value(f: FunctionId, pps: list[tuple[int, int]]) -> int:
    """f over a small prime-power decomposition, plain ints only: the
    product of the closed form (Family.form) at each prime power, or
    their sum for the additive Omega and omega."""
    if not pps:
        return 1
    fam, k = f.family, f.param
    form, sign = fam.form, fam.sign
    if fam.additive:
        return sum([form(p, a, k, sign) for p, a in pps])
    out = 1
    for p, a in pps:
        out *= form(p, a, k, sign)
    return out


def value_table(f: FunctionId, bound: int,
                config: ToolConfig = DEFAULT_CONFIG) -> list[int]:
    """[0, f(1), f(2), ..., f(bound)]: one slice pass over the odd
    multiples of each odd prime power, then one slice per power of 2.

    The table starts at the empty product (1, or 0 for the additive Omega
    and omega) and takes the prime powers q = p^a <= bound from
    prime_power_values, ascending in a for each p.  The pass for an odd q
    updates the odd multiples of q, table[q::2q]: times f(p^a) /
    f(p^(a-1)), or plus f(p^a) - f(p^(a-1)) for Omega and omega.  Even
    entries are not touched until every odd one is final.

    Lemma (exactness).  At any moment an odd entry m holds the product,
    over the primes r dividing m, of f(r^c) for the largest r^c dividing m
    whose pass has run (f(r^0) = 1).  Before the pass for q = p^a the
    passes for p, ..., p^(a-1) have run, so every odd multiple of q holds
    f(p^(a-1)) times the other primes' part.  Every multiplicative
    catalogue f is >= 1 at a prime power (J_k(p^a) = (p^k - 1)
    p^(k(a-1)), psi_k(p^a), sigma_l(p^a) >= 3, phi*(p^a) = p^a - 1,
    d_l(p^a) >= 2), so t // f(p^(a-1)) * f(p^a) is exact and keeps the
    invariant; once every odd pass has run, each odd entry m is f(m) (the
    empty product at m = 1).  The additive case is the same with sums.
    The entry at q itself is touched only by the passes of p, so it reads
    f(p^(a-1)) (the empty product at a = 1) just before its own pass, and
    that is the divisor.  An even n is 2^a m with m odd, so f(n) = f(2^a)
    f(m) (or the sum) is read off the final odd prefix: the slice for 2^a,
    table[2^a::2^(a+1)], takes table[1:bound // 2^a + 1:2], the odd m <=
    bound / 2^a, each times f(2^a) (a plain copy when f(2^a) = 1, as for
    phi), and every even n lies in exactly one such slice.  Index 1 is set
    to 1, the catalogue's convention, only after these slices.

    Shortcuts: an odd q above bound // 3 has no odd multiple but itself
    and gets f(q) directly; a factor 1 or an addend 0 is skipped; a whole
    factor f(p^a) / f(p^(a-1)) multiplies without the division.

    A negative bound is refused (ValueError); bound 0 gives [0].
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    additive = f.family.additive
    table = [0 if additive else 1] * (bound + 1)
    if bound >= 1:
        third = bound // 3
        twos = []
        for q, v in prime_power_values(f, bound, config):
            if not q & 1:
                twos.append((q, v))
                continue
            before = table[q]
            if q > third:
                table[q] = v
            elif additive:
                if v != before:
                    step = v - before
                    table[q::2 * q] = [t + step for t in table[q::2 * q]]
            elif v % before == 0:
                if v != before:
                    step = v // before
                    table[q::2 * q] = [t * step for t in table[q::2 * q]]
            else:
                table[q::2 * q] = [t // before * v for t in table[q::2 * q]]
        for q, v in twos:
            odd = table[1:bound // q + 1:2]
            if additive:
                odd = [t + v for t in odd]
            elif v != 1:
                odd = [t * v for t in odd]
            table[q::2 * q] = odd
        table[1] = 1
    table[0] = 0
    return table


# ---------------------------------------------------------------------------
# identity and monotonicity sweeps


def _primes_upto(bound: int, config: ToolConfig) -> Sequence[int]:
    """primes_upto(bound), with a bound below 1 refused (ValueError): every
    pointwise check would otherwise PASS vacuously."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    return primes_upto(bound, config)


def _at_primes(f: FunctionId, primes: Sequence[int]) -> list[int]:
    """[f(p) for p in primes], each the one term p^t + s (FunctionId.at_prime)."""
    t, s = f.at_prime
    return [p ** t + s for p in primes] if t else [1 + s] * len(primes)


def _higher_powers(f: FunctionId, bound: int, roots: Sequence[int]) -> list[tuple[int, int]]:
    """(q, f(q)) for q = p^a <= bound with a >= 2, p by p in the order of
    `roots` and ascending in a, each by one call of the closed form
    (Family.form)."""
    form, k, sign = f.family.form, f.param, f.family.sign
    rows = []
    for p in roots:
        q, a = p * p, 2
        while q <= bound:
            rows.append((q, form(p, a, k, sign)))
            q *= p
            a += 1
    return rows


def prime_power_values(f: FunctionId, bound: int,
                       config: ToolConfig = DEFAULT_CONFIG) -> Iterator[tuple[int, int]]:
    """(q, f(q)) for every prime power 2 <= q <= bound, prime by prime in
    ascending order, each prime p followed by its powers p^2, p^3, ...
    <= bound (so not in order of q): the passes of value_table.

    At a prime every family is one term, f(p) = p^t + s
    (FunctionId.at_prime), evaluated in one pass over primes_upto(bound):
    J_k(p) = p^k - 1, psi_k(p) = sigma_k(p) = p^k + 1, phi_star(p) = p - 1,
    and the constant d_l(p) = l and Omega(p) = omega(p) = 1.  Only the
    higher powers, whose primes are <= sqrt(bound), call the closed form
    (Family.form), one call each.

    The pointwise hypotheses below (f against the identity, psi_k * J_k =
    J_2k) are decided on the prime powers alone.  Write n >= 2 as a product
    of coprime prime powers n = q_1 ... q_r:

    * multiplicative f (every family but Omega and omega): f(n) =
      f(q_1) ... f(q_r) with every factor positive, so each of f(n) <= n,
      < n, >= n and > n holds at n when it holds at every q_i, and so does
      an identity between multiplicative functions;
    * additive f (Omega, omega): f(n) = f(q_1) + ... + f(q_r), and
      q_1 + ... + q_r <= q_1 ... q_r, so f(n) <= n and f(n) < n hold at n
      when they hold at every q_i; f(2) = 1, so f(n) >= n and f(n) > n
      already fail at n = 2.

    Either way an n where the hypothesis fails has a failing prime power
    q_i <= n (for the additive >= and >, the prime power 2), so the least
    failure in 2..bound is the least failing prime power.  Composite n are
    never evaluated.  least_violations and identity_check_psi_jordan read
    the primes from their at-prime values alone and evaluate only the
    higher powers.

    A bound below 1 is refused (ValueError).
    """
    primes = _primes_upto(bound, config)
    rows = zip(primes, _at_primes(f, primes))
    for p, v in islice(rows, bisect_right(primes, isqrt(bound))):
        yield p, v
        yield from _higher_powers(f, bound, (p,))
    yield from rows


def least_violations(f: FunctionId, bound: int,
                     violated: tuple[Callable[[int, int], bool], ...],
                     config: ToolConfig = DEFAULT_CONFIG) -> list[Optional[tuple[int, int]]]:
    """For each predicate in `violated`, one of operator.lt, le, gt and ge
    read as violated(f(n), n), the least n in 2..bound it holds at, as
    (n, f(n)), or None.  The least such n is a prime power (see
    prime_power_values): the least of the least prime and the least higher
    power p^a (a >= 2, p <= sqrt(bound)) it holds at.  The higher powers
    are evaluated once and searched without a Python loop; the primes are
    decided in closed form, by a bisection over primes_upto(bound).

    Lemma (monotone at-prime difference).  At a prime f(p) = p^t + s
    (FunctionId.at_prime), so g(p) = f(p) - p = p^t - p + s is, over p >=
    2: 1 + s - p for t = 0, strictly decreasing; the constant s for t = 1;
    s + p (p^(t-1) - 1) for t >= 2, strictly increasing.  Each predicate
    is g(p) < 0, <= 0, > 0 or >= 0, a threshold on a monotone g, so the
    primes it holds at are a prefix or a suffix of the ascending primes,
    and two evaluations and a bisection find the least of them.

    A bound below 1 is refused (ValueError)."""
    primes = _primes_upto(bound, config)
    powers = _higher_powers(f, bound, primes[:bisect_right(primes, isqrt(bound))])
    qs = [q for q, _ in powers]
    values = [v for _, v in powers]
    t, s = f.at_prime
    out = []
    for holds in violated:
        least = min(compress(powers, map(holds, values, qs)), default=None)
        p = _least_of_prefix_or_suffix(primes, lambda p: holds(p ** t + s, p))
        if p is not None and (least is None or p < least[0]):
            least = p, p ** t + s
        out.append(least)
    return out


def _least_of_prefix_or_suffix(primes: Sequence[int],
                               holds_at: Callable[[int], bool]) -> Optional[int]:
    """The least p in `primes` with holds_at(p), or None, where those p are
    a prefix or a suffix of `primes`: the first prime, if it holds there;
    else none, if it fails at the last; else the suffix's first prime, by
    bisection."""
    if primes and holds_at(primes[0]):
        return primes[0]
    if not primes or not holds_at(primes[-1]):
        return None
    return primes[bisect_left(primes, True, 1, len(primes) - 1, key=holds_at)]


# the relation a pointwise hypothesis asks of f(n) against n, and the
# predicate violated(f(n), n) that least_violations reads as its failure
_VIOLATED = {"<": operator.ge, "<=": operator.gt, ">=": operator.lt, ">": operator.le}

# the suffix of a conclusion that holds only as far as its hypothesis was
# checked, up to {bound}
CONDITIONAL = "(conditional: hypothesis verified up to {bound} only)"

# lemma id -> (relation: the hypothesis f(n) <relation> n for 1 < n <=
# bound; the conclusion it gives, a template over {f} and {bound}; whether
# f must be expansive).  Above each row, why the hypothesis gives it.
POINTWISE_LEMMAS: dict[str, tuple[str, str, bool]] = {
    # the orbit of x stays inside 1..x, so no orbit is infinite
    "monotone-o-zero": ("<=", "o({f}) = 0 " + CONDITIONAL, False),
    # every backward chain from x stays inside 1..x, so no anti-orbit is infinite
    "monotone-a-zero": (">=", "a({f}) = 0 " + CONDITIONAL, False),
    # the orbit of 2 strictly increases, so it is infinite
    "strict-o-positive": (">", "o({f}) > 0 " + CONDITIONAL, False),
    # by induction on k: the orbit of k enters the orbit of f(k) < k, which reaches 1
    "connected-forward": ("<", "1 in V(k, taubar_{f}) for all k <= {bound}; "
                               "(N, taubar_{f}) and (N, tau_{f}) connected " + CONDITIONAL,
                          False),
    # f(n) >= n >= 2 for every n > 1, so no n > 1 maps to 1
    "separation": (">=", "{{1}}, N\\{{1}} separates (N, taubar_{f}) and (N, tau_{f}) "
                         + CONDITIONAL, False),
    # an iterate x <= k has f(x) <= x <= k, so every iterate of k stays in 1..k
    "taubar-subset": ("<=", "V(k, taubar_{f}) within {{1..k}} for all k <= {bound}", False),
    # a preimage x of y <= k has x <= f(x) = y <= k; that needs f(x) >= x
    # above the bound too, which only an expansive family guarantees
    "tau-subset": (">=", "V(k, tau_{f}) within {{1..k}} for all k <= {bound}", True),
}


def pointwise_lemma(lemma: str, f: FunctionId, bound: int,
                    config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """The lemma `lemma` of POINTWISE_LEMMAS for f, reported as "<lemma>
    <f>": its hypothesis f(n) <relation> n checked for 1 < n <= bound,
    decided on the prime powers <= bound (least_violations); FAIL at the
    least n where it fails, else PASS with the row's conclusion.  f(1) = 1
    holds by the catalogue's convention: the empty factorisation has
    scalar value 1.  A row that needs an expansive f refuses any other f
    (ValueError), and a bound below 1 is refused."""
    relation, conclusion, expansive = POINTWISE_LEMMAS[lemma]
    if expansive and not f.expansive:
        raise ValueError(f"{lemma} check needs an expansive f, not {f}")
    (failure,) = least_violations(f, bound, (_VIOLATED[relation],), config)
    lemma_id = f"{lemma} {f}"
    if failure is None:
        return VerificationReport(
            lemma_id=lemma_id, families_checked=1, depth=bound, status="PASS",
            certified_bound=conclusion.format(f=f, bound=bound))
    n, value = failure
    return VerificationReport(
        lemma_id=lemma_id, families_checked=1, depth=bound, status="FAIL",
        counterexample=Counterexample(
            None, n, f"{relation} {n}", value,
            detail=f"hypothesis f(n) {relation} n fails at n = {n}"))


def identity_check_psi_jordan(k: int, n_max: int,
                              config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Check psi_k(n) * J_k(n) == J_2k(n) for 1 <= n <= n_max.  All three
    are multiplicative and agree at 1, so the prime powers decide it (see
    prime_power_values) and the least failure is a prime power."""
    if k < 1:
        raise ValueError("k >= 1")
    fs = generalized_psi(k), jordan(k), jordan(2 * k)
    primes = _primes_upto(n_max, config)
    # the primes: C-level passes over the at-prime values, up to the first
    # mismatch; then the higher powers
    psi_p, j_p, j_2k_p = (_at_primes(g, primes) for g in fs)
    i = next(compress(count(), map(operator.ne, map(operator.mul, psi_p, j_p), j_2k_p)), None)
    failures = [] if i is None else [(primes[i], j_2k_p[i], psi_p[i] * j_p[i])]
    roots = primes[:bisect_right(primes, isqrt(n_max))]
    failures += [(q, j_2k, psi_k * j_k) for (q, psi_k), (_, j_k), (_, j_2k)
                 in zip(*(_higher_powers(g, n_max, roots) for g in fs)) if psi_k * j_k != j_2k]
    failure = min(failures, default=None)
    if failure is not None:
        n, rhs, lhs = failure
        return VerificationReport(
            lemma_id=f"psi-jordan-identity k={k}",
            families_checked=1, depth=n_max, status="FAIL",
            counterexample=Counterexample(None, n, rhs, lhs))
    return VerificationReport(
        lemma_id=f"psi-jordan-identity k={k}",
        families_checked=1, depth=n_max, status="PASS",
        certified_bound=f"psi_{k}*J_{k} = J_{2 * k} verified for n <= {n_max}")


class MonotoneProfile(NamedTuple):
    """Pointwise comparison of f against the identity on 1..bound."""
    function: FunctionId
    bound: int
    le_violation: Optional[int]      # least n with f(n) > n
    ge_violation: Optional[int]      # least n with f(n) < n
    strict_violation: Optional[int]  # least n > 1 with f(n) <= n


def monotone_profile(f: FunctionId, bound: int,
                     config: ToolConfig = DEFAULT_CONFIG) -> MonotoneProfile:
    """The three least violations, decided on the prime powers <= bound."""
    least = least_violations(f, bound, (operator.gt, operator.lt, operator.le), config)
    return MonotoneProfile(f, bound, *(None if v is None else v[0] for v in least))


# the functions of the monotone sweep, by the spelling their check names
# show; each is checked for "f(n) > n above 1" if expansive, else for
# "f(n) <= n"
_MONOTONE_CHECKS = ("phi", "phi_star", "Omega", "omega", "d", "psi", "J_2", "sigma_1",
                    "psi_1", "J_3", "sigma_2", "psi_2", "J_4", "sigma_3", "psi_3", "J_5")


def catalogue_monotone_sweep(bound: int,
                             config: ToolConfig = DEFAULT_CONFIG) -> dict[str, Optional[int]]:
    """Every monotonicity hypothesis the lemmas need, each decided for every
    n <= bound on the prime powers <= bound (see prime_power_values).
    Returns {check name: least violating n or None}.

    Checks: phi/phi_star/Omega/omega/d weakly below n; psi/J_2 and
    sigma_k/psi_k/J_{k+2} (k <= 3) strictly above n for n >= 2.
    """
    # each distinct function is checked once ("psi > n" and "psi_1 > n"
    # share one)
    found: dict[FunctionId, Optional[int]] = {}
    out: dict[str, Optional[int]] = {}
    for name in _MONOTONE_CHECKS:
        f = parse_function(name)
        if f not in found:
            (least,) = least_violations(f, bound, (operator.le if f.expansive else operator.gt,),
                                        config)
            found[f] = None if least is None else least[0]
        out[f"{name} {'>' if f.expansive else '<='} n"] = found[f]
    return out
