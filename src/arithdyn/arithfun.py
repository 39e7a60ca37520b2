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
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice
from math import comb, isqrt
from typing import Callable, Iterator, Optional, Union

from .config import DEFAULT_CONFIG, ToolConfig
from .factorint import (
    BudgetExceeded, DeferredValue, FactoredNatural, Nat, ONE, OVERFLOW,
    _factored, factorize, nat_add, nat_resolve, primes_upto,
)
from .reports import Counterexample, VerificationReport


class Family(enum.Enum):
    JORDAN = "jordan"
    GENERALIZED_PSI = "psi"
    UNITARY_TOTIENT = "phi_star"
    BIG_OMEGA = "Omega"
    SMALL_OMEGA = "omega"
    DIVISOR_COUNT = "d"
    SIGMA = "sigma"


_PARAMETRIC = {Family.JORDAN, Family.GENERALIZED_PSI, Family.DIVISOR_COUNT, Family.SIGMA}
# Families whose values are naturally another factored natural.
MULTIPLICATIVE_VALUE = {Family.JORDAN, Family.GENERALIZED_PSI, Family.UNITARY_TOTIENT}

# The members bound once for the per-call paths (evaluate, scalar_value):
# on CPython 3.11 a Family.X read costs about 110 ns and an enum hash, as in
# `in MULTIPLICATIVE_VALUE`, about 90 ns.
_JORDAN, _GENERALIZED_PSI, _UNITARY_TOTIENT = (
    Family.JORDAN, Family.GENERALIZED_PSI, Family.UNITARY_TOTIENT)
_BIG_OMEGA, _SMALL_OMEGA, _DIVISOR_COUNT = (
    Family.BIG_OMEGA, Family.SMALL_OMEGA, Family.DIVISOR_COUNT)


@dataclass(frozen=True)
class FunctionId:
    family: Family
    param: Optional[int] = None

    def __post_init__(self):
        if self.family in _PARAMETRIC:
            if self.param is None or self.param < 1:
                raise ValueError(f"{self.family.value} needs a parameter >= 1")
            if self.family is Family.DIVISOR_COUNT and self.param < 2:
                raise ValueError("d_l needs l >= 2")
        elif self.param is not None:
            raise ValueError(f"{self.family.value} takes no parameter")

    def __str__(self):
        f, k = self.family, self.param
        if f is Family.JORDAN:
            return "phi" if k == 1 else f"J_{k}"
        if f is Family.GENERALIZED_PSI:
            return "psi" if k == 1 else f"psi_{k}"
        if f is Family.UNITARY_TOTIENT:
            return "phi_star"
        if f is Family.BIG_OMEGA:
            return "Omega"
        if f is Family.SMALL_OMEGA:
            return "omega"
        if f is Family.DIVISOR_COUNT:
            return "d" if k == 2 else f"d_{k}"
        return f"sigma_{k}"


def jordan(k: int) -> FunctionId:
    return FunctionId(Family.JORDAN, k)


def generalized_psi(k: int) -> FunctionId:
    return FunctionId(Family.GENERALIZED_PSI, k)


def divisor_count(l: int) -> FunctionId:
    return FunctionId(Family.DIVISOR_COUNT, l)


def sigma(l: int) -> FunctionId:
    # l >= 1 on purpose: sigma_1 is the classical sum of divisors and the
    # monotone table needs it, even though some statements of the
    # catalogue start at l = 2
    return FunctionId(Family.SIGMA, l)


PHI = jordan(1)
PSI = generalized_psi(1)
PHI_STAR = FunctionId(Family.UNITARY_TOTIENT)
BIG_OMEGA = FunctionId(Family.BIG_OMEGA)
SMALL_OMEGA = FunctionId(Family.SMALL_OMEGA)
D = divisor_count(2)
J2 = jordan(2)
SIGMA1 = sigma(1)


def parse_function(text: str) -> FunctionId:
    """Parse str(f) for every catalogue f (phi, psi, phi_star, Omega, omega,
    d, J_k, psi_k, d_l, sigma_l), and J_1, psi_1 and d_2."""
    t = text.strip()
    plain = {"phi": PHI, "psi": PSI, "d": D, "phi_star": PHI_STAR,
             "Omega": BIG_OMEGA, "omega": SMALL_OMEGA}
    if t in plain:
        return plain[t]
    for prefix, builder in (("J", jordan), ("psi", generalized_psi),
                            ("d", divisor_count), ("sigma", sigma)):
        head, sep, tail = t.partition("_")
        if head == prefix and sep and tail.isdigit():
            return builder(int(tail))
    raise ValueError(f"unknown function id {text!r}")


Value = Union[FactoredNatural, int, DeferredValue]


def _nat_scale(e: Nat, k: int, minus: int) -> Nat:
    """k*e - minus, defined for int e always and deferred e only when k == 1."""
    if isinstance(e, int):
        return k * e - minus
    if k == 1:
        return e.shift(-minus)
    raise BudgetExceeded(f"cannot scale symbolic exponent {e!r} by {k}")


@lru_cache(maxsize=1024)
def _tail_factors(tail: int) -> tuple[tuple[int, Nat], ...]:
    """The factorization of a tail p^k -+ 1 (J_k, psi_k) or p^e - 1
    (phi_star), memoised on the tail alone (factorize reads no budget): the
    iterates of an orbit share a few primes, so the same tails come back at
    every step."""
    return factorize(tail).explicit


def _merge(parts: list[tuple[int, Nat]], plain: bool) -> FactoredNatural:
    """The product of the prime powers in `parts`, each prime certified and
    each exponent an int >= 1 or a DeferredValue (`plain`: none is):
    exponents of one prime are added in one dict, sorted once and handed
    to _factored.  A DeferredValue meeting any other exponent of its prime
    is refused, as FactoredNatural refuses it."""
    exps: dict[int, Nat] = {}
    for q, a in parts:
        old = exps.get(q)
        if old is None:
            exps[q] = a
        elif plain or not (isinstance(old, DeferredValue) or isinstance(a, DeferredValue)):
            exps[q] = old + a
        else:
            raise ValueError("cannot merge deferred exponents")
    return _factored(tuple(sorted(exps.items())), plain)


def evaluate(f: FunctionId, n: Union[int, FactoredNatural],
             config: ToolConfig = DEFAULT_CONFIG) -> Value:
    """Exact value of f at n via multiplicative closed forms.

    Multiplicative families return a FactoredNatural; Omega/omega/d_l/sigma_l
    return a plain natural (possibly a DeferredValue when the input carries
    symbolic exponents).  Interval factors are only understood by Omega and
    omega.

    The multiplicative branches (J_k, psi_k, phi_star) merge once: the
    input's own exponents and the cached factorisations of its tails go
    into one dict, sorted once into the normal form (_merge), so the value
    is never re-checked or re-sorted by FactoredNatural.__init__.
    """
    if isinstance(n, int):
        n = factorize(n, config)
    fam, k = f.family, f.param
    if not n.explicit and not n.intervals:
        return ONE if fam is _JORDAN or fam is _GENERALIZED_PSI or fam is _UNITARY_TOTIENT else 1

    if fam is _BIG_OMEGA or fam is _SMALL_OMEGA:
        # one count per explicit prime (its exponent for Omega), then
        # hi - lo + 1 per interval of consecutive primes
        counts = [e for _, e in n.explicit] if fam is _BIG_OMEGA else [1] * len(n.explicit)
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

    if fam is _JORDAN or fam is _GENERALIZED_PSI:
        sign = -1 if fam is _JORDAN else 1
        parts: list[tuple[int, Nat]] = []
        for p, e in n.explicit:
            if isinstance(e, int):
                if e > 1:
                    parts.append((p, k * (e - 1)))
            else:
                parts.append((p, _nat_scale(e, k, k)))  # k*(e-1)
            parts.extend(_tail_factors(pow(p, k) + sign))  # J_k: p^k - 1, psi_k: p^k + 1
        # only the input's own exponents can be deferred, and each one is
        # kept, so the value is plain exactly when n is
        return _merge(parts, n.is_plain)

    if fam is _UNITARY_TOTIENT:
        parts = []
        for p, e in n.explicit:
            if not isinstance(e, int):
                raise BudgetExceeded("phi_star needs explicit exponents")
            if e * p.bit_length() > 140:
                raise BudgetExceeded(f"phi_star factor {p}^{e}-1 too large to factor")
            parts.extend(_tail_factors(pow(p, e) - 1))
        return _merge(parts, True)

    if fam is _DIVISOR_COUNT:
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


def evaluate_int(f: FunctionId, n: Union[int, FactoredNatural],
                 config: ToolConfig = DEFAULT_CONFIG) -> int:
    """evaluate() forced to a plain integer (raises past the bit budget)."""
    r = nat_resolve(evaluate(f, n, config), config)
    if r is OVERFLOW:
        raise BudgetExceeded(f"{f}({n!r}) exceeds the bit budget (bit_budget)")
    return r


def forward_orbit(f: FunctionId, x: Union[int, FactoredNatural],
                  config: ToolConfig = DEFAULT_CONFIG) -> Iterator[Value]:
    """The iterates f(x), f(f(x)), ... in the form evaluate returns them.

    Each iterate is fed back as it came: the MULTIPLICATIVE_VALUE families
    stay factored, so a step factorises only the small tails p^k -+ 1 and
    never an iterate; an int iterate (Omega, omega, d_l, sigma_l) is
    factorised once, when the iterate after it is asked for.
    """
    while True:
        x = evaluate(f, x, config)
        yield x


def orbit_values(f: FunctionId, x: int,
                 config: ToolConfig = DEFAULT_CONFIG) -> Iterator[int]:
    """forward_orbit as plain integers (nat_resolve on each iterate); an
    iterate past the bit budget is refused (BudgetExceeded), as evaluate_int
    refuses it.  The refusal names the previous iterate in factored form, as
    its digits may be too many to print."""
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
    """f over a small prime-power decomposition, plain ints only."""
    if not pps:
        return 1
    fam, k = f.family, f.param
    out = 1
    if fam is _JORDAN:
        for p, a in pps:
            pk = pow(p, k)
            out *= (pk - 1) * pk ** (a - 1)
    elif fam is _GENERALIZED_PSI:
        for p, a in pps:
            pk = pow(p, k)
            out *= (pk + 1) * pk ** (a - 1)
    elif fam is _UNITARY_TOTIENT:
        for p, a in pps:
            out *= pow(p, a) - 1
    elif fam is _BIG_OMEGA:
        out = sum(a for _, a in pps)
    elif fam is _SMALL_OMEGA:
        out = len(pps)
    elif fam is _DIVISOR_COUNT:
        for _, a in pps:
            out *= comb(a + k - 1, k - 1)
    else:
        for p, a in pps:
            pk = pow(p, k)
            out *= (pow(pk, a + 1) - 1) // (pk - 1)
    return out


def value_table(f: FunctionId, bound: int,
                config: ToolConfig = DEFAULT_CONFIG) -> list[int]:
    """[0, f(1), f(2), ..., f(bound)], one slice pass per prime power.

    The table starts at the empty product (1, or 0 for the additive Omega
    and omega) and takes the prime powers q = p^a <= bound from
    prime_power_values, ascending in a for each p.  The pass for q updates
    every multiple of q, table[q::q]: times f(p^a) / f(p^(a-1)), or plus
    f(p^a) - f(p^(a-1)) for Omega and omega.

    Lemma (exactness).  At any moment an entry m holds the product, over
    the primes r dividing m, of f(r^c) for the largest r^c dividing m whose
    pass has run (f(r^0) = 1).  Before the pass for q = p^a the passes for
    p, ..., p^(a-1) have run, so every multiple of q holds f(p^(a-1)) times
    the other primes' part.  Every multiplicative catalogue f is >= 1 at a
    prime power (J_k(p^a) = (p^k - 1) p^(k(a-1)), psi_k(p^a), sigma_l(p^a)
    >= 3, phi*(p^a) = p^a - 1, d_l(p^a) >= 2), so t // f(p^(a-1)) *
    f(p^a) is exact and keeps the invariant; once every pass has run, the
    entry is f(m).  The additive case is the same with sums.  The entry at
    q itself is touched only by the passes of p, so it reads f(p^(a-1))
    (the empty product at a = 1) just before its own pass, and that is the
    divisor.

    Shortcuts: a q above bound // 2 has no multiple but itself and gets
    f(q) directly; a factor 1 or an addend 0 is skipped; a whole factor
    f(p^a) / f(p^(a-1)) multiplies without the division.  prime_power_values
    gives each p just before its powers, so their passes run while most
    entries are still small cached ints; run after every prime, the pass
    for 4 alone would allocate a new int for a quarter of the table.

    A negative bound is refused (ValueError); bound 0 gives [0].
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    additive = f.family in (Family.BIG_OMEGA, Family.SMALL_OMEGA)
    table = [0 if additive else 1] * (bound + 1)
    if bound >= 1:
        half = bound // 2
        for q, v in prime_power_values(f, bound, config):
            before = table[q]
            if q > half:
                table[q] = v
            elif additive:
                if v != before:
                    step = v - before
                    table[q::q] = [t + step for t in table[q::q]]
            elif v % before == 0:
                if v != before:
                    step = v // before
                    table[q::q] = [t * step for t in table[q::q]]
            else:
                table[q::q] = [t // before * v for t in table[q::q]]
        table[1] = 1
    table[0] = 0
    return table


# ---------------------------------------------------------------------------
# identity and monotonicity sweeps


def prime_power_values(f: FunctionId, bound: int,
                       config: ToolConfig = DEFAULT_CONFIG) -> Iterator[tuple[int, int]]:
    """(q, f(q)) for every prime power 2 <= q <= bound, prime by prime in
    ascending order, each prime p followed by its powers p^2, p^3, ...
    <= bound (so not in order of q).

    At a prime every family is one term, evaluated in one pass over
    primes_upto(bound): J_k(p) = p^k - 1, psi_k(p) = sigma_k(p) = p^k + 1,
    phi_star(p) = p - 1, d_l(p) = l and Omega(p) = omega(p) = 1.  Only the
    higher powers, whose primes are <= sqrt(bound), go through
    scalar_value.

    The pointwise hypotheses below (f against the identity, psi_k * J_k =
    J_2k) are decided on these values alone.  Write n >= 2 as a product of
    coprime prime powers n = q_1 ... q_r:

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
    never evaluated.

    A bound below 1 is refused (ValueError): every check that reads these
    values would otherwise PASS vacuously.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    primes = primes_upto(bound, config)
    fam, k = f.family, f.param
    if fam is Family.JORDAN:
        values = [p ** k - 1 for p in primes]
    elif fam is Family.GENERALIZED_PSI or fam is Family.SIGMA:
        values = [p ** k + 1 for p in primes]
    elif fam is Family.UNITARY_TOTIENT:
        values = [p - 1 for p in primes]
    else:
        values = [k if fam is Family.DIVISOR_COUNT else 1] * len(primes)
    rows = zip(primes, values)
    for p, v in islice(rows, bisect_right(primes, isqrt(bound))):
        yield p, v
        q, a = p * p, 2
        while q <= bound:
            yield q, scalar_value(f, [(p, a)])
            q *= p
            a += 1
    yield from rows


def least_violations(f: FunctionId, bound: int,
                     violated: tuple[Callable[[int, int], bool], ...],
                     config: ToolConfig = DEFAULT_CONFIG) -> list[Optional[tuple[int, int]]]:
    """For each predicate in `violated`, one of operator.lt, le, gt and ge
    read as violated(f(n), n), the least n in 2..bound it holds at, as
    (n, f(n)), or None.  The rows of prime_power_values, which says why
    the prime powers decide it, are built once; each predicate's least
    failing row is found without a Python loop over them."""
    rows = list(prime_power_values(f, bound, config))
    qs = [q for q, _ in rows]
    values = [v for _, v in rows]
    return [min(compress(rows, map(holds, values, qs)), default=None)
            for holds in violated]


# the relation a pointwise hypothesis asks of f(n) against n, and the
# predicate violated(f(n), n) that least_violations reads as its failure
_VIOLATED = {"<": operator.ge, "<=": operator.gt, ">=": operator.lt, ">": operator.le}


def pointwise_lemma(lemma: str, f: FunctionId, bound: int, relation: str,
                    conclusion: str,
                    config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Check the hypothesis f(n) <relation> n for 1 < n <= bound, decided
    on the prime powers <= bound (prime_power_values), and report FAIL at
    the least n where it fails or PASS with the lemma's conclusion.  f(1) =
    1 holds by the catalogue's convention: the empty factorisation has
    scalar value 1.  Every pointwise lemma of the catalogue is decided and
    reported here."""
    (failure,) = least_violations(f, bound, (_VIOLATED[relation],), config)
    if failure is None:
        return VerificationReport(
            lemma_id=lemma, families_checked=1, depth=bound, status="PASS",
            certified_bound=conclusion)
    n, value = failure
    return VerificationReport(
        lemma_id=lemma, families_checked=1, depth=bound, status="FAIL",
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
    rows = zip(prime_power_values(generalized_psi(k), n_max, config),
               prime_power_values(jordan(k), n_max, config),
               prime_power_values(jordan(2 * k), n_max, config))
    failure = min(((q, j_2k, psi_k * j_k) for (q, psi_k), (_, j_k), (_, j_2k) in rows
                   if psi_k * j_k != j_2k), default=None)
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


@dataclass(frozen=True)
class MonotoneProfile:
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


# (name, function, True for "f(n) <= n", False for "f(n) > n above 1")
_MONOTONE_CHECKS = (
    ("phi", PHI, True), ("phi_star", PHI_STAR, True), ("Omega", BIG_OMEGA, True),
    ("omega", SMALL_OMEGA, True), ("d", D, True),
    ("psi", PSI, False), ("J_2", J2, False),
    ("sigma_1", SIGMA1, False), ("psi_1", PSI, False), ("J_3", jordan(3), False),
    ("sigma_2", sigma(2), False), ("psi_2", generalized_psi(2), False),
    ("J_4", jordan(4), False),
    ("sigma_3", sigma(3), False), ("psi_3", generalized_psi(3), False),
    ("J_5", jordan(5), False),
)


def catalogue_monotone_sweep(bound: int,
                             config: ToolConfig = DEFAULT_CONFIG) -> dict[str, Optional[int]]:
    """Every monotonicity hypothesis the lemmas need, each decided for every
    n <= bound on the prime powers <= bound (see prime_power_values).
    Returns {check name: least violating n or None}.

    Checks: phi/phi_star/Omega/omega/d weakly below n; psi/J_2 and
    sigma_k/psi_k/J_{k+2} (k <= 3) strictly above n for n >= 2.
    """
    # each distinct (function, direction) is checked once ("psi > n" and
    # "psi_1 > n" share one)
    found: dict[tuple[FunctionId, bool], Optional[int]] = {}
    for _, f, below in _MONOTONE_CHECKS:
        if (f, below) not in found:
            (least,) = least_violations(f, bound, (operator.gt if below else operator.le,), config)
            found[f, below] = None if least is None else least[0]
    return {f"{name} {'<=' if below else '>'} n": found[f, below]
            for name, f, below in _MONOTONE_CHECKS}
