"""Factored-form naturals and the prime machinery underneath them.

A :class:`FactoredNatural` is a positive integer kept as its prime
factorization.  Two features let it hold numbers far beyond any explicit
representation:

* exponents may be :class:`DeferredValue` objects ("the integer value of
  that other factored natural, plus an offset"), so towers like
  p^(p^(p^k - 1) - 1) stay exact even when the inner value has more digits
  than there are atoms to store them;
* interval factors (lo, hi) denote the product q_lo * q_{lo+1} * ... * q_hi
  of consecutive primes by index (q_1 = 2), each with exponent 1, so a
  squarefree product of astronomically many consecutive primes is a pair of
  indices instead of a list.

Values are immutable after construction; the only later write is the cached
result of :func:`to_integer`, which any thread may fill with the same value.
Prime tables are grown lazily and only ever appended to, so concurrent
readers are safe.

Three rules keep values and certified comparisons cheap:

* structure alone decides: :func:`certainly_different` tries structural
  equality, plainness, the exponents of shared explicit primes, same-lo
  interval reach and magnitude, in that order, and raises
  ComparisonUndecided when none of them decides; it never materialises a
  value, so no budget decides a comparison;
* a *plain* value (int exponents, no intervals) has a unique normal form by
  unique factorization, so two plain values are equal exactly when their
  structures are, and :func:`pairwise_all_different` decides every
  plain-vs-plain pair by hashing, without materialising either value; it
  compares other values only inside buckets of one smallest prime factor.
  That hash pass rests on one invariant of every FactoredNatural: its
  explicit primes are strictly ascending (so each prime's exponents are
  merged into one) and each is certified prime.  ``FactoredNatural(...)``
  establishes it by checking whatever it is given and merging it in
  :func:`_merge_exponents`, the one merge; :func:`_factored` skips the
  checks for tuples that hold it by construction (:func:`factorize`,
  ``arithfun.evaluate``, ``dynamics.family_terms``, ``preimage.phi_bound``),
  and its docstring states the precondition;
* each value is materialised at most once per object: :func:`to_integer`
  stores its result (the integer or ``OVERFLOW``) on the FactoredNatural,
  keyed by the bit budget, the one budget it reads, so the cache lives and
  dies with the term and a call under another bit budget recomputes.
"""
from __future__ import annotations

import bisect
from array import array
from itertools import compress
from math import gcd, isqrt
from typing import Iterable, Iterator, Optional, Union

from .config import DEFAULT_CONFIG, ToolConfig


class BudgetExceeded(Exception):
    """An operation would step outside its configured budget."""


class ComparisonUndecided(Exception):
    """Neither equality nor inequality could be certified."""


class _Overflow:
    """Marker value: the integer exists but exceeds the bit budget."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OVERFLOW"


OVERFLOW = _Overflow()

# Saturation point for certified bit-length lower bounds.  Anything whose
# bit length provably exceeds this is larger than any integer this process
# could ever materialise.
_SAT_BITS = 1 << 62


# ---------------------------------------------------------------------------
# primality and single-number factorization


_MR_BASE_TABLE = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
# Fallback bases for inputs past the proven table (up to 128 bits).  No
# composite below 2^128 is known to pass all of these.
_MR_WIDE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97, 101)


def _mr_witness(a: int, d: int, s: int, n: int) -> bool:
    a %= n
    if a <= 1:
        return False
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for limit, bases in _MR_BASE_TABLE:
        if n < limit:
            return not any(_mr_witness(a, d, s, n) for a in bases)
    return not any(_mr_witness(a, d, s, n) for a in _MR_WIDE_BASES)


def _pollard_brent(n: int) -> int:
    """One non-trivial factor of odd composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed on {n}")  # pragma: no cover


def _factor_int(n: int) -> dict[int, int]:
    """Full factorization of n >= 1 as {prime: exponent}."""
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over 6k+-1 up to a small cutoff, then rho: past 1000 the wheel
    # costs more than Pollard-Brent takes to split off the same factor
    d = 7
    incr = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 1000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += incr[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_brent(m)
        stack.append(f)
        stack.append(m // f)
    return out


# ---------------------------------------------------------------------------
# lazily grown prime list (q_1 = 2, q_2 = 3, ...), kept for the process as
# machine integers: 8 bytes a prime, where a list of ints takes 36

_primes = array("q", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
_prime_limit: int = 38  # primes below this are all present

# FactoredNatural certifies an int in this fixed set (q_1..q_12) as prime by
# membership; it never grows, so no check depends on what ran before
_CERTIFIED_PRIMES = frozenset(_primes)


def _extend_primes_upto(limit: int) -> None:
    global _prime_limit
    if limit < _prime_limit:
        return
    # segmented sieve from the current limit
    lo = _prime_limit
    hi = max(limit + 1, 2 * _prime_limit)
    root = isqrt(hi - 1) + 1
    if root >= _prime_limit:
        _extend_primes_upto(root)
        lo = _prime_limit
    # odd numbers only: seg[i] stands for lo0 + 2i; an odd base prime p
    # starts at its first odd multiple >= max(p^2, lo0), and its odd
    # multiples are p apart in index space
    lo0 = lo | 1
    odds = range(lo0, hi, 2)
    seg = bytearray([1]) * len(odds)
    for p in _primes[1:bisect.bisect_left(_primes, root)]:
        i = ((max(p, -(-lo0 // p)) | 1) * p - lo0) // 2
        seg[i::p] = bytes(len(range(i, len(seg), p)))
    _primes.extend(compress(odds, seg))
    _prime_limit = hi


def _ensure_prime_count(count: int, past: Optional[int] = None) -> None:
    """Grow the prime list until it holds q_count or, given `past`, until
    every prime up to `past` is in it, whichever comes first.  Growth past
    _INDEX_LIMIT primes is refused: at once for a count past the limit
    with no `past`, else once the list holds _INDEX_LIMIT primes."""
    over = past is None and count > _INDEX_LIMIT
    while over or (len(_primes) < count and (past is None or past >= _prime_limit)):
        if over or len(_primes) >= _INDEX_LIMIT:
            raise BudgetExceeded(
                f"prime index {count} exceeds the fixed limit {_INDEX_LIMIT}")
        _extend_primes_upto(_prime_limit * 2)


def nth_prime(i: int) -> int:
    """The i-th prime, 1-indexed: nth_prime(1) == 2."""
    if i < 1:
        raise ValueError("prime indices start at 1")
    _ensure_prime_count(i)
    return _primes[i - 1]


def _check_sieve_request(limit: int, config: ToolConfig) -> None:
    """The one refusal of a sieve past the run's sieve_bound."""
    if limit > config.sieve_bound:
        raise BudgetExceeded(f"sieve request {limit} exceeds sieve bound "
                             f"{config.sieve_bound} (sieve_bound)")


def primes_upto(limit: int, config: ToolConfig = DEFAULT_CONFIG) -> array:
    """All primes <= limit, ascending (a copy of a slice of the cache)."""
    _check_sieve_request(limit, config)
    _extend_primes_upto(limit)
    return _primes[:bisect.bisect_right(_primes, limit)]


# ---------------------------------------------------------------------------
# smallest-prime-factor table for bulk factorization sweeps


def smallest_factor_table(bound: int, config: ToolConfig = DEFAULT_CONFIG) -> array:
    """spf[n] = smallest prime factor of n (spf[p] = p), valid for 2..bound;
    built on each call and kept by no one but the caller."""
    _check_sieve_request(bound, config)
    spf = array("q", bytes(8 * (bound + 1)))
    root_primes = primes_upto(isqrt(bound), config)
    for p in reversed(root_primes):
        start = p * p
        count = (bound - start) // p + 1
        spf[start::p] = array("q", [p]) * count
    for n in range(2, bound + 1):
        if spf[n] == 0:
            spf[n] = n
    return spf


def _spf_decompose(n: int, spf: array) -> list[tuple[int, int]]:
    """[(p, a), ...] by ascending prime for 1 <= n < len(spf)."""
    pps = []
    while n > 1:
        p = spf[n]
        a = 1
        n //= p
        while n % p == 0:
            a += 1
            n //= p
        pps.append((p, a))
    return pps


def factored_range(bound: int, start: int = 2,
                   config: ToolConfig = DEFAULT_CONFIG) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Yield (n, [(p, a), ...]) for n in start..bound via the spf table."""
    spf = smallest_factor_table(bound, config)
    for n in range(start, bound + 1):
        yield n, _spf_decompose(n, spf)


# ---------------------------------------------------------------------------
# deferred (symbolic) big naturals


class DeferredValue:
    """to_integer(base) + offset, kept symbolic past the bit budget.

    Appears as an exponent or interval bound when a family recurrence feeds
    the *value* of the previous term into the shape of the next one.
    """

    __slots__ = ("base", "offset")

    def __init__(self, base: "FactoredNatural", offset: int = 0):
        self.base = base
        self.offset = offset

    def shift(self, delta: int) -> "DeferredValue":
        return DeferredValue(self.base, self.offset + delta)

    def resolve(self, config: ToolConfig = DEFAULT_CONFIG):
        v = to_integer(self.base, config)
        if v is OVERFLOW:
            return OVERFLOW
        return v + self.offset

    def __eq__(self, other):
        # the bases' cached hashes first: two distinct tower terms differ
        # there, so their comparison does not walk the chain below them
        if isinstance(other, DeferredValue):
            return (self.offset == other.offset and hash(self.base) == hash(other.base)
                    and self.base == other.base)
        return NotImplemented

    def __hash__(self):
        return hash(("deferred", self.base, self.offset))

    def __repr__(self):
        sign = "+" if self.offset >= 0 else "-"
        return f"value({self.base!r}){sign}{abs(self.offset)}"


Nat = Union[int, DeferredValue]


def _fmt_nat(u: Nat) -> str:
    """Render u; very large integers are abbreviated by bit length."""
    if isinstance(u, int):
        if u.bit_length() > 256:
            return f"<{u.bit_length()}-bit int>"
        return str(u)
    return repr(u)


def nat_add(u: Nat, delta: int) -> Nat:
    if isinstance(u, DeferredValue):
        return u.shift(delta)
    return u + delta


def nat_resolve(u: Union[Nat, "FactoredNatural"], config: ToolConfig = DEFAULT_CONFIG):
    """Plain integer value of u (an int, DeferredValue or FactoredNatural),
    or OVERFLOW."""
    if isinstance(u, DeferredValue):
        return u.resolve(config)
    if isinstance(u, FactoredNatural):
        return to_integer(u, config)
    return u


def _nat_bitlen_lb(u: Nat) -> int:
    """Certified lower bound on u.bit_length(), saturated at _SAT_BITS."""
    if isinstance(u, int):
        return u.bit_length()
    lb = _value_bitlen_lb(u.base)
    # value >= 2^(lb-1); a small offset cannot pull it below 2^(lb-2)
    if abs(u.offset).bit_length() < lb - 2:
        return lb - 1
    return 1


def nat_certainly_different(u: Nat, v: Nat) -> bool:
    """True only when u != v is certain; False means 'not certified'.

    Decides two ints, two deferred values with equal offsets (by their
    bases), and an int against a deferred value that provably dwarfs it."""
    if isinstance(u, int) and isinstance(v, int):
        return u != v
    if isinstance(u, DeferredValue) and isinstance(v, DeferredValue):
        if u.offset != v.offset:
            return False
        try:
            return certainly_different(u.base, v.base)
        except ComparisonUndecided:
            return False
    small, big = (u, v) if isinstance(u, int) else (v, u)
    return small.bit_length() + 2 < _nat_bitlen_lb(big)


# ---------------------------------------------------------------------------
# FactoredNatural


# Intervals shorter than this (ending by _INDEX_LIMIT) are expanded into
# explicit primes during normalization, which makes the normal form of every
# practically constructible value unique.
_EXPAND_LIMIT = 512
# The largest prime index the prime list is grown to, fixed so that no
# config changes a normal form.
_INDEX_LIMIT = 10_000_000


def _merge_exponents(parts: Iterable[tuple[int, Nat]], plain: bool) -> tuple:
    """The explicit part of the normal form of the product of `parts`, each
    (certified prime, int >= 1 or DeferredValue; `plain`: no DeferredValue):
    the exponents of one prime are added in one dict, sorted once by prime.
    A DeferredValue meeting any other exponent of its prime is refused."""
    exps: dict[int, Nat] = {}
    for q, a in parts:
        old = exps.get(q)
        if old is None:
            exps[q] = a
        elif plain or not (isinstance(old, DeferredValue) or isinstance(a, DeferredValue)):
            exps[q] = old + a
        else:
            raise ValueError("cannot merge deferred exponents")
    return tuple(sorted(exps.items()))


class FactoredNatural:
    """A positive integer in fully factored, normalized form.

    ``explicit`` is a tuple of (prime, exponent) with strictly ascending
    primes, so each prime appears once with its exponents merged, and every
    prime certified (in the fixed table of q_1..q_12, by is_prime, or by
    _factor_int); exponents are ints >= 1 or DeferredValue.  ``intervals``
    is a tuple of (lo_index, hi_index) prime-index ranges, pairwise
    disjoint, sorted by lo, and disjoint from the indices of the explicit
    primes.  The number 1 is the empty factorization.  Equal plain values
    therefore have equal tuples and equal hashes, which is all
    pairwise_all_different reads of them.

    The constructor checks its arguments and merges them in
    _merge_exponents; _factored builds the same object from a tuple
    already in this form.
    """

    # _value caches to_integer as (bit_budget, result)
    # is_plain: no intervals and only int exponents, so the normal form is
    # unique.  _bitlen_lb caches _value_bitlen_lb, which reads no budget.
    __slots__ = ("explicit", "intervals", "is_plain", "_hash", "_bitlen_lb", "_value")

    def __init__(self,
                 explicit: Iterable[tuple[int, Nat]] = (),
                 intervals: Iterable[tuple[int, Nat]] = ()):
        pairs = list(explicit)
        plain = True
        for p, e in pairs:
            # the type test keeps 2.0 and True out: they hash like 2 and 1
            if type(p) is not int or p not in _CERTIFIED_PRIMES:
                if not isinstance(p, int) or p < 2:
                    raise ValueError(f"bad prime {p!r}")
                if not is_prime(p):
                    raise ValueError(f"{p} is not prime")
            if isinstance(e, int):
                if e < 1:
                    raise ValueError(f"exponent {e} < 1 for prime {p}")
            elif isinstance(e, DeferredValue):
                plain = False
            else:
                raise TypeError(f"bad exponent {e!r}")

        ivals = sorted(intervals, key=lambda iv: iv[0] if isinstance(iv[0], int) else 0)
        norm_ivals: list[tuple[int, Nat]] = []
        for lo, hi in ivals:
            if not isinstance(lo, int) or lo < 1:
                raise ValueError(f"bad interval low index {lo!r}")
            if isinstance(hi, int):
                if hi < lo:
                    raise ValueError(f"empty interval [{lo}..{hi}]")
            elif isinstance(hi, DeferredValue):
                # certify lo - 1 < hi: hi provably has more bits
                if (lo - 1).bit_length() + 2 >= _nat_bitlen_lb(hi):
                    raise ValueError(f"cannot certify interval [{lo}..{hi!r}]")
            else:
                raise TypeError(f"bad interval bound {hi!r}")
            if norm_ivals:
                plo, phi = norm_ivals[-1]
                if isinstance(phi, int) and phi + 1 == lo:
                    norm_ivals[-1] = (plo, hi)  # adjacent: merge
                    continue
                if not isinstance(phi, int) or phi >= lo:
                    raise ValueError("interval index ranges overlap")
            norm_ivals.append((lo, hi))

        # expand short intervals so equal values share one form
        final_ivals: list[tuple[int, Nat]] = []
        for lo, hi in norm_ivals:
            if (isinstance(hi, int) and hi - lo + 1 <= _EXPAND_LIMIT
                    and hi <= _INDEX_LIMIT):
                _ensure_prime_count(hi)
                pairs.extend((q, 1) for q in _primes[lo - 1:hi])
            else:
                final_ivals.append((lo, hi))

        merged = _merge_exponents(pairs, plain)
        for p, _ in merged:
            if final_ivals and not _prime_outside_intervals(p, final_ivals):
                raise ValueError(f"prime {p} may fall inside an interval factor")
        self._fill(merged, tuple(final_ivals), plain and not final_ivals)

    def _fill(self, explicit: tuple, intervals: tuple, plain: bool) -> None:
        """The one slot fill, shared by __init__ and _factored."""
        self.explicit = explicit
        self.intervals = intervals
        self.is_plain = plain
        self._hash = None
        self._bitlen_lb = None
        self._value = None

    # -- basics ----------------------------------------------------------

    @property
    def is_one(self) -> bool:
        return not self.explicit and not self.intervals

    @property
    def has_intervals(self) -> bool:
        return bool(self.intervals)

    def __eq__(self, other):
        if not isinstance(other, FactoredNatural):
            return NotImplemented
        return self.explicit == other.explicit and self.intervals == other.intervals

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.explicit, self.intervals))
        return self._hash

    def __repr__(self):
        if self.is_one:
            return "1"
        parts = [f"{p}" if e == 1 else f"{p}^{_fmt_nat(e)}"
                 for p, e in self.explicit]
        parts += [f"q[{_fmt_nat(lo)}..{_fmt_nat(hi)}]" for lo, hi in self.intervals]
        return "*".join(parts)


ONE = FactoredNatural()


def _factored(explicit: tuple[tuple[int, Nat], ...], plain: bool = True) -> FactoredNatural:
    """A FactoredNatural with no intervals, filled without the checks of
    __init__.  Precondition: `explicit` is a tuple of (prime, exponent)
    with strictly ascending primes, so already merged; every prime is
    certified (by an existing FactoredNatural, _factor_int or primes_upto,
    or as the literal 2 or 3); every exponent is an int >= 1 or a
    DeferredValue; and `plain` is False exactly when some is deferred.

    Its only callers build such tuples by construction: factorize,
    arithfun.evaluate's J_k, psi_k and phi_star branches (through
    _merge_exponents), dynamics.family_terms for phi-anti, psi-orbit and
    j2-orbit, and preimage.phi_bound."""
    x = object.__new__(FactoredNatural)
    x._fill(explicit, (), plain)
    return x


def prime_factors(n: int, config: ToolConfig = DEFAULT_CONFIG) -> list[tuple[int, int]]:
    """[(p, a), ...] by ascending prime with n = prod p^a, for 1 <= n < 2^128."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"factorize needs a natural >= 1, got {n!r}")
    if n.bit_length() > 128:
        raise ValueError("factorize handles inputs up to 128 bits")
    return sorted(_factor_int(n).items())


def factorize(n: int, config: ToolConfig = DEFAULT_CONFIG) -> FactoredNatural:
    """Complete normalized factorization of 1 <= n < 2^128."""
    pps = prime_factors(n, config)
    return _factored(tuple(pps)) if pps else ONE


def _prod(values: list[int]) -> int:
    # balanced product: much faster than a left fold on many small factors
    while len(values) > 1:
        values = [values[i] * values[i + 1] if i + 1 < len(values) else values[i]
                  for i in range(0, len(values), 2)]
    return values[0] if values else 1


def to_integer(x: FactoredNatural, config: ToolConfig = DEFAULT_CONFIG):
    """Exact integer value, or OVERFLOW if it busts the bit budget.

    Computed at most once per object and bit budget: the result is kept on
    x, so it is freed with x and a call under another bit budget recomputes.
    """
    cached = x._value
    if cached is not None and cached[0] == config.bit_budget:
        return cached[1]
    value = _materialise(x, config)
    x._value = (config.bit_budget, value)
    return value


def _materialise(x: FactoredNatural, config: ToolConfig):
    budget = config.bit_budget
    acc_bits = 0
    pieces: list[int] = []
    for p, e in x.explicit:
        ev = nat_resolve(e, config)
        if ev is OVERFLOW:
            return OVERFLOW
        # p^e has at least ev*(bits(p)-1) bits; cheap pre-check before pow
        if ev * max(1, p.bit_length() - 1) > budget:
            return OVERFLOW
        piece = pow(p, ev)
        acc_bits += piece.bit_length()
        if acc_bits > budget + len(pieces):
            return OVERFLOW
        pieces.append(piece)
    for lo, hi in x.intervals:
        hv = nat_resolve(hi, config)
        if hv is OVERFLOW:
            return OVERFLOW
        count = hv - lo + 1
        if count > budget:  # each prime contributes >= 1 bit
            return OVERFLOW
        # a short interval past _INDEX_LIMIT may still fit the bit budget,
        # so it is refused rather than reported as OVERFLOW
        _ensure_prime_count(hv)
        piece = _prod(_primes[lo - 1:hv])
        acc_bits += piece.bit_length()
        if acc_bits > budget + len(pieces):
            return OVERFLOW
        pieces.append(piece)
    value = _prod(pieces)
    if value.bit_length() > budget:
        return OVERFLOW
    return value


# ---------------------------------------------------------------------------
# certified value comparisons


def _value_bitlen_lb(x: FactoredNatural) -> int:
    """Certified lower bound on bit length of the value (saturated).  It
    reads no budget, so it is computed once per object and kept on x."""
    if x._bitlen_lb is None:
        x._bitlen_lb = _bitlen_lb_of(x)
    return x._bitlen_lb


def _bitlen_lb_of(x: FactoredNatural) -> int:
    bits = 1
    for p, e in x.explicit:
        e_lb = _nat_bitlen_lb(e)
        if e_lb >= 63:
            return _SAT_BITS
        # e >= 2^(e_lb - 1)
        e_min = 1 << (e_lb - 1) if e_lb > 1 else (e if isinstance(e, int) else 1)
        bits += e_min * max(1, p.bit_length() - 1)
        if bits >= _SAT_BITS:
            return _SAT_BITS
    for lo, hi in x.intervals:
        if isinstance(hi, int):
            count = hi - lo + 1
        else:
            c_lb = _nat_bitlen_lb(hi)
            if c_lb >= 63:
                return _SAT_BITS
            count = (1 << (c_lb - 1)) - lo + 1
        bits += max(count, 0)
        if bits >= _SAT_BITS:
            return _SAT_BITS
    return min(bits, _SAT_BITS)


def certainly_different(a: FactoredNatural, b: FactoredNatural) -> bool:
    """Certify value(a) != value(b); structural equality certifies equality.

    Rules, in order, until one decides: (1) structural equality; (2) two
    plain values (see FactoredNatural.is_plain) differ; (3) a prime explicit
    in both with certainly different exponents; (4) with the same explicit
    part, same-lo intervals with certainly different ends; (5) magnitude.
    No rule materialises a value, so no budget decides the answer.  Raises
    ComparisonUndecided when neither direction can be certified (does not
    occur for the families this toolkit builds).
    """
    if a == b:
        return False
    if a.is_plain and b.is_plain:
        return True
    pb = dict(b.explicit)
    for p, ea in a.explicit:
        eb = pb.get(p)
        if eb is not None and nat_certainly_different(ea, eb):
            return True
    # Only with the same explicit part: an explicit prime next to an
    # interval can stand for the interval's missing end
    # (7927*q[10..1000] == q[10..1001], 7927 = q[1001])
    if a.explicit == b.explicit and len(a.intervals) == len(b.intervals):
        for (lo1, hi1), (lo2, hi2) in zip(a.intervals, b.intervals):
            if lo1 == lo2 and nat_certainly_different(hi1, hi2):
                return True
    # magnitude: p^e has at most e * bits(p) bits
    for x, y in ((a, b), (b, a)):
        if x.is_plain:
            x_bits = max(1, sum(e * p.bit_length() for p, e in x.explicit))
            if x_bits < _value_bitlen_lb(y):
                return True
    raise ComparisonUndecided(f"cannot compare {a!r} and {b!r}")


def _prime_outside_intervals(p: int, intervals: Iterable[tuple[int, Nat]]) -> bool:
    """True if prime p certainly does not occur in the interval factors.

    p must be prime, as the explicit primes of a FactoredNatural are: then
    q_lo <= p <= q_hi puts p inside q[lo..hi], and no index is needed.
    Each end is compared by _nth_prime_within, so the prime list grows to
    about min(p, q_hi), not to q_hi."""
    for lo, hi in intervals:
        q_lo = _nth_prime_within(lo, p)
        if q_lo is None or p < q_lo:
            continue
        if not isinstance(hi, int) or hi > _INDEX_LIMIT:
            return False  # may fall inside: the end is symbolic or past the table
        q_hi = _nth_prime_within(hi, p)
        if q_hi is None or p <= q_hi:
            return False
    return True


def _nth_prime_within(i: int, p: int) -> Optional[int]:
    """q_i, or None when q_i > p is already certain: the prime list grows
    only until it holds q_i or every prime up to p.  In the second case it
    holds all primes below _prime_limit > p but fewer than i of them, so
    q_i >= _prime_limit > p."""
    _ensure_prime_count(i, past=p)
    return _primes[i - 1] if len(_primes) >= i else None


def pairwise_all_different(values: list[FactoredNatural]) -> Optional[tuple[int, int]]:
    """Index pair (i, j), i < j, of a certified collision, or None if all
    values are distinct.

    One hash pass finds structurally equal values.  It also decides every
    plain-vs-plain pair, since plain values (see FactoredNatural.is_plain)
    have a unique normal form: a list of plain values is never
    materialised.  Otherwise the values are bucketed by their smallest
    prime factor, which the structure gives for certain (the first explicit
    prime or q_lo of the first interval).  Values in different buckets
    differ by unique factorization, so only pairs inside a bucket go
    through certainly_different, which decides from structure alone or
    raises ComparisonUndecided; no budget decides the answer.
    """
    seen: dict[FactoredNatural, int] = {}
    for i, v in enumerate(values):
        if v in seen:
            return seen[v], i
        seen[v] = i
    if all(v.is_plain for v in values):
        return None
    buckets: dict[int, list[int]] = {}
    for i, v in enumerate(values):
        buckets.setdefault(_least_prime(v), []).append(i)
    for bucket in buckets.values():
        for a in range(len(bucket)):
            for b in range(a + 1, len(bucket)):
                if not certainly_different(values[bucket[a]], values[bucket[b]]):
                    return bucket[a], bucket[b]
    return None


def _least_prime(x: FactoredNatural) -> int:
    """The smallest prime factor of x's value (1 for the value 1)."""
    candidates = [p for p, _ in x.explicit[:1]]
    candidates += [nth_prime(lo) for lo, _ in x.intervals[:1]]
    return min(candidates, default=1)
