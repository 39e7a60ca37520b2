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

Two rules keep certified comparisons cheap:

* each value is materialised at most once per object: :func:`to_integer`
  stores its result (the integer or ``OVERFLOW``) on the FactoredNatural,
  keyed by the budgets it depends on, so the cache lives and dies with the
  term and a call under other budgets recomputes;
* a *plain* value (int exponents, no intervals) has a unique normal form by
  unique factorization, so two plain values are equal exactly when their
  structures are, and :func:`pairwise_all_different` decides every
  plain-vs-plain pair by hashing, without materialising either value.
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

    def __bool__(self):
        return False


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
    spf = _spf_cache["table"]
    if spf is not None and n < len(spf):  # type: ignore[arg-type]
        return spf[n] == n  # type: ignore[index]
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
    # wheel over 6k+-1 up to a small cutoff, then rho
    d = 7
    incr = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 100_000:
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
# lazily grown prime list (q_1 = 2, q_2 = 3, ...)

_primes: list[int] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
_prime_limit: int = 38  # primes below this are all present


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
    base = [p for p in _primes if p * p < hi]
    seg = bytearray([1]) * (hi - lo)
    for p in base:
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            seg[start - lo::p] = bytearray(len(range(start - lo, hi - lo, p)))
    _primes.extend(compress(range(lo, hi), seg))
    _prime_limit = hi


def _ensure_prime_count(count: int, config: ToolConfig) -> None:
    if count > config.prime_index_budget:
        raise BudgetExceeded(
            f"prime index {count} exceeds budget {config.prime_index_budget}")
    while len(_primes) < count:
        _extend_primes_upto(_prime_limit * 2)


def nth_prime(i: int, config: ToolConfig = DEFAULT_CONFIG) -> int:
    """The i-th prime, 1-indexed: nth_prime(1) == 2."""
    if i < 1:
        raise ValueError("prime indices start at 1")
    _ensure_prime_count(i, config)
    return _primes[i - 1]


def prime_index(p: int, config: ToolConfig = DEFAULT_CONFIG) -> int:
    """Inverse of nth_prime; rejects non-primes."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p >= _prime_limit and len(_primes) >= config.prime_index_budget:
        raise BudgetExceeded(f"prime {p} beyond enumerable range")
    _extend_primes_upto(p)
    return bisect.bisect_left(_primes, p) + 1


def primes_upto(limit: int, config: ToolConfig = DEFAULT_CONFIG) -> list[int]:
    """All primes <= limit, ascending (shared list slice, do not mutate)."""
    if limit > config.sieve_bound:
        raise BudgetExceeded(f"limit {limit} exceeds sieve bound")
    _extend_primes_upto(limit)
    return _primes[:bisect.bisect_right(_primes, limit)]


# ---------------------------------------------------------------------------
# smallest-prime-factor table for bulk factorization sweeps

_spf_cache: dict[str, object] = {"bound": 0, "table": None}


def smallest_factor_table(bound: int, config: ToolConfig = DEFAULT_CONFIG) -> array:
    """spf[n] = smallest prime factor of n (spf[p] = p), valid for 2..bound."""
    if bound > config.sieve_bound:
        raise BudgetExceeded(
            f"sieve request {bound} exceeds sieve bound {config.sieve_bound}")
    if _spf_cache["bound"] >= bound:
        return _spf_cache["table"]  # type: ignore[return-value]
    spf = array("q", bytes(8 * (bound + 1)))
    root_primes = primes_upto(isqrt(bound), config)
    for p in reversed(root_primes):
        start = p * p
        count = (bound - start) // p + 1
        spf[start::p] = array("q", [p]) * count
    for n in range(2, bound + 1):
        if spf[n] == 0:
            spf[n] = n
    _spf_cache["bound"] = bound
    _spf_cache["table"] = spf
    return spf


def factored_range(bound: int, start: int = 2,
                   config: ToolConfig = DEFAULT_CONFIG) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Yield (n, [(p, a), ...]) for n in start..bound via the spf table."""
    spf = smallest_factor_table(bound, config)
    for n in range(start, bound + 1):
        m = n
        pps = []
        while m > 1:
            p = spf[m]
            a = 1
            m //= p
            while m % p == 0:
                a += 1
                m //= p
            pps.append((p, a))
        yield n, pps


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

    def bit_length_lower_bound(self) -> int:
        return _nat_bitlen_lb(self)

    def resolve(self, config: ToolConfig = DEFAULT_CONFIG):
        v = to_integer(self.base, config)
        if v is OVERFLOW:
            return OVERFLOW
        return v + self.offset

    def __eq__(self, other):
        if isinstance(other, DeferredValue):
            return self.base == other.base and self.offset == other.offset
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


def nat_resolve(u: Nat, config: ToolConfig = DEFAULT_CONFIG):
    """Plain integer value of u, or OVERFLOW."""
    if isinstance(u, DeferredValue):
        return u.resolve(config)
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


def nat_certainly_equal(u: Nat, v: Nat) -> bool:
    if isinstance(u, int) and isinstance(v, int):
        return u == v
    if isinstance(u, DeferredValue) and isinstance(v, DeferredValue):
        return u.offset == v.offset and u.base == v.base
    return False


def nat_certainly_different(u: Nat, v: Nat, config: ToolConfig = DEFAULT_CONFIG) -> bool:
    if isinstance(u, int) and isinstance(v, int):
        return u != v
    if isinstance(u, DeferredValue) and isinstance(v, DeferredValue):
        if u.base == v.base:
            return u.offset != v.offset
        if u.offset == v.offset:
            return certainly_different(u.base, v.base, config)
        # fall through to magnitude separation
    a, b = (u, v) if isinstance(u, int) else (v, u)
    if isinstance(a, int):
        # deferred value provably dwarfs the explicit integer?
        return a.bit_length() + 2 < _nat_bitlen_lb(b)
    # two deferred values with different bases and offsets: decidable only
    # when both resolve
    ru = nat_resolve(u, config)
    rv = nat_resolve(v, config)
    if ru is not OVERFLOW and rv is not OVERFLOW:
        return ru != rv
    raise ComparisonUndecided(f"cannot separate {u!r} and {v!r}")


def nat_certainly_less(small: Nat, big: Nat, config: ToolConfig = DEFAULT_CONFIG) -> bool:
    """True only when small < big is certain; False means 'not certified'."""
    if isinstance(small, int) and isinstance(big, int):
        return small < big
    if isinstance(small, int):
        return small.bit_length() + 2 < _nat_bitlen_lb(big)
    if isinstance(big, int):
        return False
    if small.base == big.base:
        return small.offset < big.offset
    try:
        if certainly_less(small.base, big.base, config) and small.offset <= big.offset:
            return True
    except ComparisonUndecided:
        pass
    return False


# ---------------------------------------------------------------------------
# FactoredNatural


# Intervals shorter than this (with in-budget bounds) are expanded into
# explicit primes during normalization, which makes the normal form of every
# practically constructible value unique.
_EXPAND_LIMIT = 512


class FactoredNatural:
    """A positive integer in fully factored, normalized form.

    ``explicit`` is a tuple of (prime, exponent) sorted by prime; exponents
    are ints >= 1 or DeferredValue.  ``intervals`` is a tuple of
    (lo_index, hi_index) prime-index ranges, pairwise disjoint, sorted by
    lo, and disjoint from the indices of the explicit primes.  The number 1
    is the empty factorization.
    """

    # _value caches to_integer as (bit_budget, prime_index_budget, result)
    __slots__ = ("explicit", "intervals", "_hash", "_value")

    def __init__(self,
                 explicit: Iterable[tuple[int, Nat]] = (),
                 intervals: Iterable[tuple[int, Nat]] = ()):
        exp_map: dict[int, Nat] = {}
        for p, e in explicit:
            if not isinstance(p, int) or p < 2:
                raise ValueError(f"bad prime {p!r}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if isinstance(e, int):
                if e < 1:
                    raise ValueError(f"exponent {e} < 1 for prime {p}")
                if p in exp_map:
                    old = exp_map[p]
                    if not isinstance(old, int):
                        raise ValueError("cannot merge deferred exponents")
                    exp_map[p] = old + e
                else:
                    exp_map[p] = e
            elif isinstance(e, DeferredValue):
                if p in exp_map:
                    raise ValueError("cannot merge deferred exponents")
                exp_map[p] = e
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
                if not nat_certainly_less(lo - 1, hi):
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

        # expand short in-budget intervals so equal values share one form
        final_ivals: list[tuple[int, Nat]] = []
        for lo, hi in norm_ivals:
            if (isinstance(hi, int) and hi - lo + 1 <= _EXPAND_LIMIT
                    and hi <= DEFAULT_CONFIG.prime_index_budget):
                _ensure_prime_count(hi, DEFAULT_CONFIG)
                for i in range(lo, hi + 1):
                    q = _primes[i - 1]
                    if q in exp_map:
                        old = exp_map[q]
                        if not isinstance(old, int):
                            raise ValueError("cannot merge deferred exponents")
                        exp_map[q] = old + 1
                    else:
                        exp_map[q] = 1
            else:
                final_ivals.append((lo, hi))

        for p in exp_map:
            for lo, hi in final_ivals:
                # explicit prime must not fall inside an interval's range
                if p < nth_prime(lo):
                    continue
                if isinstance(hi, int) and hi <= DEFAULT_CONFIG.prime_index_budget:
                    if p <= nth_prime(hi) and is_prime(p):
                        idx = prime_index(p)
                        if lo <= idx <= hi:
                            raise ValueError(
                                f"prime {p} duplicated by interval [{lo}..{hi}]")
                else:
                    idx = prime_index(p)
                    if idx >= lo and not nat_certainly_less(hi, idx):
                        raise ValueError(
                            f"prime {p} may fall inside interval [{lo}..{hi!r}]")

        self.explicit = tuple(sorted(exp_map.items()))
        self.intervals = tuple(final_ivals)
        self._hash = None
        self._value = None

    # -- basics ----------------------------------------------------------

    @property
    def is_one(self) -> bool:
        return not self.explicit and not self.intervals

    @property
    def has_intervals(self) -> bool:
        return bool(self.intervals)

    @property
    def is_plain(self) -> bool:
        """No intervals and only int exponents, so the normal form is unique."""
        return not self.intervals and all(isinstance(e, int) for _, e in self.explicit)

    @property
    def has_deferred(self) -> bool:
        return (any(isinstance(e, DeferredValue) for _, e in self.explicit)
                or any(isinstance(hi, DeferredValue) for _, hi in self.intervals))

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

    def __int__(self):
        v = to_integer(self)
        if v is OVERFLOW:
            raise OverflowError(f"{self!r} exceeds the bit budget")
        return v

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls) -> "FactoredNatural":
        return cls()

    @classmethod
    def from_prime_power(cls, p: int, e: Nat) -> "FactoredNatural":
        return cls(((p, e),))


ONE = FactoredNatural()


def prime_factors(n: int, config: ToolConfig = DEFAULT_CONFIG) -> list[tuple[int, int]]:
    """[(p, a), ...] by ascending prime with n = prod p^a, for 1 <= n < 2^128."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"factorize needs a natural >= 1, got {n!r}")
    if n.bit_length() > 128:
        raise ValueError("factorize handles inputs up to 128 bits")
    spf = _spf_cache["table"]
    if spf is not None and n < len(spf):  # type: ignore[arg-type]
        pps = []
        m = n
        while m > 1:
            p = spf[m]
            a = 1
            m //= p
            while m % p == 0:
                a += 1
                m //= p
            pps.append((p, a))
        return pps
    return sorted(_factor_int(n).items())


def factorize(n: int, config: ToolConfig = DEFAULT_CONFIG) -> FactoredNatural:
    """Complete normalized factorization of 1 <= n < 2^128."""
    pps = prime_factors(n, config)
    return FactoredNatural(pps) if pps else ONE


def multiply(a: FactoredNatural, b: FactoredNatural) -> FactoredNatural:
    """Product; exponents add, interval ranges must stay disjoint."""
    return FactoredNatural(a.explicit + b.explicit, a.intervals + b.intervals)


def _prod(values: list[int]) -> int:
    # balanced product: much faster than a left fold on many small factors
    while len(values) > 1:
        values = [values[i] * values[i + 1] if i + 1 < len(values) else values[i]
                  for i in range(0, len(values), 2)]
    return values[0] if values else 1


def to_integer(x: FactoredNatural, config: ToolConfig = DEFAULT_CONFIG):
    """Exact integer value, or OVERFLOW if it busts the bit budget.

    Computed at most once per object and budget pair: the result is kept
    on x, so it is freed with x and a call under other budgets recomputes.
    """
    cached = x._value
    if (cached is not None and cached[0] == config.bit_budget
            and cached[1] == config.prime_index_budget):
        return cached[2]
    value = _materialise(x, config)
    x._value = (config.bit_budget, config.prime_index_budget, value)
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
        # a short interval past the prime-index budget may still fit the bit
        # budget, so it is refused rather than reported as OVERFLOW
        _ensure_prime_count(hv, config)
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
    """Certified lower bound on bit length of the value (saturated)."""
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


def certainly_different(a: FactoredNatural, b: FactoredNatural,
                        config: ToolConfig = DEFAULT_CONFIG) -> bool:
    """Certify value(a) != value(b); structural equality certifies equality.

    Two plain values (see FactoredNatural.is_plain) are decided by structure
    alone.  Raises ComparisonUndecided when neither direction can be
    certified (does not occur for the families this toolkit builds).
    """
    if a == b:
        return False
    if a.is_plain and b.is_plain:
        return True
    av, bv = to_integer(a, config), to_integer(b, config)
    if av is not OVERFLOW and bv is not OVERFLOW:
        return av != bv
    pa = dict(a.explicit)
    pb = dict(b.explicit)
    for p in set(pa) | set(pb):
        ea, eb = pa.get(p), pb.get(p)
        if ea is None or eb is None:
            absent = b if eb is None else a
            if _prime_outside_intervals(p, absent, config):
                return True
            continue
        if nat_certainly_different(ea, eb, config):
            return True
    # same explicit primes; look for an interval whose reach provably differs
    if len(a.intervals) == len(b.intervals):
        for (lo1, hi1), (lo2, hi2) in zip(a.intervals, b.intervals):
            if lo1 == lo2 and nat_certainly_different(hi1, hi2, config):
                return True
    # magnitude: p^e has at most e * bits(p) bits
    for x, y in ((a, b), (b, a)):
        if x.is_plain:
            x_bits = max(1, sum(e * p.bit_length() for p, e in x.explicit))
            if x_bits < _value_bitlen_lb(y):
                return True
    raise ComparisonUndecided(f"cannot compare {a!r} and {b!r}")


def _prime_outside_intervals(p: int, x: FactoredNatural, config: ToolConfig) -> bool:
    """True if prime p certainly does not occur in x's interval factors."""
    for lo, hi in x.intervals:
        if p < nth_prime(lo, config):
            continue
        if isinstance(hi, int) and hi <= config.prime_index_budget:
            if p > nth_prime(hi, config):
                continue
            idx = prime_index(p, config)
            if lo <= idx <= hi:
                return False
        else:
            idx = prime_index(p, config)
            if idx < lo:
                continue
            return False  # may fall inside an unbounded-looking interval
    return True


def certainly_less(a: FactoredNatural, b: FactoredNatural,
                   config: ToolConfig = DEFAULT_CONFIG) -> bool:
    """Certify value(a) < value(b); False means 'not certified'."""
    av, bv = to_integer(a, config), to_integer(b, config)
    if av is not OVERFLOW and bv is not OVERFLOW:
        return av < bv
    if av is not OVERFLOW:
        return av.bit_length() + 1 < _value_bitlen_lb(b)
    if bv is not OVERFLOW:
        return False
    # both overflow: divisibility-style rule (same shape, strictly wider)
    pa, pb = dict(a.explicit), dict(b.explicit)
    if set(pa) <= set(pb):
        ge_all = all(
            nat_certainly_equal(pa[p], pb[p]) or nat_certainly_less(pa[p], pb[p], config)
            for p in pa)
        strict = (any(nat_certainly_less(pa[p], pb[p], config) for p in pa)
                  or set(pa) < set(pb))
        if ge_all and len(a.intervals) == len(b.intervals) == 1:
            (lo1, hi1), (lo2, hi2) = a.intervals[0], b.intervals[0]
            if lo1 == lo2 and nat_certainly_less(hi1, hi2, config):
                return True
        if ge_all and not a.intervals and not b.intervals and strict:
            return True
    return False


def pairwise_all_different(values: list[FactoredNatural],
                           config: ToolConfig = DEFAULT_CONFIG) -> Optional[tuple[int, int]]:
    """Index pair of the first certified collision, or None if all distinct.

    One hash pass finds structurally equal values.  It also decides every
    plain-vs-plain pair, since plain values (see FactoredNatural.is_plain)
    have a unique normal form: a list of plain values is never
    materialised.  Only when the list holds a non-plain value are values
    compared by their integers, each materialised at most once per object
    (see to_integer), and pairs of overflowing values certified one by one.
    """
    seen: dict[FactoredNatural, int] = {}
    for i, v in enumerate(values):
        if v in seen:
            return seen[v], i
        seen[v] = i
    if all(v.is_plain for v in values):
        return None
    # values within the bit budget compare as plain integers; anything that
    # overflows is automatically distinct from them and only the (few)
    # overflowing values need certified pairwise treatment
    small: dict[int, int] = {}
    big: list[int] = []
    for i, v in enumerate(values):
        iv = to_integer(v, config)
        if iv is OVERFLOW:
            big.append(i)
        else:
            if iv in small:
                return small[iv], i
            small[iv] = i
    for a in range(len(big)):
        for b in range(a + 1, len(big)):
            if not certainly_different(values[big[a]], values[big[b]], config):
                return big[a], big[b]
    return None
