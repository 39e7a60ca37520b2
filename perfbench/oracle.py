"""Independent arithmetic for the benchmark's expected answers.

Everything here uses trial division and the literal definitions of phi,
psi and phi_star.  Nothing imports arithdyn, so a defect in the program
cannot hide inside its own check.
"""
from __future__ import annotations

from fractions import Fraction


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def phi(n: int) -> int:
    out = 1
    for p, a in factor(n):
        out *= (p - 1) * p ** (a - 1)
    return out


def psi(n: int) -> int:
    out = 1
    for p, a in factor(n):
        out *= (p + 1) * p ** (a - 1)
    return out


def phi_star(n: int) -> int:
    out = 1
    for p, a in factor(n):
        out *= p ** a - 1
    return out


def _primes():
    p = 2
    while True:
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            yield p
        p += 1


def phi_preimage_limit(m: int) -> int:
    """An x0 with phi(x) <= m implying x <= x0.

    phi(x) >= sqrt(x) for x not in {2, 6}.  Take the first primorial P above
    max(m^2, 6): every x >= P has phi(x) > m, and every x < P has fewer
    distinct primes than P, so x / phi(x) is at most the product of
    p / (p - 1) over the primes below P's largest one.
    """
    primorial, ratio = 1, Fraction(1)
    for p in _primes():
        if primorial * p > max(m * m, 6):
            return int(ratio * m)
        primorial *= p
        ratio *= Fraction(p, p - 1)


def fibres(f, limit: int, bound: int) -> dict[int, list[int]]:
    """{y: ascending x in 1..limit with f(x) = y} for y <= bound."""
    out: dict[int, list[int]] = {}
    for x in range(1, limit + 1):
        y = f(x)
        if y <= bound:
            out.setdefault(y, []).append(x)
    return out


def phi_fibres(bound: int) -> dict[int, list[int]]:
    """Complete phi fibres of every y <= bound."""
    return fibres(phi, phi_preimage_limit(bound), bound)


def psi_closure(x: int) -> list[int]:
    """All n with psi^k(n) = x for some k >= 0.  psi(n) >= n, so every
    member is at most x."""
    pre = fibres(psi, x, x)
    seen, frontier = {x}, [x]
    while frontier:
        for n in pre.get(frontier.pop(), []):
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    return sorted(seen)


def phi_closure(x: int, scan_bound: int) -> tuple[list[int], bool]:
    """Preimage closure of x under phi, expanding only nodes <= scan_bound.
    Returns (members, truncated)."""
    pre = phi_fibres(scan_bound)
    seen, frontier, truncated = {x}, [x], False
    while frontier:
        y = frontier.pop()
        if y > scan_bound:
            truncated = True
            continue
        for n in pre.get(y, []):
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    return sorted(seen), truncated


def psi_forward(x: int, max_steps: int = 512, value_bits: int = 120) -> tuple[list[int], bool]:
    """Forward psi orbit of x as a sorted member list, and whether it was cut
    off by the value-size or step budget.  The prime factors of p + 1 are
    below p for odd p, so no orbit value has a prime factor above max(x, 3)
    and trial division stays cheap."""
    seen, cur = {x}, x
    for _ in range(max_steps):
        if cur.bit_length() > value_bits:
            return sorted(seen), True
        cur = psi(cur)
        if cur in seen:
            return sorted(seen), False
        seen.add(cur)
    return sorted(seen), True


def phi_star_backward_search(max_start: int, max_depth: int, max_families: int,
                             scan_bound: int) -> list[list[int]]:
    """Greedy disjoint phi_star anti-orbit prefixes from preimages found by a
    scan of 1..scan_bound: the documented search rule, re-stated."""
    pre = fibres(phi_star, scan_bound, scan_bound)
    used: set[int] = set()
    out: list[list[int]] = []

    def extend(chain: list[int], seen: set[int]):
        if len(chain) == max_depth:
            return chain
        for n in pre.get(chain[-1], []):
            if n in seen or n in used or n == chain[-1]:
                continue
            got = extend(chain + [n], seen | {n})
            if got:
                return got
        return None

    for start in range(2, max_start + 1):
        if len(out) >= max_families:
            break
        if start in used:
            continue
        chain = extend([start], {start})
        if chain:
            out.append(chain)
            used.update(chain)
    return out
