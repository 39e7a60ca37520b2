"""Orbit/anti-orbit family construction, certified verification at depth,
and partial set-theoretical entropy estimates.

Six built-in family schemes realize the catalogued constructions:

====================  ======================================  ==========
scheme                n-th member of family k (or prime p)    direction
====================  ======================================  ==========
PHI_ANTI              2^k * 3^n                               anti-orbit
D_ANTI                x_1 = p, x_{n+1} = p^(x_n - 1)          anti-orbit
OMEGA_ANTI            x_1 = p, x_{n+1} = p^(x_n)              anti-orbit
SMALL_OMEGA_ANTI      x_1 = p, x_{n+1} = p*q_{j+1}...q_{j+x_n-1}  anti-orbit
PSI_ORBIT             3^k * 2^n                               orbit
J2_ORBIT              2^(2^(n+1) k + 2^n - 1) * 3             orbit
====================  ======================================  ==========

Anti-orbit terms grow as exponent towers; once a term's value passes the
bit budget the next term's shape holds a DeferredValue and the recurrence
is checked by exact symbolic equality instead of integer comparison.
Infinite orbit/anti-orbit numbers are never reported as infinite, only as
">= c certified at depth d".
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .config import DEFAULT_CONFIG, ToolConfig
from .arithfun import (
    BIG_OMEGA, D, FunctionId, J2, PHI, PSI, SMALL_OMEGA,
    evaluate, monotone_profile, scalar_value,
)
from .factorint import (
    BudgetExceeded, DeferredValue, FactoredNatural, OVERFLOW,
    factorize, nth_prime, pairwise_all_different, prime_factors, prime_index,
    to_integer,
)
from .preimage import complete_preimage, is_expansive_family, preimage_closure
from .reports import Counterexample, VerificationReport


class MismatchedScheme(Exception):
    """Scheme and function (or scheme mix) do not belong together."""


class Scheme(enum.Enum):
    PHI_ANTI = "phi-anti"
    D_ANTI = "d-anti"
    OMEGA_ANTI = "omega-anti"
    SMALL_OMEGA_ANTI = "smallomega-anti"
    PSI_ORBIT = "psi-orbit"
    J2_ORBIT = "j2-orbit"


SCHEME_FUNCTION = {
    Scheme.PHI_ANTI: PHI,
    Scheme.D_ANTI: D,
    Scheme.OMEGA_ANTI: BIG_OMEGA,
    Scheme.SMALL_OMEGA_ANTI: SMALL_OMEGA,
    Scheme.PSI_ORBIT: PSI,
    Scheme.J2_ORBIT: J2,
}

ANTI_SCHEMES = {Scheme.PHI_ANTI, Scheme.D_ANTI, Scheme.OMEGA_ANTI,
                Scheme.SMALL_OMEGA_ANTI}
ORBIT_SCHEMES = {Scheme.PSI_ORBIT, Scheme.J2_ORBIT}


def scheme_depth_cap(scheme: Scheme, config: ToolConfig) -> int:
    return {
        Scheme.PHI_ANTI: config.depth_cap_phi_anti,
        Scheme.D_ANTI: config.depth_cap_d_anti,
        Scheme.OMEGA_ANTI: config.depth_cap_omega_anti,
        Scheme.SMALL_OMEGA_ANTI: config.depth_cap_smallomega_anti,
        Scheme.PSI_ORBIT: config.depth_cap_psi_orbit,
        Scheme.J2_ORBIT: config.depth_cap_j2_orbit,
    }[scheme]


@dataclass(frozen=True)
class FamilySpec:
    """One family of a scheme: index k for the 2^k/3^k shapes, or the
    index-th admissible prime (skipping 2 where the lemma does)."""
    scheme: Scheme
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("family index starts at 1")

    @property
    def prime(self) -> Optional[int]:
        if self.scheme is Scheme.OMEGA_ANTI:
            return nth_prime(self.index)
        if self.scheme in (Scheme.D_ANTI, Scheme.SMALL_OMEGA_ANTI):
            return nth_prime(self.index + 1)  # odd primes: 3, 5, 7, ...
        return None

    def describe(self) -> str:
        p = self.prime
        return f"{self.scheme.value} {'p=%d' % p if p else 'k=%d' % self.index}"


def family_terms(spec: FamilySpec, depth: int,
                 config: ToolConfig = DEFAULT_CONFIG) -> list[FactoredNatural]:
    """The first `depth` terms of the family, exact factored form."""
    cap = scheme_depth_cap(spec.scheme, config)
    if not 1 <= depth <= cap:
        raise BudgetExceeded(
            f"depth {depth} outside 1..{cap} for {spec.scheme.value}")
    k = spec.index
    if spec.scheme is Scheme.PHI_ANTI:
        return [FactoredNatural(((2, k), (3, n))) for n in range(1, depth + 1)]
    if spec.scheme is Scheme.PSI_ORBIT:
        return [FactoredNatural(((2, n), (3, k))) for n in range(1, depth + 1)]
    if spec.scheme is Scheme.J2_ORBIT:
        return [FactoredNatural(((2, 2 ** (n + 1) * k + 2 ** n - 1), (3, 1)))
                for n in range(1, depth + 1)]

    p = spec.prime
    terms = [FactoredNatural(((p, 1),))]
    if spec.scheme is Scheme.SMALL_OMEGA_ANTI:
        j = prime_index(p, config)
    prev_value: Union[int, object] = p
    for _ in range(depth - 1):
        prev = terms[-1]
        if spec.scheme is Scheme.D_ANTI:
            exp = prev_value - 1 if prev_value is not OVERFLOW else DeferredValue(prev, -1)
            term = FactoredNatural(((p, exp),))
        elif spec.scheme is Scheme.OMEGA_ANTI:
            exp = prev_value if prev_value is not OVERFLOW else DeferredValue(prev, 0)
            term = FactoredNatural(((p, exp),))
        else:  # SMALL_OMEGA_ANTI: p * q_{j+1} * ... * q_{j + x_n - 1}
            hi = (j + prev_value - 1 if prev_value is not OVERFLOW
                  else DeferredValue(prev, j - 1))
            term = FactoredNatural(((p, 1),), ((j + 1, hi),))
        terms.append(term)
        prev_value = to_integer(term, config)
    return terms


def family_term(spec: FamilySpec, n: int,
                config: ToolConfig = DEFAULT_CONFIG) -> FactoredNatural:
    """The n-th term (n >= 1) of the family."""
    return family_terms(spec, n, config)[-1]


# ---------------------------------------------------------------------------
# recurrence verification


def _value_matches(value, expected: FactoredNatural, config: ToolConfig) -> bool:
    """Does an evaluate() result equal the expected factored natural?"""
    if isinstance(value, FactoredNatural):
        return value == expected
    if isinstance(value, int):
        ev = to_integer(expected, config)
        return ev is not OVERFLOW and ev == value
    if isinstance(value, DeferredValue):
        if value.offset == 0 and value.base == expected:
            return True
        rv = value.resolve(config)
        ev = to_integer(expected, config)
        return rv is not OVERFLOW and ev is not OVERFLOW and rv == ev
    return False


def _check_scheme(spec: FamilySpec, f: FunctionId, anti: bool) -> None:
    want_anti = spec.scheme in ANTI_SCHEMES
    if want_anti != anti:
        kind = "anti-orbit" if anti else "orbit"
        raise MismatchedScheme(f"{spec.scheme.value} is not an {kind} scheme")
    expected_f = SCHEME_FUNCTION[spec.scheme]
    if f != expected_f:
        raise MismatchedScheme(
            f"{spec.scheme.value} is a {expected_f} family, not {f}")


def _verify_family(spec: FamilySpec, f: FunctionId, terms: list[FactoredNatural],
                   anti: bool, config: ToolConfig) -> VerificationReport:
    depth = len(terms)
    lemma = f"{spec.scheme.value} {spec.describe()}"
    notes = []
    if any(t.has_deferred for t in terms):
        notes.append("terms past the bit budget checked by exact symbolic equality")
    for i in range(depth - 1):
        # anti-orbit: f(term_{n+1}) = term_n; orbit: f(term_n) = term_{n+1}
        src, dst = (terms[i + 1], terms[i]) if anti else (terms[i], terms[i + 1])
        got = evaluate(f, src, config)
        if not _value_matches(got, dst, config):
            return VerificationReport(
                lemma_id=lemma, families_checked=1, depth=depth, status="FAIL",
                counterexample=Counterexample(spec.index, i + 1, dst, got))
    collision = pairwise_all_different(terms, config)
    if collision is not None:
        a, b = collision
        return VerificationReport(
            lemma_id=lemma, families_checked=1, depth=depth, status="FAIL",
            counterexample=Counterexample(
                spec.index, b + 1, terms[a], terms[b],
                detail=f"term {b + 1} repeats term {a + 1}"))
    return VerificationReport(lemma_id=lemma, families_checked=1, depth=depth,
                              status="PASS", notes=tuple(notes))


def verify_antiorbit(spec: FamilySpec, f: FunctionId, depth: int,
                     config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Check f(term_{n+1}) == term_n for n < depth plus injectivity."""
    _check_scheme(spec, f, anti=True)
    return _verify_family(spec, f, family_terms(spec, depth, config), True, config)


def verify_orbit(spec: FamilySpec, f: FunctionId, depth: int,
                 config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Check f(term_n) == term_{n+1} for n < depth plus injectivity."""
    _check_scheme(spec, f, anti=False)
    return _verify_family(spec, f, family_terms(spec, depth, config), False, config)


def verify_disjoint(specs: Sequence[FamilySpec], depth: int,
                    config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Certify that family prefixes are pairwise disjoint (and that each
    family satisfies its recurrence, so the emitted bound is justified).

    Each family is built once; its recurrence check and the disjointness
    check share those terms and hence their cached integer values."""
    if not specs:
        raise ValueError("need at least one family")
    scheme = specs[0].scheme
    if any(s.scheme is not scheme for s in specs):
        raise MismatchedScheme("verify_disjoint needs a single scheme")
    anti = scheme in ANTI_SCHEMES
    f = SCHEME_FUNCTION[scheme]
    lemma = f"{scheme.value} x{len(specs)} depth {depth}"
    notes: list[str] = []
    all_terms: list[FactoredNatural] = []
    owner: list[tuple[int, int]] = []  # flat index -> (family position in input, term no.)
    for fam_no, spec in enumerate(specs, start=1):
        terms = family_terms(spec, depth, config)
        rep = _verify_family(spec, f, terms, anti, config)
        if not rep.passed:
            return VerificationReport(
                lemma_id=lemma, families_checked=len(specs), depth=depth,
                status="FAIL", counterexample=rep.counterexample)
        notes.extend(n for n in rep.notes if n not in notes)
        all_terms.extend(terms)
        owner.extend((fam_no, i + 1) for i in range(depth))
    collision = pairwise_all_different(all_terms, config)
    if collision is not None:
        a, b = collision
        fam_a, pos_a = owner[a]
        fam_b, pos_b = owner[b]
        return VerificationReport(
            lemma_id=lemma, families_checked=len(specs), depth=depth,
            status="FAIL",
            counterexample=Counterexample(
                fam_b, pos_b, all_terms[a], all_terms[b],
                detail=f"collides with family {fam_a} position {pos_a}"))
    symbol = "a" if anti else "o"
    bound = f"{symbol}({f}) >= {len(specs)} certified at depth {depth}"
    return VerificationReport(lemma_id=lemma, families_checked=len(specs),
                              depth=depth, status="PASS",
                              certified_bound=bound, notes=tuple(notes))


def default_family_specs(scheme: Scheme, count: int) -> list[FamilySpec]:
    """Families 1..count in the lemma's stated enumeration order."""
    return [FamilySpec(scheme, i) for i in range(1, count + 1)]


# ---------------------------------------------------------------------------
# the generic multiplicative construction


_VALIDATION_DEPTH = 5


@dataclass(frozen=True)
class GenericFamilySpec:
    """Orbit recipe for a multiplicative f with f(p^n) = p^g(p,n) * h(p).

    ``exponent_maps[i]`` holds (a_i, b_i) with g(p_i, n) = a_i*n + b_i;
    ``cofactors[i]`` is h(p_i), which must be supported on ``primes``;
    ``seeds[j]`` is the exponent vector of family j's first term.
    """
    function: FunctionId
    primes: tuple[int, ...]
    exponent_maps: tuple[tuple[int, int], ...]
    cofactors: tuple[FactoredNatural, ...]
    seeds: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = len(self.primes)
        if len(set(self.primes)) != m or m == 0:
            raise ValueError("primes must be distinct and nonempty")
        if len(self.exponent_maps) != m or len(self.cofactors) != m:
            raise ValueError("need one exponent map and cofactor per prime")
        support = set(self.primes)
        for h in self.cofactors:
            if h.has_intervals or any(p not in support for p, _ in h.explicit):
                raise ValueError(f"cofactor {h!r} not supported on {self.primes}")
        for seed in self.seeds:
            if len(seed) != m:
                raise ValueError("seed arity must match primes")

    def g(self, i: int, n):
        a, b = self.exponent_maps[i]
        return a * n + b

    def step_map(self, i: int):
        """s_i(x) = g(p_i, x) + total exponent of p_i across all cofactors."""
        p = self.primes[i]
        boost = sum(e for h in self.cofactors for q, e in h.explicit if q == p)
        a, b = self.exponent_maps[i]
        return lambda x: a * x + b + boost


def _generic_term(spec: GenericFamilySpec, vector: tuple[int, ...]) -> FactoredNatural:
    return FactoredNatural((p, e) for p, e in zip(spec.primes, vector) if e >= 1)


def generic_family_terms(spec: GenericFamilySpec, family: int, depth: int,
                         config: ToolConfig = DEFAULT_CONFIG,
                         ) -> tuple[list[FactoredNatural], VerificationReport]:
    """Terms of one family plus a report that (a) the modelled prime-power
    identity holds at validation depth, (b) the terms form a verified
    f-orbit, and (c) exponent vectors are injective across the window."""
    if not 1 <= family <= len(spec.seeds):
        raise ValueError(f"family must be in 1..{len(spec.seeds)}")
    f = spec.function
    lemma = f"generic construction for {f}"
    # consistency of the model: eval(f, p_i^n) == p_i^g(p_i, n) * h(p_i)
    for i, p in enumerate(spec.primes):
        for n in range(1, _VALIDATION_DEPTH + 1):
            got = evaluate(f, FactoredNatural(((p, n),)), config)
            g = spec.g(i, n)
            if g < 0:
                raise ValueError(f"g({p},{n}) = {g} < 0")
            want = FactoredNatural(
                ((p, g),) if g >= 1 else (), ()) if g >= 1 else FactoredNatural()
            want = FactoredNatural(want.explicit + spec.cofactors[i].explicit)
            if got != want:
                raise ValueError(
                    f"model inconsistent at p={p}, n={n}: f({p}^{n}) = {got!r}, "
                    f"model says {want!r}")
    steps = [spec.step_map(i) for i in range(len(spec.primes))]

    def window(fam: int) -> list[tuple[int, ...]]:
        vec = tuple(spec.seeds[fam - 1])
        out = [vec]
        for _ in range(depth - 1):
            vec = tuple(s(x) for s, x in zip(steps, vec))
            if any(x < 1 for x in vec):
                raise BudgetExceeded(f"exponent vector {vec} leaves the support")
            out.append(vec)
        return out

    vectors = window(family)
    terms = [_generic_term(spec, v) for v in vectors]
    for i in range(depth - 1):
        got = evaluate(f, terms[i], config)
        if not _value_matches(got, terms[i + 1], config):
            return terms, VerificationReport(
                lemma_id=lemma, families_checked=1, depth=depth, status="FAIL",
                counterexample=Counterexample(family, i + 1, terms[i + 1], got))
    seen: dict[tuple[int, ...], tuple[int, int]] = {}
    for fam in range(1, len(spec.seeds) + 1):
        for pos, vec in enumerate(window(fam), start=1):
            if vec in seen:
                prev = seen[vec]
                return terms, VerificationReport(
                    lemma_id=lemma, families_checked=len(spec.seeds), depth=depth,
                    status="FAIL",
                    counterexample=Counterexample(
                        fam, pos, prev, vec,
                        detail="exponent-vector map is not injective"))
            seen[vec] = (fam, pos)
    report = VerificationReport(
        lemma_id=lemma, families_checked=len(spec.seeds), depth=depth,
        status="PASS",
        certified_bound=f"o({f}) >= {len(spec.seeds)} certified at depth {depth}")
    return terms, report


def psi_generic_spec(families: int = 5) -> GenericFamilySpec:
    """psi modelled as g(p, n) = n - 1 with h(2) = 3, h(3) = 4."""
    return GenericFamilySpec(
        function=PSI,
        primes=(2, 3),
        exponent_maps=((1, -1), (1, -1)),
        cofactors=(factorize(3), factorize(4)),
        seeds=tuple((1, k) for k in range(1, families + 1)),
    )


def j2_generic_spec(families: int = 5) -> GenericFamilySpec:
    """J_2 modelled as g(p, n) = 2n - 2 with h(2) = 3, h(3) = 8."""
    return GenericFamilySpec(
        function=J2,
        primes=(2, 3),
        exponent_maps=((2, -2), (2, -2)),
        cofactors=(factorize(3), factorize(8)),
        seeds=tuple((2 ** 2 * k + 2 - 1, 1) for k in range(1, families + 1)),
    )


# ---------------------------------------------------------------------------
# monotonicity classification


DECREASING_WEAK = "DECREASING_WEAK"
INCREASING_WEAK = "INCREASING_WEAK"
INCREASING_STRICT_ABOVE_1 = "INCREASING_STRICT_ABOVE_1"
NO_MONOTONE_CLASS = "NONE"


@dataclass(frozen=True)
class MonotonicityReport:
    function: FunctionId
    bound: int
    kind: str
    conclusions: tuple[str, ...]
    witness: Optional[int] = None  # least n violating the nearest hypothesis


def classify_monotonicity(f: FunctionId, bound: int,
                          config: ToolConfig = DEFAULT_CONFIG) -> MonotonicityReport:
    """Check f against the identity pointwise on 1..bound and report which
    monotone-map conclusions apply, always tagged conditional-at-bound."""
    if bound < 2:
        raise ValueError("bound >= 2")
    prof = monotone_profile(f, bound, config)
    cond = f"(conditional: hypothesis verified up to {bound} only)"
    conclusions = []
    if prof.weakly_decreasing:
        conclusions.append(f"o({f}) = 0 {cond}")
    if prof.weakly_increasing:
        conclusions.append(f"a({f}) = 0 {cond}")
    if prof.strictly_increasing_above_1:
        conclusions.append(f"o({f}) > 0 {cond}")
    if prof.strictly_increasing_above_1:
        kind = INCREASING_STRICT_ABOVE_1
        witness = None
    elif prof.weakly_decreasing:
        kind, witness = DECREASING_WEAK, prof.ge_violation
    elif prof.weakly_increasing:
        kind, witness = INCREASING_WEAK, prof.strict_violation
    else:
        kind, witness = NO_MONOTONE_CLASS, prof.le_violation or prof.ge_violation
    return MonotonicityReport(f, bound, kind, tuple(conclusions), witness)


# ---------------------------------------------------------------------------
# entropy estimates


FORWARD = "FORWARD"
BACKWARD = "BACKWARD"
AMBIENT = "AMBIENT"
CORE = "CORE"


@dataclass(frozen=True)
class EntropyEstimate:
    function: FunctionId
    seeds: tuple[int, ...]
    horizon: int
    value: Fraction
    direction: str
    mode: str = AMBIENT
    set_size: int = 0

    def __post_init__(self):
        if self.direction not in (FORWARD, BACKWARD):
            raise ValueError("direction is FORWARD or BACKWARD")
        if self.mode not in (AMBIENT, CORE):
            raise ValueError("mode is AMBIENT or CORE")


def _as_factored(value, config: ToolConfig) -> FactoredNatural:
    if isinstance(value, FactoredNatural):
        return value
    if isinstance(value, DeferredValue):
        value = value.resolve(config)
        if value is OVERFLOW:
            raise BudgetExceeded("orbit value exceeded the bit budget")
    if value.bit_length() > 128:
        raise BudgetExceeded(f"cannot refactor {value.bit_length()}-bit orbit value")
    return factorize(value, config)


def ent_set_estimate(f: FunctionId, seeds: Sequence[int], horizon: int,
                     config: ToolConfig = DEFAULT_CONFIG) -> EntropyEstimate:
    """#(A u f(A) u ... u f^(horizon-1)(A)) / horizon, computed exactly."""
    if horizon < 1:
        raise ValueError("horizon >= 1")
    if not seeds:
        raise ValueError("seed set must be nonempty")
    current = {factorize(s, config) for s in seeds}
    acc = set(current)
    for _ in range(horizon - 1):
        nxt = {_as_factored(evaluate(f, x, config), config) for x in current}
        if nxt == current:
            break  # the set is fixed; further unions add nothing
        current = nxt
        acc |= current
    return EntropyEstimate(f, tuple(seeds), horizon,
                           Fraction(len(acc), horizon), FORWARD,
                           set_size=len(acc))


def ent_cset_estimate(f: FunctionId, seeds: Sequence[int], horizon: int,
                      mode: str = AMBIENT,
                      config: ToolConfig = DEFAULT_CONFIG) -> EntropyEstimate:
    """Preimage analogue over ambient N (or the surjective core when
    expansiveness makes core membership decidable)."""
    if horizon < 1:
        raise ValueError("horizon >= 1")
    if not seeds:
        raise ValueError("seed set must be nonempty")
    if mode == CORE and not is_expansive_family(f):
        raise ValueError("CORE mode needs a verified expansive function")

    def keep(x: int) -> bool:
        return mode == AMBIENT or surjective_core_membership(f, x, config)

    current = {s for s in seeds if keep(s)}
    acc = set(current)
    for _ in range(horizon - 1):
        nxt: set[int] = set()
        for y in current:
            nxt.update(x for x in complete_preimage(f, y, config) if keep(x))
        if not nxt or nxt == current:
            acc |= nxt
            break
        current = nxt
        acc |= current
    return EntropyEstimate(f, tuple(seeds), horizon,
                           Fraction(len(acc), horizon), BACKWARD, mode,
                           set_size=len(acc))


def surjective_core_membership(f: FunctionId, x: int,
                               config: ToolConfig = DEFAULT_CONFIG) -> bool:
    """x lies in sc(f) = intersection of the forward images f^n(N).

    For expansive f the preimage tree of x is finite (everything stays
    <= x), and arbitrarily deep ancestry exists exactly when the tree
    contains a fixed point.
    """
    if not is_expansive_family(f):
        raise ValueError(f"core membership needs an expansive f, not {f}")
    if x < 1:
        raise ValueError("x >= 1")
    # verify expansiveness on the range the tree can touch
    prof = monotone_profile(f, max(x, 2), config)
    if not prof.weakly_increasing:
        raise ValueError(f"{f} not expansive below {x}")  # pragma: no cover
    return any(scalar_value(f, prime_factors(y, config)) == y
               for y in preimage_closure(f, x, None, config))


IN_CORE = "IN_CORE"
NOT_IN_CORE = "NOT_IN_CORE"


def surjective_core_verdict(f: FunctionId, x: int,
                            config: ToolConfig = DEFAULT_CONFIG) -> str:
    return IN_CORE if surjective_core_membership(f, x, config) else NOT_IN_CORE


# ---------------------------------------------------------------------------
# exploratory search (the open-problem tooling; no claims)


@dataclass(frozen=True)
class SearchBudget:
    max_start: int = 200
    max_depth: int = 30
    max_families: int = 10
    value_bits: int = 512
    scan_bound: int = 5000


@dataclass(frozen=True)
class CandidateFamily:
    direction: str  # FORWARD (orbit) or BACKWARD (anti-orbit)
    values: tuple[int, ...]
    label: str = "EXPERIMENTAL"


def search_families(f: FunctionId, budget: SearchBudget = SearchBudget(),
                    direction: str = FORWARD,
                    config: ToolConfig = DEFAULT_CONFIG) -> list[CandidateFamily]:
    """Greedy hunt for disjoint orbit / anti-orbit prefixes.

    Results are labelled EXPERIMENTAL: a prefix of length max_depth is
    evidence, never a verdict about the infinite quantities.
    """
    if direction == FORWARD:
        return _search_orbits(f, budget, config)
    if direction == BACKWARD:
        return _search_antiorbits(f, budget, config)
    raise ValueError("direction is FORWARD or BACKWARD")


def _search_orbits(f: FunctionId, budget: SearchBudget,
                   config: ToolConfig) -> list[CandidateFamily]:
    used: set[int] = set()
    out: list[CandidateFamily] = []
    for start in range(2, budget.max_start + 1):
        if len(out) >= budget.max_families:
            break
        if start in used:
            continue
        seq = [start]
        seen = {start}
        ok = True
        while len(seq) < budget.max_depth:
            v = evaluate(f, factorize(seq[-1], config), config)
            v = v if isinstance(v, int) else to_integer(v, config)
            if v is OVERFLOW or v.bit_length() > budget.value_bits:
                ok = False
                break
            if v in seen or v in used:
                ok = False
                break
            seq.append(v)
            seen.add(v)
        if ok and len(seq) == budget.max_depth:
            out.append(CandidateFamily(FORWARD, tuple(seq)))
            used.update(seq)
    return out


def _search_antiorbits(f: FunctionId, budget: SearchBudget,
                       config: ToolConfig) -> list[CandidateFamily]:
    from .preimage import NotFiniteFibre, preimage_bounded

    def preimages(y: int) -> list[int]:
        try:
            return list(complete_preimage(f, y, config))
        except NotFiniteFibre:
            return list(preimage_bounded(f, y, budget.scan_bound, config).members)
        except BudgetExceeded:
            return []

    used: set[int] = set()
    out: list[CandidateFamily] = []

    def extend(chain: list[int], seen: set[int]) -> Optional[list[int]]:
        if len(chain) == budget.max_depth:
            return chain
        for x in preimages(chain[-1]):
            if x in seen or x in used or x == chain[-1]:
                continue
            got = extend(chain + [x], seen | {x})
            if got:
                return got
        return None

    for start in range(2, budget.max_start + 1):
        if len(out) >= budget.max_families:
            break
        if start in used:
            continue
        chain = extend([start], {start})
        if chain:
            out.append(CandidateFamily(BACKWARD, tuple(chain)))
            used.update(chain)
    return out
