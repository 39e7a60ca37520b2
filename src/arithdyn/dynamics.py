"""Orbit/anti-orbit family construction, certified verification at depth,
and partial set-theoretical entropy estimates.

Six built-in family schemes realize the catalogued constructions:

=================  =====  ==========================================  ==========
scheme (name)      f      n-th member of family k (or prime p)        direction
=================  =====  ==========================================  ==========
phi-anti           phi    2^k * 3^n                                   anti-orbit
d-anti             d      x_1 = p, x_{n+1} = p^(x_n - 1)              anti-orbit
omega-anti         Omega  x_1 = p, x_{n+1} = p^(x_n)                  anti-orbit
smallomega-anti    omega  x_1 = p, x_{n+1} = p*q_{j+1}...q_{j+x_n-1}  anti-orbit
psi-orbit          psi    3^k * 2^n                                   orbit
j2-orbit           J_2    2^(2^(n+1) k + 2^n - 1) * 3                 orbit
=================  =====  ==========================================  ==========

Anti-orbit terms grow as exponent towers; once a term's certified size
passes the bit budget its shape holds the previous term as a DeferredValue,
and the recurrence is checked by exact symbolic equality instead of integer
comparison.
Infinite orbit/anti-orbit numbers are never reported as infinite, only as
">= c certified at depth d".
"""
from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Collection, Iterable, NamedTuple, Optional, Sequence

from .config import DEFAULT_CONFIG, ToolConfig
from .arithfun import (
    BIG_OMEGA, D, FunctionId, J2, PHI, PSI, SMALL_OMEGA, Value, evaluate, forward_orbit,
    monotone_profile, scalar_value,
)
from .factorint import (
    BudgetExceeded, DeferredValue, FactoredNatural, OVERFLOW, _factored,
    _value_bitlen_lb, factorize, nat_resolve, nth_prime, pairwise_all_different, prime_factors,
    prime_index, to_integer,
)
from .preimage import fibres, preimage_closure
from .reports import CheckedRecord, Counterexample, VerificationReport


class Scheme(enum.Enum):
    """A built-in family scheme.  The value is its name ("phi-anti"); each
    member also carries the function its families follow, whether they
    are anti-orbits, the ToolConfig key of its depth cap, and its default
    size (families, depth) for verify-lemma and `table orbit-numbers`."""
    PHI_ANTI = ("phi-anti", PHI, True, "depth_cap", (20, 30))
    D_ANTI = ("d-anti", D, True, "tower_depth_cap", (5, 5))
    OMEGA_ANTI = ("omega-anti", BIG_OMEGA, True, "tower_depth_cap", (5, 5))
    SMALL_OMEGA_ANTI = ("smallomega-anti", SMALL_OMEGA, True, "tower_depth_cap", (5, 6))
    PSI_ORBIT = ("psi-orbit", PSI, False, "depth_cap", (20, 30))
    J2_ORBIT = ("j2-orbit", J2, False, "depth_cap", (20, 30))

    def __new__(cls, value: str, function: FunctionId, anti: bool, cap_key: str,
                size: tuple[int, int]):
        member = object.__new__(cls)
        member._value_ = value
        member.function, member.anti, member.cap_key, member.size = function, anti, cap_key, size
        return member


# the schemes whose terms are built from the previous term's value
TOWER_SCHEMES = frozenset((Scheme.D_ANTI, Scheme.OMEGA_ANTI, Scheme.SMALL_OMEGA_ANTI))


def scheme_depth_cap(scheme: Scheme, config: ToolConfig) -> int:
    return getattr(config, scheme.cap_key)


class _FamilySpec(NamedTuple):
    scheme: Scheme
    index: int


class FamilySpec(CheckedRecord, _FamilySpec):
    """One family of a scheme: index k for the 2^k/3^k shapes, or the
    index-th admissible prime (skipping 2 where the lemma does)."""
    __slots__ = ()

    def _check(self) -> None:
        if self.index < 1:
            raise ValueError("family index starts at 1")

    def prime(self, config: ToolConfig = DEFAULT_CONFIG) -> Optional[int]:
        if self.scheme is Scheme.OMEGA_ANTI:
            return nth_prime(self.index, config)
        if self.scheme in (Scheme.D_ANTI, Scheme.SMALL_OMEGA_ANTI):
            return nth_prime(self.index + 1, config)  # odd primes: 3, 5, 7, ...
        return None

    def describe(self, config: ToolConfig = DEFAULT_CONFIG) -> str:
        p = self.prime(config)
        return f"{self.scheme.value} {'p=%d' % p if p else 'k=%d' % self.index}"


def family_terms(spec: FamilySpec, depth: int,
                 config: ToolConfig = DEFAULT_CONFIG) -> list[FactoredNatural]:
    """The first `depth` terms of the family, exact factored form, in a
    new list on every call.

    A tower term (d, Omega, omega) holds the value of the term before it
    plus an offset (the link): an exponent for d and Omega, an interval
    end for omega.  The link is an int only while the new term might
    still fit the bit budget.  Otherwise it is a DeferredValue of the term
    before plus the offset, and that term is never materialised: evaluate
    returns the DeferredValue at the new term, so the recurrence is decided
    by identity."""
    cap = scheme_depth_cap(spec.scheme, config)
    if not 1 <= depth <= cap:
        raise BudgetExceeded(
            f"depth {depth} outside 1..{cap} for {spec.scheme.value} "
            f"({spec.scheme.cap_key})")
    k = spec.index
    # the plain shapes 2^a * 3^b, a, b >= 1, are in normal form as written
    if spec.scheme is Scheme.PHI_ANTI:
        return [_factored(((2, k), (3, n))) for n in range(1, depth + 1)]
    if spec.scheme is Scheme.PSI_ORBIT:
        return [_factored(((2, n), (3, k))) for n in range(1, depth + 1)]
    if spec.scheme is Scheme.J2_ORBIT:
        return [_factored(((2, 2 ** (n + 1) * k + 2 ** n - 1), (3, 1)))
                for n in range(1, depth + 1)]

    p = spec.prime(config)
    if spec.scheme is Scheme.SMALL_OMEGA_ANTI:  # p * q_{j+1} * ... * q_{j + x_n - 1}
        j = prime_index(p, config)
        offset = j - 1

        def shape(link):
            return FactoredNatural(((p, 1),), ((j + 1, link),))
    else:  # p^(x_n - 1) for d, p^(x_n) for Omega
        offset = -1 if spec.scheme is Scheme.D_ANTI else 0

        def shape(link):
            return FactoredNatural(((p, link),))
    terms = [FactoredNatural(((p, 1),))]
    while len(terms) < depth:
        deferred = DeferredValue(terms[-1], offset)
        try:
            term = shape(deferred)
            fits = _value_bitlen_lb(term) <= config.bit_budget
        except ValueError:  # a small term cannot certify a nonempty interval
            fits = True
        if fits:
            value = to_integer(terms[-1], config)
            term = shape(deferred if value is OVERFLOW else value + offset)
        terms.append(term)
    return terms


# ---------------------------------------------------------------------------
# recurrence and disjointness verification


SYMBOLIC_NOTE = "terms past the bit budget checked by exact symbolic equality"


def _value_matches(value: Value, expected: FactoredNatural, config: ToolConfig) -> bool:
    """Does an evaluate() result equal the expected factored natural?  By
    identity where the structures agree, else by integer value."""
    if value == expected:
        return True
    got = nat_resolve(value, config)
    return got is not OVERFLOW and got == nat_resolve(expected, config)


def _check_families(lemma: str, f: FunctionId, anti: bool,
                    families: Sequence[tuple[int, list[FactoredNatural]]],
                    depth: int, config: ToolConfig) -> VerificationReport:
    """The one family check: every family's terms keep their recurrence,
    f(term_{n+1}) = term_n for an anti-orbit and f(term_n) = term_{n+1}
    for an orbit, and all terms, across every family, are pairwise
    distinct, so "x(f) >= #families certified at depth" is justified.

    ``families`` pairs each family's number, which a recurrence
    counterexample names, with its first `depth` terms; a collision names
    both families by their position in ``families``, from 1.  One
    pairwise pass over all terms also covers the pairs inside a family.

    A recurrence step whose value is the symbolic link DeferredValue(dst, 0)
    is decided by identity, without materialising dst; the PASS report
    then carries SYMBOLIC_NOTE."""
    def report(status, **fields):
        return VerificationReport(lemma_id=lemma, families_checked=len(families),
                                  depth=depth, status=status, **fields)

    all_terms: list[FactoredNatural] = []
    owner: list[tuple[int, int]] = []  # flat index -> (family position, term no.)
    symbolic = False
    for fam_no, (family, terms) in enumerate(families, start=1):
        for i in range(len(terms) - 1):
            src, dst = (terms[i + 1], terms[i]) if anti else (terms[i], terms[i + 1])
            got = evaluate(f, src, config)
            if isinstance(got, DeferredValue) and got.offset == 0 and got.base == dst:
                symbolic = True
            elif not _value_matches(got, dst, config):
                return report("FAIL", counterexample=Counterexample(family, i + 1, dst, got))
        all_terms.extend(terms)
        owner.extend((fam_no, i + 1) for i in range(len(terms)))
    collision = pairwise_all_different(all_terms, config)
    if collision is not None:
        a, b = collision
        fam_a, pos_a = owner[a]
        fam_b, pos_b = owner[b]
        return report("FAIL", counterexample=Counterexample(
            fam_b, pos_b, all_terms[a], all_terms[b],
            detail=f"collides with family {fam_a} position {pos_a}"))
    symbol = "a" if anti else "o"
    return report("PASS", notes=(SYMBOLIC_NOTE,) if symbolic else (),
                  certified_bound=f"{symbol}({f}) >= {len(families)} "
                                  f"certified at depth {depth}")


def verify_disjoint(specs: Sequence[FamilySpec], depth: int,
                    config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Certify that the first `depth` terms of each family follow the
    scheme's recurrence and that all of them, across every family, are
    pairwise distinct, so the emitted bound is justified.  One family is
    verify_disjoint([spec], depth).

    Each family is built once; the family check shares those terms and
    hence their cached integer values."""
    if not specs:
        raise ValueError("need at least one family")
    scheme = specs[0].scheme
    if any(s.scheme is not scheme for s in specs):
        raise ValueError("verify_disjoint needs a single scheme")
    families = [(spec.index, family_terms(spec, depth, config)) for spec in specs]
    return _check_families(f"{scheme.value} x{len(specs)} depth {depth}",
                           scheme.function, scheme.anti, families, depth, config)


def default_family_specs(scheme: Scheme, count: int) -> list[FamilySpec]:
    """Families 1..count in the lemma's stated enumeration order."""
    return [FamilySpec(scheme, i) for i in range(1, count + 1)]


# ---------------------------------------------------------------------------
# the generic multiplicative construction


_VALIDATION_DEPTH = 5


class _GenericFamilySpec(NamedTuple):
    function: FunctionId
    primes: tuple[int, ...]
    exponent_maps: tuple[tuple[int, int], ...]
    cofactors: tuple[FactoredNatural, ...]
    seeds: tuple[tuple[int, ...], ...]


class GenericFamilySpec(CheckedRecord, _GenericFamilySpec):
    """Orbit recipe for a multiplicative f with f(p^n) = p^g(p,n) * h(p).

    ``exponent_maps[i]`` holds (a_i, b_i) with g(p_i, n) = a_i*n + b_i;
    ``cofactors[i]`` is h(p_i), which must be supported on ``primes``;
    ``seeds[j]`` is the exponent vector of family j's first term.
    """
    __slots__ = ()

    def _check(self) -> None:
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


def generic_family_terms(spec: GenericFamilySpec, depth: int,
                         config: ToolConfig = DEFAULT_CONFIG,
                         ) -> tuple[list[list[FactoredNatural]], VerificationReport]:
    """The first `depth` terms of every family of the spec, plus the
    family check's report that they form disjoint f-orbits.  Raises
    ValueError if the modelled prime-power identity f(p_i^n) =
    p_i^g(p_i, n) * h(p_i) fails at validation depth.

    Family j's first term has exponent vector seeds[j]; each later vector
    applies x_i -> g(p_i, x_i) + (total exponent of p_i across all
    cofactors), which is f on a term with every exponent >= 1."""
    if depth < 1:
        raise ValueError("depth >= 1")  # no terms would certify no family
    f = spec.function
    boosts = []
    for (a, b), p, h in zip(spec.exponent_maps, spec.primes, spec.cofactors):
        for n in range(1, _VALIDATION_DEPTH + 1):
            got = evaluate(f, FactoredNatural(((p, n),)), config)
            g = a * n + b
            if g < 0:
                raise ValueError(f"g({p},{n}) = {g} < 0")
            want = FactoredNatural((((p, g),) if g >= 1 else ()) + h.explicit)
            if got != want:
                raise ValueError(
                    f"model inconsistent at p={p}, n={n}: f({p}^{n}) = {got!r}, "
                    f"model says {want!r}")
        boosts.append(sum(e for c in spec.cofactors for q, e in c.explicit if q == p))

    families = []
    for family, vec in enumerate(spec.seeds, start=1):
        terms = []
        for n in range(depth):
            if n:
                vec = tuple(a * x + b + boost for (a, b), boost, x
                            in zip(spec.exponent_maps, boosts, vec))
                if any(x < 1 for x in vec):
                    raise BudgetExceeded(f"exponent vector {vec} leaves the support")
            terms.append(FactoredNatural((p, e) for p, e in zip(spec.primes, vec) if e >= 1))
        families.append((family, terms))
    report = _check_families(f"generic construction for {f}", f, False, families,
                             depth, config)
    return [terms for _, terms in families], report


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
# entropy estimates


FORWARD = "FORWARD"
BACKWARD = "BACKWARD"
AMBIENT = "AMBIENT"
CORE = "CORE"


class _EntropyEstimate(NamedTuple):
    function: FunctionId
    seeds: tuple[int, ...]
    horizon: int
    direction: str
    set_size: int
    mode: str = AMBIENT


class EntropyEstimate(CheckedRecord, _EntropyEstimate):
    __slots__ = ()

    def _check(self) -> None:
        if self.direction not in (FORWARD, BACKWARD):
            raise ValueError("direction is FORWARD or BACKWARD")
        if self.mode not in (AMBIENT, CORE):
            raise ValueError("mode is AMBIENT or CORE")

    @property
    def value(self):
        """set_size / horizon as an exact Fraction (imported here: only
        the entropy reports read it)."""
        from fractions import Fraction
        return Fraction(self.set_size, self.horizon)


def _check_walk(seeds: Sequence[int], horizon: int) -> None:
    if horizon < 1:
        raise ValueError("horizon >= 1")
    if not seeds:
        raise ValueError("seed set must be nonempty")
    if min(seeds) < 1:
        raise ValueError(f"seeds are naturals >= 1, got {min(seeds)}")


def _union_of_layers(layer: Collection, step: Callable[[Collection], Collection],
                     horizon: int) -> int:
    """#(L_0 u L_1 u ... u L_{horizon-1}) for L_0 = layer and L_{t+1} =
    step(L_t).  The walk stops at an empty layer or one equal to the layer
    before: every later layer is then that layer again and adds nothing."""
    acc = set(layer)
    for _ in range(horizon - 1):
        nxt = step(layer)
        if not nxt or nxt == layer:
            break
        layer = nxt
        acc.update(layer)
    return len(acc)


def ent_set_estimate(f: FunctionId, seeds: Sequence[int], horizon: int,
                     config: ToolConfig = DEFAULT_CONFIG) -> EntropyEstimate:
    """#(A u f(A) u ... u f^(horizon-1)(A)) / horizon, computed exactly."""
    _check_walk(seeds, horizon)
    # a layer holds each iterate once, in order of first appearance and in
    # the form evaluate returns it (factored for J_k, psi_k, phi_star)
    first: dict[Value, None] = {}
    for s in seeds:
        x = factorize(s, config)
        first[x if f.family.factored else s] = None

    def step(layer: dict[Value, None]) -> dict[Value, None]:
        nxt: dict[Value, None] = {}
        for x in layer:
            y = evaluate(f, x, config)
            # the next step factorises an int iterate, so one past the
            # factorizer's 128 bits is refused at the step that made it
            if isinstance(y, int) and y.bit_length() > 128:
                raise BudgetExceeded(f"cannot refactor {y.bit_length()}-bit orbit value")
            nxt[y] = None
        return nxt

    size = _union_of_layers(first, step, horizon)
    return EntropyEstimate(f, tuple(seeds), horizon, FORWARD, size)


def ent_cset_estimate(f: FunctionId, seeds: Sequence[int], horizon: int,
                      mode: str = AMBIENT,
                      config: ToolConfig = DEFAULT_CONFIG) -> EntropyEstimate:
    """Preimage analogue over ambient N (or the surjective core when
    expansiveness makes core membership decidable)."""
    _check_walk(seeds, horizon)
    if mode == CORE and not f.expansive:
        raise ValueError("CORE mode needs a verified expansive function")

    def kept(xs: Iterable[int]) -> set[int]:
        return {x for x in xs if mode == AMBIENT or surjective_core_membership(f, x, config)}

    def step(layer: set[int]) -> set[int]:
        # looked up here, not above: a horizon of 1 never steps, so it
        # answers even for an f without complete fibres
        fibre = fibres(f, None, config).of
        return kept(x for y in layer for x in fibre(y))

    size = _union_of_layers(kept(seeds), step, horizon)
    return EntropyEstimate(f, tuple(seeds), horizon, BACKWARD, size, mode=mode)


def surjective_core_membership(f: FunctionId, x: int,
                               config: ToolConfig = DEFAULT_CONFIG) -> bool:
    """x lies in sc(f) = intersection of the forward images f^n(N).

    For expansive f the preimage tree of x is finite (everything stays
    <= x), and arbitrarily deep ancestry exists exactly when the tree
    contains a fixed point.
    """
    if not f.expansive:
        raise ValueError(f"core membership needs an expansive f, not {f}")
    if x < 1:
        raise ValueError("x >= 1")
    # verify expansiveness on the range the tree can touch
    if monotone_profile(f, max(x, 2), config).ge_violation is not None:
        raise ValueError(f"{f} not expansive below {x}")  # pragma: no cover
    return any(scalar_value(f, prime_factors(y, config)) == y
               for y in preimage_closure(f, x, None, config))


# ---------------------------------------------------------------------------
# exploratory search (the open-problem tooling; no claims)


# a forward search drops a start whose orbit passes this many bits
SEARCH_VALUE_BITS = 512


class _SearchBudget(NamedTuple):
    max_start: int = 200
    max_depth: int = 30
    max_families: int = 10
    scan_bound: int = 5000


class SearchBudget(CheckedRecord, _SearchBudget):
    __slots__ = ()

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


class CandidateFamily(NamedTuple):
    values: tuple[int, ...]


def search_families(f: FunctionId, budget: SearchBudget = SearchBudget(),
                    direction: str = FORWARD,
                    config: ToolConfig = DEFAULT_CONFIG) -> list[CandidateFamily]:
    """Greedy hunt for disjoint orbit / anti-orbit prefixes.

    Results are labelled EXPERIMENTAL: a prefix of length max_depth is
    evidence, never a verdict about the infinite quantities.  Starts run
    upward from 2; a start some earlier family holds is skipped, and a
    chain of max_depth values avoiding every held value becomes a family.
    """
    if direction == FORWARD:
        chain = partial(_orbit_chain, f, budget.max_depth, config)
    elif direction == BACKWARD:
        chain = _antiorbit_chain(f, budget, config)
    else:
        raise ValueError("direction is FORWARD or BACKWARD")
    used: set[int] = set()
    out: list[CandidateFamily] = []
    for start in range(2, budget.max_start + 1):
        if len(out) >= budget.max_families:
            break
        if start in used:
            continue
        values = chain(start, used)
        if values is not None:
            out.append(CandidateFamily(tuple(values)))
            used.update(values)
    return out


def _orbit_chain(f: FunctionId, depth: int, config: ToolConfig, start: int,
                 used: set[int]) -> Optional[list[int]]:
    """The orbit prefix of `depth` values from start, or None when it
    repeats a value, meets `used` or passes SEARCH_VALUE_BITS first."""
    seq, seen = [start], {start}
    orbit = forward_orbit(f, start, config)
    while len(seq) < depth:
        v = nat_resolve(next(orbit), config)
        if v is OVERFLOW or v.bit_length() > SEARCH_VALUE_BITS or v in seen or v in used:
            return None
        seq.append(v)
        seen.add(v)
    return seq


def _antiorbit_chain(f: FunctionId, budget: SearchBudget,
                     config: ToolConfig) -> Callable[[int, set[int]], Optional[list[int]]]:
    """chain(start, used): the first chain of max_depth fresh preimages
    from start, depth first, or None; one fibre lookup serves every start."""
    fibre = fibres(f, budget.scan_bound, config).of

    def preimages(y: int) -> Sequence[int]:
        try:
            return fibre(y)
        except BudgetExceeded:  # phi past inverse_phi_budget
            return []

    def chain(start: int, used: set[int]) -> Optional[list[int]]:
        # untried[i] iterates the untried preimages of values[i]
        values, seen, untried = [start], {start}, []
        while len(values) < budget.max_depth:
            if len(untried) < len(values):
                untried.append(iter(preimages(values[-1])))
            x = next((x for x in untried[-1] if x not in seen and x not in used), None)
            if x is not None:
                values.append(x)
                seen.add(x)
                continue
            untried.pop()
            seen.discard(values.pop())
            if not values:
                return None
        return values

    return chain
