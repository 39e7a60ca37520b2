"""Minimal open sets and connectivity diagnostics for the two Alexandroff
topologies a self-map f induces on the naturals.

* tau_f has minimal open sets V(x) = union of all iterated preimages of x;
* taubar_f has minimal open sets V(x) = the forward orbit of x.

Verdicts about the infinite space are emitted only as lemma conclusions
conditional on the hypothesis actually checked up to a finite bound; the
bound always travels with the verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .config import DEFAULT_CONFIG, ToolConfig
from .arithfun import PHI, Family, FunctionId, evaluate_int, value_table
from .preimage import NotFiniteFibre, is_expansive_family, preimage_closure
from .reports import Counterexample, VerificationReport

TAU = "TAU"
TAU_BAR = "TAU_BAR"
COMPLETE = "COMPLETE"
TRUNCATED = "TRUNCATED"


@dataclass(frozen=True)
class MinimalOpenSet:
    point: int
    topology: str
    members: tuple[int, ...]
    completeness: str
    truncation_bound: Optional[int] = None

    def __post_init__(self):
        if self.topology not in (TAU, TAU_BAR):
            raise ValueError("topology is TAU or TAU_BAR")
        if self.completeness not in (COMPLETE, TRUNCATED):
            raise ValueError("completeness is COMPLETE or TRUNCATED")
        if self.point not in self.members:
            raise ValueError("the point belongs to its minimal open set")


def min_open_forward(f: FunctionId, x: int,
                     max_steps: int = 512, value_bits: int = 120,
                     config: ToolConfig = DEFAULT_CONFIG) -> MinimalOpenSet:
    """Forward orbit {f^n(x)}; COMPLETE once a cycle closes, TRUNCATED if
    values outgrow the budget first (expansive maps do that)."""
    if x < 1:
        raise ValueError("x >= 1")
    seen = {x}
    cur = x
    for _ in range(max_steps):
        if cur.bit_length() > value_bits:
            return MinimalOpenSet(x, TAU_BAR, tuple(sorted(seen)), TRUNCATED,
                                  truncation_bound=max_steps)
        cur = evaluate_int(f, cur, config)
        if cur in seen:
            return MinimalOpenSet(x, TAU_BAR, tuple(sorted(seen)), COMPLETE)
        seen.add(cur)
    return MinimalOpenSet(x, TAU_BAR, tuple(sorted(seen)), TRUNCATED,
                          truncation_bound=max_steps)


def min_open_backward(f: FunctionId, x: int, scan_bound: Optional[int] = None,
                      config: ToolConfig = DEFAULT_CONFIG) -> MinimalOpenSet:
    """Preimage closure of x.

    Expansive f: complete, everything lives in {1..x}.  phi: complete when
    no node of the closure lies above scan_bound.  phi_star: fibres cut at
    scan_bound, never COMPLETE.  omega/Omega/d_l: refused, because their
    fibres contain all primes.
    """
    if x < 1:
        raise ValueError("x >= 1")
    if f.family in (Family.BIG_OMEGA, Family.SMALL_OMEGA, Family.DIVISOR_COUNT):
        raise NotFiniteFibre(f"{f} is not finite fibre; no complete closure exists")
    if is_expansive_family(f):
        closure = preimage_closure(f, x, None, config)
        return MinimalOpenSet(x, TAU, tuple(sorted(closure)), COMPLETE)
    if scan_bound is None:
        raise ValueError(f"{f} needs a scan_bound")
    closure = preimage_closure(f, x, scan_bound, config)
    # phi fibres are complete, so only the unexpanded nodes cut phi's closure
    truncated = f != PHI or max(closure) > scan_bound
    return MinimalOpenSet(x, TAU, tuple(sorted(closure)),
                          TRUNCATED if truncated else COMPLETE,
                          truncation_bound=scan_bound if truncated else None)


# ---------------------------------------------------------------------------
# connectivity lemma checks


def contains_one_forward(f: FunctionId, bound: int,
                         config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Hypothesis f(n) < n for 1 < n <= bound and f(1) = 1, then the
    conclusion 1 in V(k, taubar) checked directly for every k <= bound."""
    lemma = f"connected-forward {f}"
    table = value_table(f, bound, config)
    if table[1] != 1:
        return VerificationReport(
            lemma_id=lemma, families_checked=1, depth=bound, status="FAIL",
            counterexample=Counterexample(None, 1, 1, table[1],
                                          detail="f(1) != 1"))
    for n in range(2, bound + 1):
        if table[n] >= n:
            return VerificationReport(
                lemma_id=lemma, families_checked=1, depth=bound, status="FAIL",
                counterexample=Counterexample(
                    None, n, f"< {n}", table[n],
                    detail=f"hypothesis f(n) < n fails at n = {n}"))
    reaches = bytearray(bound + 1)
    reaches[1] = 1
    for k in range(2, bound + 1):
        # f(k) < k, so the flag below is already decided
        reaches[k] = reaches[table[k]]
        if not reaches[k]:
            return VerificationReport(  # pragma: no cover
                lemma_id=lemma, families_checked=1, depth=bound, status="FAIL",
                counterexample=Counterexample(None, k, 1, table[k],
                                              detail="orbit fails to reach 1"))
    return VerificationReport(
        lemma_id=lemma, families_checked=1, depth=bound, status="PASS",
        certified_bound=(
            f"1 in V(k, taubar_{f}) for all k <= {bound}; "
            f"(N, taubar_{f}) and (N, tau_{f}) connected "
            f"(conditional: hypothesis verified up to {bound} only)"))


def separation_check(f: FunctionId, bound: int,
                     config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Hypothesis f(1) = 1 and f(n) >= n for 1 < n <= bound, yielding the
    disconnection verdict {1} | N\\{1}, tagged conditional-at-bound.

    Also checks directly that no n in 2..bound maps to 1 and that the fibre
    of 1 inside the window is exactly {1}.
    """
    lemma = f"separation {f}"
    table = value_table(f, bound, config)
    if table[1] != 1:
        return VerificationReport(
            lemma_id=lemma, families_checked=1, depth=bound, status="FAIL",
            counterexample=Counterexample(None, 1, 1, table[1], detail="f(1) != 1"))
    for n in range(2, bound + 1):
        if table[n] < n:
            return VerificationReport(
                lemma_id=lemma, families_checked=1, depth=bound, status="FAIL",
                counterexample=Counterexample(
                    None, n, f">= {n}", table[n],
                    detail=f"hypothesis f(n) >= n fails at n = {n}"))
        if table[n] == 1:
            return VerificationReport(  # pragma: no cover
                lemma_id=lemma, families_checked=1, depth=bound, status="FAIL",
                counterexample=Counterexample(None, n, "!= 1", 1,
                                              detail="fibre of 1 is not {1}"))
    return VerificationReport(
        lemma_id=lemma, families_checked=1, depth=bound, status="PASS",
        certified_bound=(
            f"{{1}}, N\\{{1}} separates (N, taubar_{f}) and (N, tau_{f}) "
            f"(conditional: hypothesis verified up to {bound} only)"))


def verify_taubar_subset(f: FunctionId, bound: int,
                         config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """For decreasing-verified f: V(k, taubar) subset of {1..k}, literally,
    for every k <= bound."""
    lemma = f"taubar-subset {f}"
    table = value_table(f, bound, config)
    max_reach = list(range(bound + 1))  # max of forward orbit of k
    for k in range(2, bound + 1):
        v = table[k]
        if v > k:
            return VerificationReport(
                lemma_id=lemma, families_checked=1, depth=bound, status="FAIL",
                counterexample=Counterexample(
                    None, k, f"<= {k}", v,
                    detail=f"hypothesis f(n) <= n fails at n = {k}"))
        max_reach[k] = max(k, max_reach[v])
        if max_reach[k] > k:
            return VerificationReport(  # pragma: no cover
                lemma_id=lemma, families_checked=1, depth=bound, status="FAIL",
                counterexample=Counterexample(None, k, f"<= {k}", max_reach[k]))
    return VerificationReport(
        lemma_id=lemma, families_checked=1, depth=bound, status="PASS",
        certified_bound=f"V(k, taubar_{f}) within {{1..k}} for all k <= {bound}")


def verify_tau_subset(f: FunctionId, bound: int,
                      config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """For expansive-verified f: V(k, tau) subset of {1..k}, literally, for
    every k <= bound (closures computed from a shared preimage table)."""
    lemma = f"tau-subset {f}"
    if not is_expansive_family(f):
        raise ValueError(f"tau-subset check needs an expansive f, not {f}")
    table = value_table(f, bound, config)
    for n in range(2, bound + 1):
        if table[n] < n:
            return VerificationReport(  # pragma: no cover
                lemma_id=lemma, families_checked=1, depth=bound, status="FAIL",
                counterexample=Counterexample(
                    None, n, f">= {n}", table[n],
                    detail=f"expansiveness fails at n = {n}"))
    pre: list[list[int]] = [[] for _ in range(bound + 1)]
    for x in range(1, bound + 1):
        if table[x] <= bound:
            pre[table[x]].append(x)
    for k in range(1, bound + 1):
        closure = {k}
        frontier = [k]
        while frontier:
            y = frontier.pop()
            for member in pre[y]:
                if member > k:
                    return VerificationReport(
                        lemma_id=lemma, families_checked=1, depth=bound,
                        status="FAIL",
                        counterexample=Counterexample(None, k, f"<= {k}", member))
                if member not in closure:
                    closure.add(member)
                    frontier.append(member)
    return VerificationReport(
        lemma_id=lemma, families_checked=1, depth=bound, status="PASS",
        certified_bound=f"V(k, tau_{f}) within {{1..k}} for all k <= {bound}")


# ---------------------------------------------------------------------------
# the partition example


@dataclass(frozen=True)
class ResidueBlock:
    """The congruence class {x : x = residue (mod modulus)} within N."""
    modulus: int
    residue: int

    def __post_init__(self):
        if not 0 <= self.residue < self.modulus:
            raise ValueError("need 0 <= residue < modulus")

    def contains(self, x: int) -> bool:
        return x % self.modulus == self.residue

    def successor(self, x: int) -> int:
        return x + self.modulus

    def label(self) -> str:
        return f"{self.residue} mod {self.modulus}"


@dataclass(frozen=True)
class ExplicitBlock:
    """A block given by its strictly increasing member list."""
    generators: tuple[int, ...]

    def __post_init__(self):
        if list(self.generators) != sorted(set(self.generators)):
            raise ValueError("generators must be strictly increasing")

    def contains(self, x: int) -> bool:
        return x in set(self.generators)

    def successor(self, x: int) -> Optional[int]:
        gs = self.generators
        i = gs.index(x)
        return gs[i + 1] if i + 1 < len(gs) else None

    def label(self) -> str:
        head = ",".join(map(str, self.generators[:4]))
        return f"{{{head},...}}"


Block = Union[ResidueBlock, ExplicitBlock]


@dataclass(frozen=True)
class PartitionMapResult:
    blocks: tuple[str, ...]
    function_table: dict[int, int]
    boundary: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    report: VerificationReport


def odds_evens() -> list[Block]:
    return [ResidueBlock(2, 1), ResidueBlock(2, 0)]


def residue_partition(modulus: int) -> list[Block]:
    return [ResidueBlock(modulus, r) for r in range(1, modulus)] + [ResidueBlock(modulus, 0)]


def partition_map(blocks: Sequence[Block], bound: int) -> PartitionMapResult:
    """Build the block-successor map on 1..bound and check that the weak
    components of its restriction refine the partition blocks.

    Elements whose successor leaves the window are boundary points; the
    edges they would contribute are discarded rather than clamped.
    """
    lemma = "partition-example"
    owner: dict[int, int] = {}
    for x in range(1, bound + 1):
        holders = [i for i, b in enumerate(blocks) if b.contains(x)]
        if len(holders) != 1:
            raise ValueError(
                f"{x} belongs to {len(holders)} blocks; need a partition of 1..{bound}")
        owner[x] = holders[0]

    ftable: dict[int, int] = {}
    boundary: list[int] = []
    parent = list(range(bound + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(1, bound + 1):
        nxt = blocks[owner[x]].successor(x)
        if nxt is None or nxt > bound:
            boundary.append(x)
            if nxt is not None:
                ftable[x] = nxt
            continue
        ftable[x] = nxt
        ra, rb = find(x), find(nxt)
        if ra != rb:
            parent[ra] = rb

    groups: dict[int, list[int]] = {}
    for x in range(1, bound + 1):
        groups.setdefault(find(x), []).append(x)
    components = tuple(tuple(sorted(g)) for g in
                       sorted(groups.values(), key=lambda g: g[0]))

    for comp in components:
        owners = {owner[x] for x in comp}
        if len(owners) != 1:
            return PartitionMapResult(
                tuple(b.label() for b in blocks), ftable, tuple(boundary),
                components,
                VerificationReport(
                    lemma_id=lemma, families_checked=len(blocks), depth=bound,
                    status="FAIL",
                    counterexample=Counterexample(
                        None, comp[0], "one block", sorted(owners),
                        detail="a component straddles two blocks")))
    report = VerificationReport(
        lemma_id=lemma, families_checked=len(blocks), depth=bound, status="PASS",
        certified_bound=(
            f"{len(components)} window components refine the "
            f"{len(blocks)} partition blocks at bound {bound}"))
    return PartitionMapResult(tuple(b.label() for b in blocks), ftable,
                              tuple(boundary), components, report)


def component_census(f: FunctionId, bound: int,
                     config: ToolConfig = DEFAULT_CONFIG) -> dict:
    """Weak components of the graph n -- f(n) restricted to 1..bound.

    Edges leaving the window are dropped and their sources flagged as
    boundary elements, so this is a diagnostic picture, not a verdict about
    the infinite space.
    """
    table = value_table(f, bound, config)
    parent = list(range(bound + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    boundary = []
    for n in range(1, bound + 1):
        v = table[n]
        if v > bound:
            boundary.append(n)
            continue
        ra, rb = find(n), find(v)
        if ra != rb:
            parent[ra] = rb
    sizes: dict[int, int] = {}
    for n in range(1, bound + 1):
        r = find(n)
        sizes[r] = sizes.get(r, 0) + 1
    comp_sizes = sorted(sizes.values(), reverse=True)
    return {
        "function": str(f),
        "bound": bound,
        "component_count": len(comp_sizes),
        "largest_components": comp_sizes[:10],
        "boundary_elements": len(boundary),
    }
