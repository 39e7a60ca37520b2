"""Minimal open sets and connectivity diagnostics for the two Alexandroff
topologies a self-map f induces on the naturals.

* tau_f has minimal open sets V(x) = union of all iterated preimages of x;
* taubar_f has minimal open sets V(x) = the forward orbit of x.

Verdicts about the infinite space are emitted only as lemma conclusions
conditional on the hypothesis actually checked up to a finite bound; the
bound always travels with the verdict.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .config import DEFAULT_CONFIG, ToolConfig
from .arithfun import FunctionId, orbit_values, pointwise_lemma, value_table
from .preimage import BOUNDED_SEARCH, NotFiniteFibre, fibres, preimage_closure
from .reports import CheckedRecord, Counterexample, VerificationReport

TAU = "TAU"
TAU_BAR = "TAU_BAR"
COMPLETE = "COMPLETE"
TRUNCATED = "TRUNCATED"


class _MinimalOpenSet(NamedTuple):
    point: int
    topology: str
    members: tuple[int, ...]
    completeness: str
    truncation_bound: Optional[int] = None


class MinimalOpenSet(CheckedRecord, _MinimalOpenSet):
    __slots__ = ()

    def _check(self) -> None:
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
    values outgrow the budget first (expansive maps do that).  The iterates
    come from arithfun.orbit_values, so none is factorised again."""
    if x < 1:
        raise ValueError("x >= 1")
    seen = {x}
    cur = x
    orbit = orbit_values(f, x, config)
    for _ in range(max_steps):
        if cur.bit_length() > value_bits:
            return MinimalOpenSet(x, TAU_BAR, tuple(sorted(seen)), TRUNCATED,
                                  truncation_bound=max_steps)
        cur = next(orbit)
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
    if scan_bound is not None and scan_bound < 1:
        raise ValueError("scan_bound >= 1")
    if f.infinite_fibre is not None:
        raise NotFiniteFibre(f"{f} is not finite fibre; no complete closure exists")
    if f.expansive:  # f(n) >= n keeps the closure inside {1..x}
        closure = preimage_closure(f, x, None, config)
        return MinimalOpenSet(x, TAU, tuple(sorted(closure)), COMPLETE)
    if scan_bound is None:
        raise ValueError(f"{f} needs a scan_bound")
    closure = preimage_closure(f, x, scan_bound, config)
    # with complete fibres (phi) only the unexpanded nodes cut the closure
    truncated = (fibres(f, scan_bound, config).completeness == BOUNDED_SEARCH
                 or max(closure) > scan_bound)
    return MinimalOpenSet(x, TAU, tuple(sorted(closure)),
                          TRUNCATED if truncated else COMPLETE,
                          truncation_bound=scan_bound if truncated else None)


# ---------------------------------------------------------------------------
# connectivity lemma checks


def contains_one_forward(f: FunctionId, bound: int,
                         config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """The connected-forward lemma of arithfun.POINTWISE_LEMMAS: f(n) < n
    for 1 < n <= bound puts 1 in V(k, taubar) for every k <= bound."""
    return pointwise_lemma("connected-forward", f, bound, config)


def separation_check(f: FunctionId, bound: int,
                     config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """The separation lemma of arithfun.POINTWISE_LEMMAS: f(n) >= n for 1
    < n <= bound splits the naturals into {1} and N\\{1}."""
    return pointwise_lemma("separation", f, bound, config)


def verify_taubar_subset(f: FunctionId, bound: int,
                         config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """The taubar-subset lemma of arithfun.POINTWISE_LEMMAS: f(n) <= n for
    1 < n <= bound keeps V(k, taubar) within {1..k} for every k <= bound."""
    return pointwise_lemma("taubar-subset", f, bound, config)


def verify_tau_subset(f: FunctionId, bound: int,
                      config: ToolConfig = DEFAULT_CONFIG) -> VerificationReport:
    """The tau-subset lemma of arithfun.POINTWISE_LEMMAS: f(n) >= n for 1
    < n <= bound keeps V(k, tau) within {1..k} for every k <= bound; an f
    that is not expansive (FunctionId.expansive) is refused."""
    return pointwise_lemma("tau-subset", f, bound, config)


# ---------------------------------------------------------------------------
# the partition example


class _ResidueBlock(NamedTuple):
    modulus: int
    residue: int


class ResidueBlock(CheckedRecord, _ResidueBlock):
    """The congruence class {x : x = residue (mod modulus)} within N."""
    __slots__ = ()

    def _check(self) -> None:
        if not 0 <= self.residue < self.modulus:
            raise ValueError("need 0 <= residue < modulus")

    def contains(self, x: int) -> bool:
        return x % self.modulus == self.residue

    def members(self, bound: int) -> range:
        """The members in 1..bound, ascending."""
        return range(self.residue or self.modulus, bound + 1, self.modulus)

    def successor(self, x: int) -> int:
        return x + self.modulus

    def label(self) -> str:
        return f"{self.residue} mod {self.modulus}"


class PartitionMapResult(NamedTuple):
    blocks: tuple[str, ...]
    function_table: dict[int, int]
    boundary: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    report: VerificationReport


def residue_partition(modulus: int) -> list[ResidueBlock]:
    return [ResidueBlock(modulus, r) for r in range(1, modulus)] + [ResidueBlock(modulus, 0)]


def _weak_components(bound: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Weak components of the graph on 1..bound with the given edges (union
    by find with path halving), each ascending, ordered by least member."""
    parent = list(range(bound + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for x in range(1, bound + 1):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def partition_map(blocks: Sequence[ResidueBlock], bound: int) -> PartitionMapResult:
    """Build the block-successor map on 1..bound and check that the weak
    components of its restriction refine the partition blocks.  A block
    is read only through contains, members, successor and label.

    Elements whose successor leaves the window are boundary points; the
    edges they would contribute are discarded rather than clamped.
    """
    lemma = "partition-example"
    # owner[x]: the one block listing x; -1 while none does, -2 once two do
    owner = [-1] * (bound + 1)
    for i, block in enumerate(blocks):
        for x in block.members(bound):
            owner[x] = i if owner[x] == -1 else -2
    bad = next((x for x in range(1, bound + 1) if owner[x] < 0), None)
    if bad is not None:
        holders = sum(b.contains(bad) for b in blocks)
        raise ValueError(
            f"{bad} belongs to {holders} blocks; need a partition of 1..{bound}")

    ftable: dict[int, int] = {}
    boundary: list[int] = []
    for x in range(1, bound + 1):
        nxt = blocks[owner[x]].successor(x)
        if nxt is not None:
            ftable[x] = nxt
        if nxt is None or nxt > bound:
            boundary.append(x)
    components = tuple(map(tuple, _weak_components(
        bound, ((x, y) for x, y in ftable.items() if y <= bound))))

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
    inside = range(1, bound + 1)
    components = _weak_components(bound, ((n, table[n]) for n in inside if table[n] <= bound))
    comp_sizes = sorted(map(len, components), reverse=True)
    return {
        "function": str(f),
        "bound": bound,
        "component_count": len(comp_sizes),
        "largest_components": comp_sizes[:10],
        "boundary_elements": sum(1 for n in inside if table[n] > bound),
    }
