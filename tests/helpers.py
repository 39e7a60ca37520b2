"""Helpers that only the tests use, kept out of the runtime.

``evaluate_int`` forces ``arithfun.evaluate`` to a plain integer, and
``ExplicitBlock`` is a partition block given by its member list, which
``topology.partition_map`` takes as it takes a ``ResidueBlock``: it reads
only ``contains``, ``members``, ``successor`` and ``label``.
"""
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional, Union

from arithdyn.arithfun import FunctionId, evaluate
from arithdyn.config import DEFAULT_CONFIG, ToolConfig
from arithdyn.factorint import OVERFLOW, BudgetExceeded, FactoredNatural, nat_resolve
from arithdyn.reports import CheckedRecord


def evaluate_int(f: FunctionId, n: Union[int, FactoredNatural],
                 config: ToolConfig = DEFAULT_CONFIG) -> int:
    """evaluate() forced to a plain integer (raises past the bit budget)."""
    r = nat_resolve(evaluate(f, n, config), config)
    if r is OVERFLOW:
        raise BudgetExceeded(f"{f}({n!r}) exceeds the bit budget (bit_budget)")
    return r


class _ExplicitBlock(NamedTuple):
    generators: tuple[int, ...]


class ExplicitBlock(CheckedRecord, _ExplicitBlock):
    """A block given by its strictly increasing member list."""
    __slots__ = ()

    def _check(self) -> None:
        if list(self.generators) != sorted(set(self.generators)):
            raise ValueError("generators must be strictly increasing")

    def contains(self, x: int) -> bool:
        gs = self.generators
        i = bisect_left(gs, x)
        return i < len(gs) and gs[i] == x

    def members(self, bound: int) -> tuple[int, ...]:
        """The members in 1..bound, ascending."""
        gs = self.generators
        return gs[bisect_left(gs, 1):bisect_right(gs, bound)]

    def successor(self, x: int) -> Optional[int]:
        """The least member above x, or None."""
        gs = self.generators
        i = bisect_right(gs, x)
        return gs[i] if i < len(gs) else None

    def label(self) -> str:
        head = ",".join(map(str, self.generators[:4]))
        return f"{{{head},...}}"
