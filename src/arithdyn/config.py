"""Budgets and depth caps shared across the toolkit.

Every limit that decides "computable exactly" versus "kept symbolic /
refused" lives here, so reports are reproducible from a config snapshot.
"""
from __future__ import annotations

import json
from typing import NamedTuple


class ToolConfig(NamedTuple):
    # Largest limit of any sieve (an spf table or primes_upto), so it caps
    # every pointwise lemma, value table and fibre table, and cuts the top
    # of phi's fibre table.
    sieve_bound: int = 10_000_000
    # Bit budget for materialising a factored natural as a plain integer
    # (OVERFLOW past it); it never picks a term's structure (LINK_BITS does),
    # and no certified comparison reads it.
    bit_budget: int = 4_000_000
    # inverse_phi refuses targets above this.
    inverse_phi_budget: int = 1_000_000
    # Depth cap of phi-anti, psi-orbit and j2-orbit, whose terms are plain.
    depth_cap: int = 10_000
    # Depth cap of d-anti, omega-anti and smallomega-anti.  A tower term
    # nests every earlier one, so structural equality and certified
    # comparison are checked through the chain; 6 is the least cap that
    # holds the default size of smallomega-anti (5 x 6).
    tower_depth_cap: int = 6

    def replace(self, **overrides) -> "ToolConfig":
        return self._replace(**overrides)

    def snapshot(self) -> dict:
        """The fields by name, in field order."""
        return self._asdict()

    @classmethod
    def from_file(cls, path: str) -> "ToolConfig":
        """The config a JSON file holds: one object whose keys are fields
        and whose values are ints (a bool or a float such as 1e6 is none).
        Anything else is refused (ValueError), never coerced."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} holds no JSON object")
        unknown = sorted(set(raw) - set(cls._fields))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in raw.items():
            if type(value) is not int:
                raise ValueError(f"config key {key} needs an int, got {json.dumps(value)}")
        return cls(**raw)


DEFAULT_CONFIG = ToolConfig()
