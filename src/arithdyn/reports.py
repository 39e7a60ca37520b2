"""Shared verification-report types."""
from __future__ import annotations

from typing import Any, NamedTuple, Optional


class Counterexample(NamedTuple):
    """Where a checked claim broke: family index (when applicable),
    position/argument, and the two values that should have agreed."""
    family: Optional[int]
    position: int
    expected: Any
    actual: Any
    detail: str = ""

    def describe(self) -> str:
        loc = f"family {self.family}, " if self.family is not None else ""
        msg = f"{loc}position {self.position}: expected {self.expected!r}, got {self.actual!r}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


class CheckedRecord:
    """The base of a NamedTuple record with checks, listed before the
    NamedTuple: the constructor runs the record's _check, and _make (and
    so _replace) builds through the constructor, so no copy skips it."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _json_value(value: Any) -> Any:
    """An int or str as itself (a JSON number or string); any other value,
    such as a FactoredNatural or DeferredValue, as its repr."""
    return value if isinstance(value, (int, str)) else repr(value)


class _VerificationReport(NamedTuple):
    lemma_id: str
    families_checked: int
    depth: int
    status: str  # "PASS" | "FAIL"
    counterexample: Optional[Counterexample] = None
    certified_bound: Optional[str] = None
    notes: tuple[str, ...] = ()


class VerificationReport(CheckedRecord, _VerificationReport):
    """Outcome of checking one claim at a given (families, depth) scope.

    For plain sweeps `families_checked` is 1 and `depth` is the bound that
    was scanned.  `certified_bound` carries statements like
    "a(phi) >= 20 at depth 30" and is only ever present on PASS.
    """
    __slots__ = ()

    def _check(self) -> None:
        if self.status not in ("PASS", "FAIL"):
            raise ValueError(f"bad status {self.status!r}")
        if (self.status == "FAIL") != (self.counterexample is not None):
            raise ValueError("FAIL reports carry a counterexample; PASS reports do not")
        if self.certified_bound is not None and self.status != "PASS":
            raise ValueError("certified bounds only accompany PASS")

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_payload(self) -> dict:
        out: dict[str, Any] = {
            "lemma": self.lemma_id,
            "families_checked": self.families_checked,
            "depth": self.depth,
            "status": self.status,
        }
        if self.counterexample is not None:
            ce = self.counterexample
            out["counterexample"] = {
                "family": ce.family,
                "position": ce.position,
                "expected": _json_value(ce.expected),
                "actual": _json_value(ce.actual),
                "detail": ce.detail,
            }
        if self.certified_bound is not None:
            out["certified_bound"] = self.certified_bound
        if self.notes:
            out["notes"] = list(self.notes)
        return out
