import os
import subprocess
import sys
from pathlib import Path

import pytest

from arithdyn import arithfun as af, cli, dynamics as dy, topology as tp
from arithdyn.config import ToolConfig
from arithdyn.reports import Counterexample, VerificationReport
from helpers import ExplicitBlock

ROOT = Path(__file__).resolve().parents[1]


def test_fail_requires_counterexample():
    with pytest.raises(ValueError):
        VerificationReport("x", 1, 3, "FAIL")
    with pytest.raises(ValueError):
        VerificationReport("x", 1, 3, "PASS",
                           counterexample=Counterexample(None, 1, 2, 3))


def test_certified_bound_only_on_pass():
    with pytest.raises(ValueError):
        VerificationReport("x", 1, 3, "FAIL",
                           counterexample=Counterexample(None, 1, 2, 3),
                           certified_bound="nope")
    rep = VerificationReport("x", 1, 3, "PASS", certified_bound="ok")
    assert rep.passed and rep.to_payload()["certified_bound"] == "ok"


def test_bad_status_rejected():
    with pytest.raises(ValueError):
        VerificationReport("x", 1, 3, "MAYBE")


def test_counterexample_describe():
    ce = Counterexample(2, 7, 10, 11, detail="off by one")
    text = ce.describe()
    assert "family 2" in text and "position 7" in text and "off by one" in text
    payload = VerificationReport("x", 1, 3, "FAIL", counterexample=ce).to_payload()
    assert payload["counterexample"]["position"] == 7


# ---------------------------------------------------------------------------
# the records: typing.NamedTuple throughout, no dataclasses at import


def test_runtime_imports_no_dataclasses():
    # a cold process pays for every module it imports; dataclasses pulls
    # in inspect, ast and dis, which nothing else the CLI runs needs, and
    # fractions pulls in decimal, which only the entropy reports need.
    # Only what the import itself loads counts, not what site hooks load.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import arithdyn.cli, arithdyn.topology\n"
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis',"
            " 'fractions', 'decimal') if m in sys.modules and m not in before))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_record_reprs():
    assert repr(af.PHI) == "FunctionId(family=<Family.JORDAN: 'jordan'>, param=1)"
    assert repr(dy.FamilySpec(dy.Scheme.PSI_ORBIT, 3)) == (
        "FamilySpec(scheme=<Scheme.PSI_ORBIT: 'psi-orbit'>, index=3)")
    rep = VerificationReport("x", 1, 3, "FAIL", counterexample=Counterexample(None, 1, 2, 3))
    assert repr(rep) == (
        "VerificationReport(lemma_id='x', families_checked=1, depth=3, status='FAIL', "
        "counterexample=Counterexample(family=None, position=1, expected=2, actual=3, "
        "detail=''), certified_bound=None, notes=())")


def test_function_id_keeps_its_at_prime_tail():
    f = af.sigma(2)
    assert f.at_prime == (2, 1)
    assert f.at_prime is f.at_prime  # computed once per FunctionId


def test_config_snapshot_in_field_order():
    snap = ToolConfig().snapshot()
    assert list(snap) == list(ToolConfig._fields)
    assert list(snap)[:4] == ["sieve_bound", "prime_index_budget", "bit_budget",
                              "inverse_phi_budget"]
    assert ToolConfig(**snap) == ToolConfig()
    assert ToolConfig().replace(bit_budget=64).snapshot() == {**snap, "bit_budget": 64}


def test_search_parser_defaults_are_the_budget_defaults():
    args = cli.build_parser().parse_args(["search", "--fn", "psi"])
    budget = dy.SearchBudget()
    assert (args.max_start, args.max_depth, args.max_families) == (
        budget.max_start, budget.max_depth, budget.max_families) == (200, 30, 10)


@pytest.mark.parametrize("build, message", [
    (lambda: dy.FamilySpec(dy.Scheme.PHI_ANTI, 0), "family index starts at 1"),
    (lambda: dy.EntropyEstimate(af.PSI, (2,), 1, "SIDEWAYS", 1),
     "direction is FORWARD or BACKWARD"),
    (lambda: dy.EntropyEstimate(af.PSI, (2,), 1, dy.FORWARD, 1, "BOTH"),
     "mode is AMBIENT or CORE"),
    (lambda: tp.ResidueBlock(3, 3), "need 0 <= residue < modulus"),
    (lambda: tp.ResidueBlock(3, -1), "need 0 <= residue < modulus"),
    (lambda: ExplicitBlock((2, 1)), "generators must be strictly increasing"),
    (lambda: ExplicitBlock((1, 1)), "generators must be strictly increasing"),
], ids=["FamilySpec-index-0", "EntropyEstimate-direction", "EntropyEstimate-mode",
        "ResidueBlock-residue-is-modulus", "ResidueBlock-negative-residue",
        "ExplicitBlock-decreasing", "ExplicitBlock-repeated"])
def test_record_refusals(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("record, fields, message", [
    (dy.SearchBudget(), {"max_depth": 0}, "max_depth must be >= 1, got 0"),
    (dy.FamilySpec(dy.Scheme.PHI_ANTI, 1), {"index": 0}, "family index starts at 1"),
    (af.PHI, {"param": 0}, "jordan needs a parameter >= 1"),
    (VerificationReport("x", 1, 3, "PASS"), {"status": "FAIL"},
     "FAIL reports carry a counterexample; PASS reports do not"),
], ids=["SearchBudget", "FamilySpec", "FunctionId", "VerificationReport"])
def test_record_copies_refuse_what_the_constructor_refuses(record, fields, message):
    # _replace builds through _make, which goes through the constructor
    cls = type(record)
    with pytest.raises(ValueError) as built:
        cls(**{**record._asdict(), **fields})
    assert str(built.value) == message
    with pytest.raises(ValueError) as replaced:
        record._replace(**fields)
    assert str(replaced.value) == message
    with pytest.raises(ValueError) as made:
        cls._make({**record._asdict(), **fields}.values())
    assert str(made.value) == message
    assert record._replace() == record and type(record._replace()) is cls
