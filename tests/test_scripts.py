"""Smoke tests: the scripts under scripts/ run end to end at small budgets."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_certify_at_depth_runs():
    proc = run_script("certify_at_depth.py", "--families", "3", "--depth", "5",
                      "--bound", "30000")
    assert proc.returncode == 0, proc.stderr
    assert "\n0 failures," in proc.stdout
    assert "FAIL" not in proc.stdout
    # every scheme runs, each at min(--depth, its cap)
    assert "a(omega) >= 3 certified at depth 5" in proc.stdout
    assert "o(J_2) >= 3 certified at depth 5" in proc.stdout
    # the subset checks read no table, so nothing caps them below --bound
    assert "V(k, tau_psi) within {1..k} for all k <= 30000" in proc.stdout
    assert "V(k, taubar_phi) within {1..k} for all k <= 30000" in proc.stdout



def test_certify_at_depth_substitutes_the_registry_depth_past_a_cap():
    proc = run_script("certify_at_depth.py", "--families", "3", "--depth", "7",
                      "--bound", "2000")
    assert proc.returncode == 0, proc.stderr
    lines = {line.split()[1]: line for line in proc.stdout.splitlines()
             if line.startswith(("PASS", "FAIL"))}
    for scheme, cert, depth, key in (
            ("d-anti", "a(d)", 5, "tower_depth_cap = 6"),
            ("omega-anti", "a(Omega)", 5, "tower_depth_cap = 6"),
            ("smallomega-anti", "a(omega)", 6, "tower_depth_cap = 6")):
        assert f"PASS  {scheme} " in lines[scheme]
        assert f"{cert} >= 3 certified at depth {depth} " in lines[scheme]
        assert key in lines[scheme]
    for scheme, cert in (("phi-anti", "a(phi)"), ("psi-orbit", "o(psi)"),
                         ("j2-orbit", "o(J_2)")):
        assert lines[scheme].endswith(f"{cert} >= 3 certified at depth 7")


def test_cli_battery_runs_every_command():
    proc = run_script("cli_battery.py")
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.split("$ arithdyn ")[1:]
    assert len(blocks) == 158
    codes = {}
    for block in blocks:
        argv, code = block.splitlines()[:2]
        codes[argv] = code
        if code == "exit 2":  # a refusal: one error line and no report
            stdout, stderr = block.split("--- stdout\n")[1].split("--- stderr\n")
            assert stdout == "", argv
            assert stderr.startswith("error: ") and stderr.count("\n") == 1, argv
    assert "exit 3" not in codes.values()
    flags = "--format json --no-timestamp"
    assert codes[f"verify-lemma d-antiorbit --families 10 --depth 30 "
                 f"--config RAISED_CAPS.json {flags}"] == "exit 0"
    for argv in ("preimage --fn phi --m 4 --bound 0", "preimage --fn psi --m 4 --bound -3",
                 "min-open --fn phi --n 4 --scan-bound 0", "partition-demo --mod 0",
                 "verify-lemma tau-subset --k 3", "table connectivity --families 3",
                 "eval --fn phi* --n 12", "preimage --fn psi --m 12 --bound 3",
                 "min-open --fn psi --n 12 --scan-bound 5", "no-such-command",
                 "eval --fn phi", "eval --fn J_01 --n 5",
                 "preimage --fn Omega --m 0 --bound 10",
                 "eval --fn phi --n 5 --config FLOAT_BOUND.json",
                 "eval --fn phi --n 5 --config OLD_CAP_KEY.json",
                 "family --scheme no-such",
                 "table connectivity --bound 200 --sieve-bound 100"):
        assert codes[f"{argv} {flags}"] == "exit 2"
    for argv in ("orbit --fn phi --n 6", "search --fn psi", "partition-demo",
                 "min-open --fn phi --n 6 --topology taubar",
                 "min-open --fn phi --n 2 --scan-bound 2000",
                 "min-open --fn phi --n 3 --scan-bound 200000"):
        assert codes[f"{argv} {flags}"] == "exit 0"


def test_span_tracer_finds_every_entry_point():
    # perfbench/spans.py patches arithdyn functions by name, so a rename
    # would break `perfbench/run.py --trace 1` with an AttributeError
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p)
    code = ("from arithdyn import arithfun, cli, dynamics, preimage, topology\n"
            "import spans\n"
            "spans.Tracer().install()\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_traced_benchmark_child_runs_its_ops():
    # the span hooks read their arguments by position, which only a call
    # made under the tracer exercises
    ops = [{"op": "cli", "argv": ["verify-lemma", "d-antiorbit", "--families", "2",
                                  "--depth", "3"]},
           {"op": "cli", "argv": ["verify-lemma", "generic-note", "--families", "2",
                                  "--depth", "4"]}]
    # child.py imports arithdyn from <root>/src and spans from its own directory
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(ROOT)],
        input=json.dumps({"ops": ops, "trace": True, "spans_path": None}),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reply = json.loads(proc.stdout)
    for result in reply["results"]:
        assert "error" not in result and result["rc"] == 0, result
    assert reply["layers"]["dynamics.family_terms_calls"] > 0


def test_explore_open_problems_runs():
    # past depth 2 the d_3 and d_4 anti-orbit searches expand many nodes
    proc = run_script("explore_open_problems.py", "--max-start", "20",
                      "--max-depth", "4", "--max-families", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("(EXPERIMENTAL)") == 4
    assert "Prefixes are evidence only; no claims are recorded." in proc.stdout


@pytest.mark.parametrize("flag", ["--max-start", "--max-depth", "--max-families"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_explore_open_problems_refuses_a_size_below_one(flag, value):
    # refused before any search, as `arithdyn search` refuses it: exit 2 and
    # one error line that names the flag
    proc = run_script("explore_open_problems.py", flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {flag} must be >= 1, got {value}\n"
