"""Reachability census: every function defined in src/arithdyn runs when
the CLI battery, certify_at_depth.py and explore_open_problems.py run, or
it is on ALLOWED below with the reason it stays.

A subprocess sets sys.setprofile before arithdyn is first imported, runs
the three scripts with their output discarded, and prints every code
object of src/arithdyn that was called.  The test compiles the same
sources and lists their functions (defs and lambdas; comprehensions are
part of the function that holds them).  The functions never called must be
exactly ALLOWED: a new function that nothing reaches fails the test until a
battery command reaches it or it is listed, and an entry that is reached
again, or no longer exists, must leave the list.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arithdyn"

# module.qualname -> why it stays although no script reaches it
ALLOWED = {
    # the benchmark harness: perfbench/ patches or calls each by name
    "preimage.preimage_bounded": "benchmark harness (spans.py patches it)",
    "preimage.preimage_expansive": "benchmark harness (spans.py patches it)",
    "factorint.smallest_factor_table": "benchmark harness (spans.py patches it)",
    "factorint._spf_decompose": "benchmark harness (factored_range's decomposition)",
    "factorint.factored_range": "benchmark harness (spans.py patches it)",
    "arithfun.identity_check_psi_jordan": "benchmark harness (the sweep workload calls it)",
    # FAIL-only and refusal-only paths
    "reports.Counterexample.describe": "text of a FAILed claim",
    "factorint._Overflow.__repr__": "OVERFLOW as a FAILed claim's value",
    "reports.CheckedRecord._make": "a copy of a checked record runs its checks",
    "topology.ResidueBlock.contains": "partition_map's refusal of a non-partition",
    # the console entry point; the scripts call cli.run
    "cli.main": "entry point of the arithdyn command",
}

# argv of each script run, as its own sys.argv
RUNS = (
    ("certify_at_depth", ["--families", "3", "--depth", "7", "--bound", "2000"]),
    ("explore_open_problems", ["--max-start", "30", "--max-depth", "4"]),
    ("cli_battery", []),
)

CHILD = """
import contextlib, importlib, io, json, os, sys
called = set()

def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(hook)
import arithdyn
for name, args in json.loads(sys.argv[1]):
    sys.argv = [name + ".py", *args]
    with contextlib.redirect_stdout(io.StringIO()):
        code = importlib.import_module(name).main()
    if code != 0:
        sys.exit(f"{name} exited {code}")
sys.setprofile(None)
src = os.path.dirname(arithdyn.__file__)
print(json.dumps([[os.path.basename(c.co_filename), c.co_firstlineno, c.co_name]
                  for c in called if os.path.dirname(c.co_filename) == src]))
"""

_CO_OPTIMIZED = 0x1  # set on function code; unset on module and class bodies
_COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def defined_functions():
    """{(file name, first line, name): module.qualname} of every def and
    lambda in src/arithdyn, from its compiled source."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(), path.name, "exec"), "", False)]
        while stack:
            code, qual, is_function = stack.pop()
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    sep = ".<locals>." if is_function else "."
                    name = const.co_name if not qual else qual + sep + const.co_name
                    stack.append((const, name, bool(const.co_flags & _CO_OPTIMIZED)))
            if is_function and code.co_name not in _COMPREHENSIONS:
                out[(path.name, code.co_firstlineno, code.co_name)] = f"{path.stem}.{qual}"
    return out


def test_every_function_is_reached_or_allowed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "scripts"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(RUNS)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    called = {tuple(key) for key in json.loads(proc.stdout)}
    defined = defined_functions()
    never = sorted(name for key, name in defined.items() if key not in called)
    unlisted = [name for name in never if name not in ALLOWED]
    assert not unlisted, f"no script reaches {unlisted}: reach or list them"
    stale = sorted(set(ALLOWED) - set(never))
    assert not stale, f"listed but reached or gone: {stale}"
