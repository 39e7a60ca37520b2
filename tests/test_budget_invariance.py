"""Budget invariance: a budget decides only what is materialised (a value
past `bit_budget` renders as OVERFLOW) or refused (exit 2 naming the key),
never what a report says.

Every JSON command of `scripts/cli_battery.commands()` runs at defaults and
under one shrunk and one raised value of each `ToolConfig` key; a command
that sets the key itself (`--bit-budget 20`, a config file) keeps its own
value.  Under each, the command must give the status and `results` it gives
at defaults, or exit 2 with the key's name in stderr.  A rendered "value"
may read OVERFLOW on one side only when its "factored" string is equal.

Each key runs in a fresh process, its shrunk side first, so that prime
tables filled by an earlier run cannot hide a refusal that fires only while
they are filled.  There is no list of expected differences.

A key that no code reads would pass that check vacuously, so each key must
also be live: under its shrunk value at least one command that runs at
defaults exits 2 naming it.
"""
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from arithdyn.config import DEFAULT_CONFIG, ToolConfig

ROOT = Path(__file__).resolve().parent.parent

# key -> (shrunk, raised)
VALUES = {
    "sieve_bound": (5000, 2 * DEFAULT_CONFIG.sieve_bound),
    "bit_budget": (20, 2 * DEFAULT_CONFIG.bit_budget),
    "inverse_phi_budget": (500, 2 * DEFAULT_CONFIG.inverse_phi_budget),
    "depth_cap": (10, 2 * DEFAULT_CONFIG.depth_cap),
    "tower_depth_cap": (3, 2 * DEFAULT_CONFIG.tower_depth_cap),
}

# argv: a key and a JSON list of its values (null: the defaults); prints one
# outcome [exit code, status, results, stderr] per JSON command and value
CHILD = """
import json, sys
import cli_battery
from arithdyn import cli
from arithdyn.config import DEFAULT_CONFIG

key, values = sys.argv[1], json.loads(sys.argv[2])
real = cli._load_config

def load(args):
    config = real(args)
    if value is None or getattr(config, key) != getattr(DEFAULT_CONFIG, key):
        return config
    return config.replace(**{key: value})

cli._load_config = load
argvs = [argv for argv in cli_battery.commands() if "json" in argv]
out = []
with cli_battery.config_files() as paths:
    for value in values:
        runs = []
        for argv in argvs:
            code, stdout, stderr = cli_battery.run_one([paths.get(a, a) for a in argv])
            doc = json.loads(stdout) if stdout else {}
            runs.append([code, doc.get("status"), doc.get("results"), stderr])
        out.append(runs)
print(json.dumps({"argvs": argvs, "runs": out}))
"""


@lru_cache(maxsize=None)
def outcomes(key, values):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "scripts"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, key, json.dumps(values)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    return doc["argvs"], doc["runs"]


def same(a, b):
    """a == b, except that a rendered value {"factored", "value"} may read
    OVERFLOW on one side when the factored strings are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return False
        overflow = a.keys() == {"factored", "value"} and "OVERFLOW" in (a["value"], b["value"])
        return all(same(a[k], b[k]) for k in a if not (overflow and k == "value"))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.parametrize("key", sorted(VALUES))
def test_a_budget_changes_no_report(key):
    shrunk, raised = VALUES[key]
    argvs, runs = outcomes(key, (shrunk, raised))
    _, (defaults,) = outcomes("", (None,))  # no key: the defaults
    assert len(argvs) == len(defaults) > 100
    for value, side in zip((shrunk, raised), runs):
        for argv, want, got in zip(argvs, defaults, side):
            where = f"{key}={value}: {' '.join(argv)}"
            if value == raised:
                assert (want[1], got[1]) != ("PASS", "FAIL"), where
            # the side under the smaller value may refuse, naming the key
            lower = got if value == shrunk else want
            if not (lower[0] == 2 and key in lower[3]):
                assert want[:2] == got[:2] and same(want[2], got[2]), (where, want, got)


@pytest.mark.parametrize("key", ToolConfig._fields)
def test_each_key_is_read(key):
    assert key in VALUES, f"{key} has no shrunk and raised value here"
    argvs, (shrunk, _) = outcomes(key, VALUES[key])
    _, (defaults,) = outcomes("", (None,))
    refused = [argv for argv, want, got in zip(argvs, defaults, shrunk)
               if want[0] != 2 and got[0] == 2 and f"({key})" in got[3]]
    assert refused, f"no command refuses under {key}={VALUES[key][0]}"
