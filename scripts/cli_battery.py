#!/usr/bin/env python3
"""Run a fixed battery of CLI commands in one process and print, for each,
its argv, exit code, stdout and stderr.  The output is deterministic, so a
change that should keep every report can be checked against its parent with

    python scripts/cli_battery.py > after.txt   # likewise before.txt
    cmp before.txt after.txt

Each command goes through `cli.run`, with the exit-3 handling of
`cli.main` for an exception no refusal covers and the exit code of a
usage error.  The battery holds every verify-lemma id at its defaults,
the six scheme claims at the benchmark's certify sizes, the tower claims
under small bit budgets, both tables, the first three families of every
scheme, the tower claims at 10x30 under a config that raises their depth
cap, one small run of every other subcommand (and one at its defaults
where those are cheap), `eval` of every family at 720 and at 81 = 3^4,
`eval` of phi at 1000036000099 = 1000003 * 1000033 (past trial
division, so Pollard-Brent splits it), `preimage` of sigma_2, J_3 and
psi_2, the components of Omega and d at bound 1024 and the d_3-fibre of
4 at bound 512 (value tables up to a power of 2, for an additive family
and a parametric one), the
separation lemma for psi and phi at bound 1000, every pointwise lemma
(the ids that read --fn) for sigma_2 and phi_star at bound 300, each
passing for one of them and failing or refused for the other, the phi
tau-closure of 2 at the closure benchmark's scan bound and the one-node
closure of 3 under a large one, a backward phi search of depth 7 whose
second family inverts phi at 729 (so an inverse_phi_budget of 500
refuses it), the size refusals of `preimage`, `min-open` and
`partition-demo`, the refusals of options a command does not read (among
them a bound where fibres are complete, and `--families` on the lemma
listing), of `--list` after a lemma id, of `--k`/`--l`, of the dropped
function-name aliases and of other spellings than str(f), of an unknown
subcommand, of a missing option, of fibre targets below 1, of an unknown
scheme, of a sieve request past a --sieve-bound override and of config
files that hold no JSON object, a value that is not an int or a key that
is no field (one of the per-scheme depth caps that `depth_cap` and
`tower_depth_cap` replaced, and the prime-index budget that duplicated the
fixed prime-index limit).  Every
command reports in JSON except five that exercise the csv and text
renderers.
"""
import contextlib
import io
import json
import os
import sys
import tempfile
from typing import Iterator

from arithdyn import cli
from arithdyn import dynamics as dy

# verify-lemma id -> (families, depth), as in the certify benchmark workload
CERTIFY_SIZES = {
    "phi-antiorbit": (50, 100),
    "psi-orbit": (50, 100),
    "j2-orbit": (20, 30),
    "d-antiorbit": (20, 5),
    "omega-antiorbit": (10, 5),
    "smallomega-antiorbit": (10, 6),
}
TOWER_LEMMAS = ("d-antiorbit", "omega-antiorbit", "smallomega-antiorbit")
RAISED_CAP = 10_000
CONFIG_PLACEHOLDER = "RAISED_CAPS.json"
# the config files commands name: each name stands for a file holding its
# JSON in a temporary directory; all but the first are refused
CONFIGS = {
    CONFIG_PLACEHOLDER: {"tower_depth_cap": RAISED_CAP},
    "FLOAT_BOUND.json": {"sieve_bound": 1e6},
    "BOOL_CAP.json": {"depth_cap": True},
    "NULL_BUDGET.json": {"bit_budget": None},
    "ARRAY.json": [1, 2],
    "OLD_CAP_KEY.json": {"depth_cap_d_anti": RAISED_CAP},
    "OLD_INDEX_KEY.json": {"prime_index_budget": 10_000_000},
}


def commands() -> list[list[str]]:
    out = [["verify-lemma", name] for name in cli.LEMMAS]
    out += [["verify-lemma", name, "--families", str(fams), "--depth", str(depth)]
            for name, (fams, depth) in CERTIFY_SIZES.items()]
    out += [["verify-lemma", name, "--bit-budget", str(bits)]
            for bits in (20, 64, 5000) for name in TOWER_LEMMAS]
    out += [["table", "orbit-numbers"], ["table", "connectivity"]]
    out += [["family", "--scheme", scheme.value, "--index", str(index)]
            for scheme in dy.Scheme for index in (1, 2, 3)]
    out += [["verify-lemma", name, "--families", "10", "--depth", "30",
             "--config", CONFIG_PLACEHOLDER] for name in TOWER_LEMMAS]
    out += [["preimage", "--fn", "phi", "--m", "4", "--bound", "0"],
            ["preimage", "--fn", "psi", "--m", "4", "--bound", "-3"],
            ["preimage", "--fn", "Omega", "--m", "4", "--bound", "0"],
            ["min-open", "--fn", "phi", "--n", "4", "--scan-bound", "0"]]
    out += [["eval", "--fn", "phi", "--n", "18"], ["eval", "--fn", "J_2", "--n", "12"],
            ["preimage", "--fn", "psi", "--m", "12"],
            ["preimage", "--fn", "phi_star", "--m", "6", "--bound", "100"],
            ["preimage", "--fn", "Omega", "--m", "1", "--bound", "10"],
            ["preimage", "--fn", "phi", "--m", "4"], ["phi-bound", "--m", "2"],
            ["orbit", "--fn", "phi", "--n", "6"],
            ["orbit", "--fn", "psi", "--n", "2", "--depth", "60"],
            ["entropy", "--fn", "psi", "--seeds", "6,18,54", "--horizon", "60"],
            ["centropy", "--fn", "psi", "--seeds", "6", "--horizon", "10"],
            ["centropy", "--fn", "psi", "--seeds", "6", "--horizon", "10", "--mode", "core"],
            ["min-open", "--fn", "psi", "--n", "12"],
            ["min-open", "--fn", "phi", "--n", "2", "--scan-bound", "2000"],
            ["min-open", "--fn", "phi", "--n", "3", "--scan-bound", "200000"],
            ["min-open", "--fn", "phi", "--n", "6", "--topology", "taubar"],
            ["components", "--fn", "phi"], ["components", "--fn", "psi", "--bound", "300"],
            ["components", "--fn", "Omega", "--bound", "1024"],
            ["components", "--fn", "d", "--bound", "1024"],
            ["preimage", "--fn", "d_3", "--m", "4", "--bound", "512"],
            ["verify-lemma", "separation", "--fn", "psi", "--bound", "1000"],
            ["verify-lemma", "separation", "--fn", "phi", "--bound", "1000"],
            ["partition-demo"], ["partition-demo", "--mod", "3", "--bound", "100"],
            ["search", "--fn", "psi"],
            ["search", "--fn", "psi", "--max-start", "8", "--max-depth", "8",
             "--max-families", "2"],
            ["search", "--fn", "phi", "--direction", "backward", "--max-start", "10",
             "--max-depth", "4", "--max-families", "2"],
            ["search", "--fn", "phi", "--direction", "backward", "--max-start", "10",
             "--max-depth", "7", "--max-families", "3"]]
    # every catalogue family's closed form, at n = 720 and at a prime power,
    # and the complete inverter of every expansive family
    out += [["eval", "--fn", name, "--n", str(n)]
            for name in ("J_3", "psi_2", "phi_star", "Omega", "omega", "d_3", "sigma_2")
            for n in (720, 81)]
    out += [["eval", "--fn", "phi", "--n", "1000036000099"]]
    out += [["preimage", "--fn", "sigma_2", "--m", "50"],
            ["preimage", "--fn", "J_3", "--m", "2394"],
            ["preimage", "--fn", "psi_2", "--m", "50"]]
    out += [["verify-lemma", name, "--fn", fn, "--bound", "300"]
            for name, lemma in cli.LEMMAS.items() if "fn" in lemma.reads
            for fn in ("sigma_2", "phi_star")]
    out += [["partition-demo", "--mod", "0"], ["partition-demo", "--mod", "-2"],
            ["verify-lemma", "tau-subset", "--k", "3"],
            ["eval", "--fn", "J", "--k", "2", "--l", "5", "--n", "7"],
            ["verify-lemma", "phi-antiorbit", "--fn", "psi", "--bound", "7"],
            ["verify-lemma", "monotone-o-zero", "--depth", "9"],
            ["verify-lemma", "nonfinite-fibre", "--bound", "9"],
            ["verify-lemma", "--families", "3"],
            ["verify-lemma", "phi-antiorbit", "--list"],
            ["table", "connectivity", "--families", "3"],
            ["min-open", "--fn", "phi", "--n", "6", "--topology", "taubar",
             "--scan-bound", "3"],
            ["preimage", "--fn", "psi", "--m", "12", "--bound", "3"],
            ["min-open", "--fn", "psi", "--n", "12", "--scan-bound", "5"],
            ["no-such-command"], ["eval", "--fn", "phi"]]
    out += [["eval", "--fn", alias, "--n", "12"]
            for alias in ("phi*", "big_omega", "small_omega", "jordan_2")]
    out += [["eval", "--fn", spelling, "--n", "5"] for spelling in ("J_01", " phi ", "psi_02")]
    out += [["preimage", "--fn", name, "--m", m, "--bound", "10"]
            for name, m in (("Omega", "0"), ("omega", "-5"), ("d_3", "0"))]
    out += [["eval", "--fn", "phi", "--n", "5", "--config", name]
            for name in CONFIGS if name != CONFIG_PLACEHOLDER]
    out += [["family", "--scheme", "no-such"],
            ["table", "connectivity", "--bound", "200", "--sieve-bound", "100"]]
    out = [argv + ["--format", "json"] for argv in out]
    # a few keep their own format, so every renderer runs: the rows and the
    # key/value branches of csv, and text over a flat report, a list of
    # records and a list of numbers
    out += [["table", "orbit-numbers", "--format", "csv"],
            ["eval", "--fn", "phi", "--n", "18", "--format", "csv"],
            ["verify-lemma", "phi-antiorbit", "--format", "text"],
            ["verify-lemma", "--format", "text"],
            ["preimage", "--fn", "psi", "--m", "12", "--format", "text"]]
    return [argv + ["--no-timestamp"] for argv in out]


def run_one(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command, as `cli.main` ends it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        except Exception as exc:
            print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 3
    return code, stdout.getvalue(), stderr.getvalue()


@contextlib.contextmanager
def config_files() -> Iterator[dict[str, str]]:
    """Each name of CONFIGS -> the path of a temporary file holding its
    JSON, for the duration of the block."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in CONFIGS.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        yield paths


def main() -> int:
    with config_files() as paths:
        def placeholders(text: str) -> str:
            for name, path in paths.items():
                text = text.replace(path, name)
            return text

        for argv in commands():
            code, out, err = run_one([paths.get(a, a) for a in argv])
            print(f"$ arithdyn {' '.join(argv)}")
            print(f"exit {code}")
            print("--- stdout")
            print(placeholders(out), end="")
            print("--- stderr")
            print(placeholders(err), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
