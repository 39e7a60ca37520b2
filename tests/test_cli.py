import io
import json

import pytest

from arithdyn import cli


def run_cli(*argv):
    buf = io.StringIO()
    code = cli.run(list(argv), out=buf)
    return code, buf.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv, "--format", "json", "--no-timestamp")
    return code, json.loads(text)


def test_eval_command():
    code, doc = run_json("eval", "--fn", "phi", "--n", "18")
    assert code == 0
    assert doc["status"] == "INFO"
    assert doc["results"]["value"]["value"] == 6
    assert doc["schema"] == 1


def test_oracle_eval_command():
    code, doc = run_json("oracle-eval", "--fn", "d_3", "--n", "12")
    assert code == 0
    assert doc["results"]["value"] == 18


def test_eval_rejects_unknown_function(capsys):
    code, _ = run_cli("eval", "--fn", "zeta", "--n", "3")
    assert code == 2


def test_preimage_routes():
    code, doc = run_json("preimage", "--fn", "psi", "--m", "12")
    assert code == 0
    assert doc["results"]["members"] == [6, 8, 9, 11]
    assert doc["results"]["completeness"] == "COMPLETE"
    code, doc = run_json("preimage", "--fn", "phi", "--m", "4")
    assert doc["results"]["members"] == [5, 8, 10, 12]
    code, doc = run_json("preimage", "--fn", "phi_star", "--m", "6", "--bound", "100")
    assert doc["results"]["completeness"] == "BOUNDED_SEARCH"
    code, _ = run_cli("preimage", "--fn", "Omega", "--m", "1")
    assert code == 2  # refuses: not finite fibre, no bound given


def test_inverse_phi_and_bound():
    code, doc = run_json("inverse-phi", "--m", "1")
    assert doc["results"]["members"] == [1, 2]
    code, doc = run_json("phi-bound", "--m", "2")
    assert doc["results"]["bound"]["value"] == 36


def test_orbit_and_family():
    code, doc = run_json("orbit", "--fn", "phi", "--n", "6", "--depth", "4")
    assert doc["results"]["iterates"] == [6, 2, 1, 1]
    code, doc = run_json("family", "--scheme", "psi-orbit", "--index", "1",
                         "--depth", "3")
    assert [t["value"] for t in doc["results"]["terms"]] == [6, 12, 24]


def test_verify_lemma_list_covers_registry():
    code, doc = run_json("verify-lemma", "--list")
    assert code == 0
    ids = {row["id"] for row in doc["results"]["lemmas"]}
    assert ids == set(cli.LEMMAS)
    assert len(ids) == 17


def test_verify_lemma_unknown_id():
    code, _ = run_cli("verify-lemma", "not-a-lemma")
    assert code == 2


FAST_LEMMA_ARGS = {
    "phi-antiorbit": ["--families", "4", "--depth", "6"],
    "d-antiorbit": ["--families", "3", "--depth", "4"],
    "omega-antiorbit": ["--families", "3", "--depth", "4"],
    "smallomega-antiorbit": ["--families", "3", "--depth", "5"],
    "psi-orbit": ["--families", "4", "--depth", "6"],
    "j2-orbit": ["--families", "4", "--depth", "6"],
    "generic-note": ["--families", "2", "--depth", "8"],
    "monotone-o-zero": ["--bound", "500"],
    "monotone-a-zero": ["--bound", "500"],
    "strict-o-positive": ["--bound", "500"],
    "phi-finite-fibre": ["--bound", "20"],
    "nonfinite-fibre": ["--families", "50"],
    "tau-subset": ["--bound", "300"],
    "taubar-subset": ["--bound", "300"],
    "connected-forward": ["--bound", "500"],
    "separation": ["--bound", "500"],
    "partition-example": ["--bound", "100"],
}


def test_every_lemma_id_runs_and_passes():
    assert set(FAST_LEMMA_ARGS) == set(cli.LEMMAS)
    for lemma, extra in FAST_LEMMA_ARGS.items():
        code, doc = run_json("verify-lemma", lemma, *extra)
        assert code == 0, (lemma, doc)
        assert doc["results"]["status"] == "PASS", lemma


def test_verify_lemma_refuses_zero_parameters(capsys):
    for flag in ("--depth", "--families"):
        code, out = run_cli("verify-lemma", "phi-antiorbit", flag, "0")
        assert code == 2 and out == "", flag


def test_verify_lemma_refuses_depth_past_the_cap(capsys):
    code, out = run_cli("verify-lemma", "d-antiorbit", "--depth", "6")
    assert code == 2 and out == ""
    assert "outside 1..5" in capsys.readouterr().err


def test_lemma_failure_exit_code():
    code, doc = run_json("verify-lemma", "separation", "--fn", "phi",
                         "--bound", "100")
    assert code == 1
    assert doc["results"]["counterexample"]["position"] == 2


def test_entropy_commands():
    code, doc = run_json("entropy", "--fn", "psi", "--seeds", "6,18,54",
                         "--horizon", "60")
    assert doc["results"]["value"]["decimal"] == 3.0
    code, doc = run_json("centropy", "--fn", "psi", "--seeds", "6",
                         "--horizon", "10")
    assert doc["results"]["value"]["numerator"] == 1
    assert doc["results"]["value"]["denominator"] == 2
    assert "ambient" in doc["results"]["note"]


def test_min_open_command():
    code, doc = run_json("min-open", "--fn", "psi", "--n", "12")
    assert doc["results"]["members"] == [2, 3, 4, 5, 6, 7, 8, 9, 11, 12]
    code, doc = run_json("min-open", "--fn", "phi", "--n", "6",
                         "--topology", "taubar")
    assert doc["results"]["members"] == [1, 2, 6]


def test_separation_and_partition_commands():
    code, doc = run_json("separation", "--fn", "psi", "--bound", "1000")
    assert code == 0 and doc["status"] == "PASS"
    code, doc = run_json("separation", "--fn", "phi", "--bound", "1000")
    assert code == 1
    code, doc = run_json("partition-demo", "--mod", "2", "--bound", "100")
    assert doc["results"]["component_count"] == 2


def test_components_and_search():
    code, doc = run_json("components", "--fn", "phi", "--bound", "300")
    assert doc["results"]["component_count"] == 1
    code, doc = run_json("search", "--fn", "psi", "--max-start", "8",
                         "--max-depth", "8", "--max-families", "2")
    assert doc["results"]["label"] == "EXPERIMENTAL"
    assert doc["results"]["candidates"]


def test_table_determinism():
    _, first = run_cli("table", "orbit-numbers", "--no-timestamp",
                       "--format", "json")
    _, second = run_cli("table", "orbit-numbers", "--no-timestamp",
                        "--format", "json")
    assert first == second
    doc = json.loads(first)
    assert "timestamp" not in doc
    assert len(doc["results"]["rows"]) == 8


def test_timestamp_present_by_default():
    _, text = run_cli("eval", "--fn", "phi", "--n", "5", "--format", "json")
    assert "timestamp" in json.loads(text)


def test_connectivity_table():
    code, doc = run_json("table", "connectivity", "--bound", "500")
    rows = {r["function"]: r["verdict"] for r in doc["results"]["rows"]}
    assert rows["phi"].startswith("connected")
    assert rows["psi"].startswith("disconnected")
    assert rows["d"].startswith("no verdict")  # d(2) = 2 breaks the hypothesis


def test_csv_format():
    code, text = run_cli("table", "connectivity", "--bound", "200",
                         "--format", "csv", "--no-timestamp")
    lines = text.strip().splitlines()
    assert lines[0] == "function,verdict"
    assert len(lines) == 12  # header + 11 catalogue rows


def test_text_format_runs():
    code, text = run_cli("eval", "--fn", "psi", "--n", "6")
    assert "value: 12" in text


def test_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"depth_cap_omega_anti": 3}')
    code, _ = run_cli("family", "--scheme", "omega-anti", "--depth", "4",
                      "--config", str(cfg))
    assert code == 2  # depth 4 now exceeds the configured cap
    code, _ = run_cli("family", "--scheme", "omega-anti", "--depth", "3",
                      "--config", str(cfg))
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"unknown_key": 1}')
    code, _ = run_cli("eval", "--fn", "phi", "--n", "2", "--config", str(bad))
    assert code == 2


def test_render_value_respects_the_bit_budget():
    code, doc = run_json("family", "--scheme", "j2-orbit", "--depth", "5",
                         "--bit-budget", "64")
    assert code == 0
    assert doc["provenance"]["config"]["bit_budget"] == 64
    last = doc["results"]["terms"][-1]
    assert last == {"factored": "2^95*3", "value": "OVERFLOW"}
    code, doc = run_json("family", "--scheme", "j2-orbit", "--depth", "5")
    assert doc["results"]["terms"][-1]["value"] == "<97-bit integer>"


# runner -> the options it reads, each refused at 0
ZERO_REFUSALS = [
    ("verify-lemma", "generic-note", "--families"),
    ("verify-lemma", "generic-note", "--depth"),
    ("verify-lemma", "monotone-o-zero", "--bound"),
    ("verify-lemma", "monotone-a-zero", "--bound"),
    ("verify-lemma", "strict-o-positive", "--bound"),
    ("verify-lemma", "phi-finite-fibre", "--bound"),
    ("verify-lemma", "nonfinite-fibre", "--families"),
    ("verify-lemma", "tau-subset", "--bound"),
    ("verify-lemma", "taubar-subset", "--bound"),
    ("verify-lemma", "connected-forward", "--bound"),
    ("verify-lemma", "separation", "--bound"),
    ("verify-lemma", "partition-example", "--bound"),
    ("table", "orbit-numbers", "--bound"),
    ("table", "orbit-numbers", "--families"),
    ("table", "orbit-numbers", "--depth"),
    ("table", "connectivity", "--bound"),
]


@pytest.mark.parametrize("command,target,flag", ZERO_REFUSALS)
def test_runners_refuse_non_positive_parameters(capsys, command, target, flag):
    for value in ("0", "-3"):
        code, out = run_cli(command, target, flag, value)
        assert code == 2 and out == "", (target, flag, value)
        assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err


def test_preimage_inverter_method_and_sieve_independence():
    code, doc = run_json("preimage", "--fn", "psi", "--m", "12")
    assert doc["results"]["method"] == "divisor-driven inversion (complete)"
    # expansive targets no longer need a sieve up to m
    code, doc = run_json("preimage", "--fn", "sigma_1", "--m", "24",
                         "--sieve-bound", "10")
    assert code == 0
    assert doc["results"]["members"] == [14, 15, 23]
