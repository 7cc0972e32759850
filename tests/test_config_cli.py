"""Config parsing/validation, the runner's artifacts, and CLI exit codes."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from oscnet.cli import main as cli_main
from oscnet.config import EXPERIMENT_KINDS, parse_config
from oscnet.errors import ConfigError
from oscnet.runner import _RUNNERS, run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
{
  "seed": 7,
  "model": {
    "dimension": 1,
    "topology": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], "baths": ["a", "c"]},
    "bath_defaults": {"gamma": 1.0, "temperature": 1.0},
    "pinning": {"default": {"family": "quadratic", "stiffness": 1.0}},
    "interaction": {"default": {"family": "quadratic", "stiffness": 1.0}}
  },
  "experiment": {"kind": "simulate", "t_end": 1.0},
  "output": {"directory": "out"}
}
"""


def test_minimal_config_parses_with_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.seed == 7
    assert cfg.kind == "simulate"
    assert cfg.model is not None
    assert cfg.model.vertex_count == 3
    assert cfg.experiment["h"] == 1e-3
    assert cfg.experiment["record_every"] == 10
    assert cfg.experiment["initial"] == {"kind": "zero"}


# A document with a spec of every family, a per-vertex pinning and a
# per-edge interaction, and the echo of its potentials: each spec's family
# and its fields but ``dim``.
EVERY_FAMILY = {
    "pinning": {"default": {"family": "soft_power", "degree": 3},
                "per_vertex": {"b": {"family": "local_piece", "terms": [[1.0, [2.0, 0]], [0.5, [0, 4]]]}}},
    "interaction": {"default": {"family": "quadratic", "stiffness": [[2, 0.5], [0.5, 1]]},
                    "per_edge": [{"edge": ["c", "b"], "potential": {"family": "even_power", "degree": 4.0}}]},
}
EVERY_FAMILY_ECHO = {
    "pinning": {"default": {"family": "soft_power", "degree": 3.0},
                "per_vertex": {"b": {"family": "local_piece", "terms": [[1.0, [2, 0]], [0.5, [0, 4]]],
                                     "offset": 0.0}}},
    "interaction": {"default": {"family": "quadratic", "stiffness": [[2.0, 0.5], [0.5, 1.0]]},
                    "per_edge": [{"edge": ["b", "c"], "potential": {"family": "even_power", "degree": 4}}]},
}


def test_config_echo_is_a_fixpoint():
    # The minimal config, one with every potential family and every bundled
    # one parse, and each echo re-parses to itself.
    doc = json.loads(MINIMAL)
    doc["model"].update(dimension=2, **EVERY_FAMILY)
    echo = json.loads(parse_config(json.dumps(doc)).echo())["model"]
    assert {key: echo[key] for key in EVERY_FAMILY} == EVERY_FAMILY_ECHO
    texts = [MINIMAL, json.dumps(doc)] + [path.read_text() for path in sorted(CONFIG_DIR.glob("*.json"))]
    assert len(texts) == 9
    for text in texts:
        echoed = parse_config(text).echo()
        assert parse_config(echoed).echo() == echoed


def test_theta_tmax_constraint_reported():
    doc = json.loads(MINIMAL)
    doc["model"]["bath_overrides"] = {"c": {"temperature": 2.0}}
    doc["experiment"] = {"kind": "lyapunov-scan", "theta": 0.6,
                         "energy_grid": [10.0, 20.0, 40.0]}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("theta*T_max must be < 1" in m for m in err.value.messages)


def test_unknown_vertex_in_edge_is_named():
    doc = json.loads(MINIMAL)
    doc["model"]["topology"]["edges"].append(["a", "nope"])
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    joined = "\n".join(err.value.messages)
    assert "edges[2]" in joined and "nope" in joined


def test_all_errors_collected_not_just_first():
    doc = json.loads(MINIMAL)
    doc["model"]["topology"]["edges"].append(["a", "zzz"])
    doc["model"]["bath_defaults"]["gamma"] = -1.0
    doc["experiment"]["t_end"] = -5.0
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert len(err.value.messages) >= 3


def test_integrator_section_is_rejected():
    # The step size is experiment.h; a config that still sets it in an
    # integrator section is told so by name, not silently run at 1e-3.
    doc = json.loads(MINIMAL)
    doc["integrator"] = {"h0": 1e-2}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any(m.startswith("integrator:") for m in err.value.messages)


def test_unknown_top_level_key_is_named():
    doc = json.loads(MINIMAL)
    doc["outptu"] = doc.pop("output")
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any(m.startswith("outptu:") for m in err.value.messages)


@pytest.mark.parametrize("kind, key, value", [
    ("check", "h", "abc"),
    ("check", "sphere_samples", 50),
    ("simulate", "record_states", "yes please"),
    ("equilibrium-test", "observables", ["H", "bogus"]),
    ("decay-fit", "observable", "p2:3"),
])
def test_bad_experiment_setting_is_a_config_error(kind, key, value, tmp_path, capsys):
    # Each of these was accepted by the parser and either ignored or left
    # to fail mid-run; now the CLI names the setting and writes nothing.
    doc = json.loads(MINIMAL)
    doc["experiment"] = {"kind": kind, key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config error: experiment.{key}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, path, value, reported", [
    ("simulate", "experiment.t_end", math.inf, "experiment.t_end"),
    ("simulate", "experiment.t_end", 10 ** 400, "experiment.t_end"),
    ("simulate", "experiment.h", math.nan, "experiment.h"),
    ("simulate", "seed", math.inf, "<root>.seed"),
    ("lyapunov-scan", "experiment.energy_grid", [25.0, math.inf], "experiment.energy_grid"),
    ("simulate", "model.pinning.default.stiffness", [[math.inf]], "model.pinning.default.stiffness"),
    ("simulate", "model.interaction.default", {"family": "local_piece", "terms": [[math.nan, [2]]]},
     "model.interaction.default.terms"),
], ids=["t_end-inf", "t_end-beyond-float", "h-nan", "seed-inf", "energy_grid-inf", "stiffness-inf",
        "local_piece-nan"])
def test_non_finite_number_is_a_config_error(kind, path, value, reported, tmp_path, capsys):
    # json parses NaN, Infinity and integers beyond the float range.  An
    # infinite t_end passed validation and died with an OverflowError after
    # writing config.echo.json and a "running" manifest; an infinite seed
    # died inside parse_config; infinite potential coefficients built a model.
    doc = json.loads(MINIMAL)
    doc["experiment"] = {"kind": kind}
    *parents, key = path.split(".")
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config error: {reported}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("initial, key", [
    ({"kind": "energy"}, "H0"),
    ({"kind": "energy", "H0": -1.0}, "H0"),
    ({"kind": "energy", "H0": 10.0, "mode": "both"}, "mode"),
    ({"kind": "explicit", "p": [[0.0], [0.0], [0.0]]}, "q"),
    ({"kind": "explicit", "p": [[0.0, 1.0]] * 3, "q": [[0.0]] * 3}, "p"),
    ({"kind": "slow-mode", "scale": 0}, "scale"),
    ({"kind": "warm"}, "kind"),
    ({"kind": "zero", "H0": 10.0}, "H0"),
    ({"kind": ["zero"]}, "kind"),
])
def test_bad_initial_state_is_a_config_error(initial, key, tmp_path, capsys):
    # The initial state was read only at run time: {"kind": "energy"} died
    # with a KeyError and left config.echo.json and manifest.json behind.
    doc = json.loads(MINIMAL)
    doc["experiment"]["initial"] = initial
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config error: experiment.initial.{key}:" in capsys.readouterr().err
    assert not out.exists()


def test_checked_initial_state_fills_its_defaults():
    doc = json.loads(MINIMAL)
    doc["experiment"]["initial"] = {"kind": "energy", "H0": 10}
    assert parse_config(json.dumps(doc)).experiment["initial"] == {
        "kind": "energy", "H0": 10.0, "mode": "interaction"}
    doc["experiment"]["initial"] = {"kind": "explicit", "p": [[1], [0], [0]], "q": [[0]] * 3}
    assert parse_config(json.dumps(doc)).experiment["initial"]["p"] == [[1], [0], [0]]


@pytest.mark.parametrize("terms", [
    [[1.0, [2.7]]],
    [[1.0, ["2"]]],
    [[1.0, [True]]],
    [[1.0]],
], ids=["fractional", "string", "bool", "no-exponents"])
def test_bad_local_piece_exponent_is_a_config_error(terms, tmp_path, capsys):
    # int(e) turned 2.7 and "2" into 2 and true into 1, and the echo showed
    # the truncated exponent; [1.0] died with Python's unpacking message.
    doc = json.loads(MINIMAL)
    doc["model"]["interaction"]["default"] = {"family": "local_piece", "terms": terms}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "config error: model.interaction.default.terms: expected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key", [
    (("model",), "pinnig"),
    (("model", "bath_defaults"), "gama"),
    (("model", "bath_overrides", "c"), "temp"),
    (("output",), "bogus"),
    (("model", "pinning"), "defualt"),
    (("model", "pinning", "default"), "degre"),
    (("model", "topology"), "bath"),
    (("model", "interaction"), "per_edges"),
    (("model", "interaction", "default"), "ofset"),
])
def test_unknown_key_in_a_section_is_named(section, key, tmp_path, capsys):
    # These keys were ignored: a misspelt "pinnig" ran with the default
    # pinning and exited 0, and so did "pinning.defualt", a "degre" added
    # to a quadratic spec and "topology.bath".
    doc = json.loads(MINIMAL)
    doc["model"]["bath_overrides"] = {"c": {"temperature": 2.0}}
    target = doc
    for name in section:
        target = target[name]
    target[key] = 1.0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config error: {'.'.join(section)}.{key}: unknown key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, path", [
    ({"topology": {"fixture": "fig2_chain11", "baths": ["v0"]}}, "model.topology.baths"),
    ({"interaction": {"per_edge": [{"edge": ["a", "b"], "potentail": {}}]}},
     "model.interaction.per_edge[0].potentail"),
])
def test_unknown_key_in_fixture_topology_or_edge_entry_is_named(section, path):
    doc = json.loads(MINIMAL)
    doc["model"].update(section)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert f"{path}: unknown key" in err.value.messages


def test_syntax_error_reports_position():
    with pytest.raises(ConfigError) as err:
        parse_config("{ not json }")
    assert "syntax error at line" in err.value.messages[0]


def test_fixture_topology_in_config():
    doc = json.loads(MINIMAL)
    doc["model"]["topology"] = {"fixture": "fig2_chain11"}
    doc["experiment"] = {"kind": "check"}
    cfg = parse_config(json.dumps(doc))
    assert cfg.model.vertex_count == 11
    assert len(cfg.model.baths) == 2


def test_negative_h_rejected_before_any_stepping(tmp_path):
    doc = json.loads(MINIMAL)
    doc["experiment"]["h"] = -0.1
    doc["output"]["directory"] = str(tmp_path / "never")
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))
    assert not (tmp_path / "never").exists()


def test_lambda_constraint_for_quadratic_pinning():
    doc = json.loads(MINIMAL)
    doc["experiment"] = {"kind": "dissipation-scan", "lambda": 0.9, "energy_grid": [10.0, 20.0]}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.messages == [
        "experiment.lambda: when the pinning degree is 2, lambda must be <= 0.5"]
    # A quartic pinning at one vertex leaves no common pinning degree.
    doc["experiment"]["lambda"] = 0.5
    doc["model"]["pinning"]["per_vertex"] = {"b": {"family": "even_power", "degree": 4}}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.messages == [
        "experiment: energy scans need common interaction and pinning degrees >= 2"]


def test_energy_scan_degree_rule_is_a_config_error(tmp_path, capsys):
    # A linear local piece has interaction degree 1: the parser accepted
    # the model, and the run stopped on the library's ValueError.
    doc = json.loads((CONFIG_DIR / "dissipation_harmonic3.json").read_text())
    doc["model"]["interaction"]["default"] = {"family": "local_piece", "terms": [[1.0, [1]]]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["dissipation-scan", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: experiment: energy scans need common interaction and pinning degrees >= 2"]
    assert not out.exists()


QUADRATIC = {"family": "quadratic", "stiffness": 1.0}
DELETE = object()


@pytest.mark.parametrize("keys, value, reported", [
    (("seed",), 1.5, "<root>.seed"),
    (("model", "topology"), {"fixture": "no_such_fixture"}, "model.topology.fixture"),
    (("model", "topology", "vertices"), [], "model.topology.vertices"),
    (("model", "topology", "vertices"), ["a", "b", "a"], "model.topology.vertices"),
    (("model", "topology", "edges"), "a-b", "model.topology.edges"),
    (("model", "topology", "edges"), [["a", "b", "c"]], "model.topology.edges[0]"),
    (("model", "topology", "edges"), [["a", "z"]], "model.topology.edges[0]"),
    (("model", "topology", "edges"), [["b", "b"]], "model.topology.edges[0]"),
    (("model", "topology", "baths"), "a", "model.topology.baths"),
    (("model", "topology", "baths"), ["z"], "model.topology.baths[0]"),
    (("model", "bath_overrides"), {"z": {}}, "model.bath_overrides.z"),
    (("model", "bath_overrides"), {"b": {}}, "model.bath_overrides.b"),
    (("model", "pinning", "per_vertex"), {"z": QUADRATIC}, "model.pinning.per_vertex.z"),
    (("model", "interaction", "per_edge"), {}, "model.interaction.per_edge"),
    (("model", "interaction", "per_edge"), [{"edge": ["a"], "potential": QUADRATIC}],
     "model.interaction.per_edge[0].edge"),
    (("model", "interaction", "per_edge"), [{"edge": ["a", "c"], "potential": QUADRATIC}],
     "model.interaction.per_edge[0].edge"),
    (("model", "pinning", "default"), {"family": "even_power", "degree": 3}, "model.pinning.default"),
    (("model", "interaction", "default"), {"family": "quadratic", "stiffness": [[1.0, 0.0]]},
     "model.interaction.default"),
    (("model",), DELETE, "model"),
    (("model",), [], "model"),
    (("experiment",), [], "experiment"),
    (("model", "topology"), [], "model.topology"),
    (("model", "pinning", "default"), [], "model.pinning.default"),
    (("model", "interaction", "per_edge"), [[]], "model.interaction.per_edge[0]"),
    ((), {"experiment": []}, "experiment"),
    ((), {"experiment": {"kind": "simulat"}}, "experiment.kind"),
], ids=["seed-fractional", "unknown-fixture", "no-vertices", "duplicate-vertices",
        "edges-not-a-list", "edge-not-a-pair", "edge-unknown-vertex", "loop-edge",
        "baths-not-a-list", "bath-unknown-vertex", "override-unknown-vertex",
        "override-not-a-bath", "per-vertex-unknown-vertex", "per-edge-not-a-list",
        "per-edge-bad-pair", "per-edge-not-an-edge", "odd-even-power", "stiffness-shape",
        "no-model", "model-not-an-object", "experiment-not-an-object",
        "topology-not-an-object", "potential-not-an-object", "per-edge-entry-not-an-object",
        "no-model-experiment-not-an-object", "no-model-unknown-kind"])
def test_each_config_error_is_reported_once(keys, value, reported, tmp_path, capsys):
    # A section that is not an object is one error: a model given as []
    # was also reported as having no vertices, and an experiment given as
    # [] as having no kind.  Without keys, ``value`` is the whole document:
    # a missing model is not also reported for a kind that is invalid.
    doc = json.loads(MINIMAL) if keys else value
    if keys:
        *parents, key = keys
        target = doc
        for name in parents:
            target = target[name]
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: {reported}: ")
    assert not out.exists()


# --- Runner artifacts ------------------------------------------------------------

def test_run_check_writes_report(tmp_path):
    text = (CONFIG_DIR / "check_chain11.json").read_text()
    cfg = parse_config(text)
    code = run(cfg, command="check", out_dir=str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    cond = report["conditions"]
    assert all(cond[k]["ok"] for k in ("c1", "c2", "c3", "c4", "c5", "ca"))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert {o["name"] for o in manifest["outputs"]} >= {"report.json", "config.echo.json"}
    assert (tmp_path / "timing.json").exists()


def test_run_simulate_blowup_exits_2(tmp_path):
    # The partial trace of a numerical failure is kept whatever the formats.
    doc = json.loads(MINIMAL)
    doc["output"]["formats"] = ["json"]
    doc["model"]["pinning"]["default"] = {"family": "even_power", "degree": 4}
    doc["model"]["interaction"]["default"] = {"family": "even_power", "degree": 4}
    doc["experiment"] = {"kind": "simulate", "t_end": 10.0, "h": 0.5,
                         "initial": {"kind": "explicit",
                                     "p": [[80.0], [0.0], [-80.0]],
                                     "q": [[50.0], [0.0], [-50.0]]}}
    cfg = parse_config(json.dumps(doc))
    code = run(cfg, command="simulate", out_dir=str(tmp_path))
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "partial"
    assert report["kind"] == "simulate" and report["seed"] == 7
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "failed:numerical"
    assert (tmp_path / "trace_partial.csv").exists()


def test_slow_mode_start_without_a_stationary_law_exits_1(tmp_path, capsys):
    # One bath and no pinning: the drift is not Hurwitz, so the default
    # slow-mode start does not exist.  This exited 2 as a numerical failure
    # with partial artifacts, though no step had run.
    doc = json.loads(MINIMAL)
    doc["model"]["topology"]["baths"] = ["a"]
    doc["model"]["pinning"]["default"]["stiffness"] = 0.0
    doc["experiment"] = {"kind": "decay-fit"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["decay-fit", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "error: experiment.initial:" in capsys.readouterr().err
    assert not out.exists()


def test_command_mismatch_is_rejected(tmp_path):
    cfg = parse_config(MINIMAL)
    with pytest.raises(ValueError):
        run(cfg, command="check", out_dir=str(tmp_path))


# --- CLI ---------------------------------------------------------------------------

def test_cli_counterexample(tmp_path):
    out = tmp_path / "c4"
    code = cli_main(["counterexample-c4",
                     "--config", str(CONFIG_DIR / "counterexample_c4.json"),
                     "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["max_abs_p1"] <= 1e-6
    assert report["x2_end"] <= 3.5
    trace = (out / "trace_c4.csv").read_text().strip().split("\n")
    header = trace[0].split(",")
    ip = header.index("p1_0")
    p1_cols = np.array([[float(x) for x in row.split(",")[ip:ip + 3]] for row in trace[1:]])
    assert np.max(np.abs(p1_cols)) <= 1e-6


@pytest.mark.parametrize("stem, overrides, keys", [
    ("dissipation_harmonic3", {}, {"levels"}),
    ("equilibrium_chain3", {"n_samples": 1000},
     {"mean_after", "mean_before", "n", "sample_temperature", "se", "t_check", "z_scores"}),
    ("decay_quadratic3", {"ensemble": 200, "horizon": 10, "stationary_samples": 800},
     {"fit_points", "inconclusive", "mu_hat", "mu_se", "observable", "oracle_slowest_rate", "rate"}),
])
def test_cli_runs_each_statistical_kind(stem, overrides, keys, tmp_path):
    # These kinds (and decay-fit's slow-mode start) ran nowhere else in
    # process; the manifest lists exactly the files the run left.
    doc = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    doc["experiment"].update(overrides)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main([doc["experiment"]["kind"], "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"kind", "seed"} | keys
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    on_disk = {path.name for path in out.iterdir()} - {"manifest.json", "timing.json"}
    assert {o["name"] for o in manifest["outputs"]} == on_disk


def test_cli_bad_config_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = cli_main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_missing_config_exit_1(tmp_path):
    code = cli_main(["check", "--config", str(tmp_path / "none.json")])
    assert code == 1


def test_cli_fixtures_listing(capsys):
    assert cli_main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "fig2_chain11" in out and "counterexample-c4" in out


def test_runtime_precondition_failure_leaves_no_artifacts(tmp_path):
    # The energy floor check needs the built model, so it surfaces at run
    # time; it must still behave like a validation failure.
    doc = json.loads(MINIMAL)
    doc["model"]["pinning"]["default"] = {"family": "soft_power", "degree": 4}
    doc["model"]["interaction"]["default"] = {"family": "soft_power", "degree": 4}
    doc["experiment"] = {"kind": "simulate", "t_end": 1.0,
                         "initial": {"kind": "energy", "H0": 0.5}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_cli_inconclusive_scan_exits_3(tmp_path):
    doc = json.loads(MINIMAL)
    doc["model"]["bath_overrides"] = {"c": {"temperature": 2.0}}
    # Near-typical energies: the drift interval does not exclude one, so
    # fewer than three levels qualify for the fit.
    doc["experiment"] = {"kind": "lyapunov-scan", "theta": 0.05, "t_star": 1.0,
                         "ensemble": 100, "energy_grid": [3.0, 4.0, 5.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli_main(["lyapunov-scan", "--config", str(cfg_path), "--out", str(out)])
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["inconclusive"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "inconclusive"


def test_lyapunov_scan_has_no_lambda(tmp_path, capsys):
    # The drift scan has no window length: lambda is an unknown key there.
    doc = json.loads((CONFIG_DIR / "lyapunov_harmonic3.json").read_text())
    doc["experiment"]["lambda"] = 0.5
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["lyapunov-scan", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "experiment.lambda: unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_lyapunov_scan_past_the_float_range_of_the_cap(tmp_path):
    # At H0 = 1500 the blowup cap exp(theta * 2 H0) = exp(750) is beyond
    # the float range; a level without blown members still reports.
    doc = json.loads((CONFIG_DIR / "lyapunov_harmonic3.json").read_text())
    doc["experiment"]["energy_grid"] = [25.0, 50.0, 100.0, 1500.0]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli_main(["lyapunov-scan", "--config", str(cfg_path), "--out", str(out)])
    assert code in (0, 3)
    report = json.loads((out / "report.json").read_text())
    assert [lv["H0"] for lv in report["levels"]][-1] == pytest.approx(1500.0)
    assert all(math.isfinite(lv["mean"]) for lv in report["levels"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] in ("complete", "inconclusive")


def test_simulate_state_snapshots_written(tmp_path):
    doc = json.loads(MINIMAL)
    doc["experiment"] = {"kind": "simulate", "t_end": 0.2, "h": 0.01,
                         "record_every": 5, "record_states": True}
    cfg = parse_config(json.dumps(doc))
    assert run(cfg, command="simulate", out_dir=str(tmp_path)) == 0
    p = np.load(tmp_path / "states_p.npy")
    steps = np.load(tmp_path / "states_steps.npy")
    assert p.shape[1:] == (3, 1)
    assert p.shape[0] == len(steps)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {"states_p.npy", "states_q.npy", "states_steps.npy"} <= {
        o["name"] for o in manifest["outputs"]
    }


def test_json_only_format_omits_trace_csv(tmp_path):
    doc = json.loads(MINIMAL)
    doc["output"]["formats"] = ["json"]
    cfg = parse_config(json.dumps(doc))
    assert run(cfg, command="simulate", out_dir=str(tmp_path)) == 0
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "trace_main.csv").exists()


def test_json_only_format_omits_c4_trace_csv(tmp_path):
    doc = json.loads((CONFIG_DIR / "counterexample_c4.json").read_text())
    doc["output"]["formats"] = ["json"]
    cfg = parse_config(json.dumps(doc))
    assert run(cfg, command="counterexample-c4", out_dir=str(tmp_path)) == 0
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "trace_c4.csv").exists()


def test_every_experiment_kind_has_one_runner_function():
    assert sorted(_RUNNERS) == sorted(EXPERIMENT_KINDS)
    assert len(set(_RUNNERS.values())) == len(EXPERIMENT_KINDS)


def test_cli_simulate_rerun_is_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["simulate",
                         "--config", str(CONFIG_DIR / "simulate_chain3.json"),
                         "--out", str(out)])
        assert code == 0
        outs.append(out)
    for fname in ("trace_main.csv", "report.json", "manifest.json", "config.echo.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


@pytest.mark.parametrize("edit, reported", [
    (lambda doc: doc["model"]["topology"]["edges"].append(["a", "b"]),
     "model.topology.edges[2]: edge ['a', 'b'] repeats edges[0]"),
    (lambda doc: doc["model"]["topology"]["edges"].append(["c", "b"]),
     "model.topology.edges[2]: edge ['c', 'b'] repeats edges[1]"),
    (lambda doc: doc["model"]["topology"]["baths"].append("a"),
     "model.topology.baths[2]: bath 'a' repeats baths[0]"),
    (lambda doc: doc.update(seed=-1), "<root>.seed: must be in [0, 2^64), got -1"),
    (lambda doc: doc.update(seed=2 ** 64),
     "<root>.seed: must be in [0, 2^64), got 18446744073709551616"),
], ids=["edge", "reversed-edge", "bath", "seed-negative", "seed-2^64"])
def test_repeated_entry_or_unkeyable_seed_is_a_config_error(edit, reported, tmp_path, capsys):
    # A repeated edge or bath collapsed silently (the echo listed 2 edges
    # where the document listed 3), and a seed outside [0, 2^64) keyed the
    # noise streams of seed mod 2^64.
    doc = json.loads(MINIMAL)
    edit(doc)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.messages == [reported]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config error: {reported}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_cli_seed_outside_the_key_range_is_a_config_error(seed, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", seed]) == 1
    assert f"config error: --seed: must be in [0, 2^64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_seeds_at_the_ends_of_the_key_range_parse():
    for seed in (0, 2 ** 64 - 1):
        doc = json.loads(MINIMAL)
        doc["seed"] = seed
        assert parse_config(json.dumps(doc)).seed == seed
