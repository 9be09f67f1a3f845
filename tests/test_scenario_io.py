"""Scenario files, state-space construction, bundles, and the CLI."""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from risksharing.cli import main as cli_main
from risksharing.errors import ValidationError
from risksharing.scenario import (
    Scenario,
    _evaluate,
    build_market,
    build_state_space,
    builtin_scenario,
    load_scenario,
)

COMMON_BELIEFS_DOC = {
    "name": "common",
    "states": {
        "model": "explicit",
        "weights": [0.25, 0.25, 0.25, 0.25],
        "variables": {"X": [1.0, 0.5, -0.5, -1.0]},
    },
    "agents": [
        {"delta": 1.0, "beliefs": {"log_density": "X"}},
        {"delta": 2.0, "beliefs": {"log_density": "X"}},
    ],
}


def write_yaml(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


class TestStateSpace:
    def test_two_point_rule_is_plus_minus_one(self):
        sc = Scenario.from_dict(
            {
                "name": "g",
                "states": {
                    "model": "gaussian",
                    "variables": ["X"],
                    "std": [1.0],
                    "corr": [[1.0]],
                    "quadrature_order": 2,
                },
                "agents": [{"delta": 1.0}, {"delta": 1.0}],
            }
        )
        space, variables, info = build_state_space(sc)
        np.testing.assert_allclose(sorted(variables["X"].values), [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(space.baseline_weights, [0.5, 0.5], atol=1e-14)
        assert info["n_states"] == 2

    def test_explicit_passthrough(self):
        sc = Scenario.from_dict(COMMON_BELIEFS_DOC)
        space, variables, _ = build_state_space(sc)
        np.testing.assert_allclose(space.baseline_weights, 0.25)
        np.testing.assert_allclose(variables["X"].values, [1.0, 0.5, -0.5, -1.0])

    def test_sampling_is_seed_deterministic(self):
        doc = {
            "name": "mc",
            "states": {
                "model": "gaussian",
                "variables": ["X", "Y"],
                "std": [1.0, 2.0],
                "corr": [[1.0, 0.3], [0.3, 1.0]],
                "samples": 500,
                "seed": 99,
            },
            "agents": [{"delta": 1.0}, {"delta": 1.0}],
        }
        a = build_state_space(Scenario.from_dict(doc))
        b = build_state_space(Scenario.from_dict(doc))
        np.testing.assert_array_equal(a[1]["X"].values, b[1]["X"].values)
        np.testing.assert_array_equal(a[1]["Y"].values, b[1]["Y"].values)

    def test_sampling_requires_seed(self):
        doc = {
            "name": "mc",
            "states": {
                "model": "gaussian",
                "variables": ["X"],
                "std": [1.0],
                "corr": [[1.0]],
                "samples": 100,
            },
            "agents": [{"delta": 1.0}, {"delta": 1.0}],
        }
        with pytest.raises(ValidationError):
            Scenario.from_dict(doc)

    def test_non_psd_is_rejected_without_repair(self):
        doc = {
            "name": "bad",
            "states": {
                "model": "gaussian",
                "variables": ["A", "B", "C"],
                "std": [0.4, 2.7, 1.1],
                "corr": [[1, -0.9, 0.7], [-0.9, 1, -0.3], [0.7, -0.3, 1]],
                "quadrature_order": 4,
            },
            "agents": [{"delta": 1.0}, {"delta": 1.0}],
        }
        with pytest.raises(ValidationError, match="positive semi-definite"):
            build_state_space(Scenario.from_dict(doc))
        doc["states"]["covariance_repair"] = "clip"
        space, _, info = build_state_space(Scenario.from_dict(doc))
        assert info["effective_dims"] == 2
        assert info["eigenvalue_deficit"] > 0

    def test_state_cap(self):
        doc = {
            "name": "big",
            "states": {
                "model": "gaussian",
                "variables": ["A", "B", "C"],
                "std": [1.0, 1.0, 1.0],
                "corr": np.eye(3).tolist(),
                "quadrature_order": 101,
            },
            "agents": [{"delta": 1.0}, {"delta": 1.0}],
        }
        with pytest.raises(ValidationError, match="cap"):
            build_state_space(Scenario.from_dict(doc))

    def test_bad_expression(self):
        doc = dict(COMMON_BELIEFS_DOC)
        doc = json.loads(json.dumps(doc))
        doc["agents"][0]["beliefs"] = {"log_density": "X + missing_name"}
        with pytest.raises(ValidationError, match="expression"):
            build_market(Scenario.from_dict(doc))

    @pytest.mark.parametrize(
        "expr",
        [
            "X.__class__",
            "X[0]",
            "[x for x in X]",
            "(lambda: 1.0)()",
            "open('scenario.yaml')",
            "'X'",
            "9**9**9",
            "[c for c in ().__class__.__base__.__subclasses__()].__len__()",
        ],
        ids=["attribute", "subscript", "comprehension", "lambda", "off-list-call", "string",
             "overflow", "escape"],
    )
    def test_expression_outside_grammar_rejected(self, expr):
        variables = build_state_space(Scenario.from_dict(COMMON_BELIEFS_DOC))[1]
        with pytest.raises(ValidationError, match="expression"):
            _evaluate(expr, variables, 4)


class TestMarketBuilding:
    def test_endowment_beliefs_fold(self):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["agents"][0]["beliefs"] = {"endowment": "X"}
        market, variables, _ = build_market(Scenario.from_dict(doc))
        x = variables["X"].values
        w = np.asarray(doc["states"]["weights"]) * np.exp(-x)
        np.testing.assert_allclose(
            market.agents[0].beliefs.weights, w / w.sum(), atol=1e-14
        )

    def test_explicit_weight_beliefs(self):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["agents"][1]["beliefs"] = {"weights": [0.4, 0.3, 0.2, 0.1]}
        market, _, _ = build_market(Scenario.from_dict(doc))
        np.testing.assert_allclose(
            market.agents[1].beliefs.weights, [0.4, 0.3, 0.2, 0.1]
        )

    def test_at_least_two_agents(self):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["agents"] = doc["agents"][:1]
        with pytest.raises(ValidationError):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("tol", [1e-9, 0, None])
    def test_solver_tol_accepted(self, tol):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["solver"] = {"tol": tol}
        assert Scenario.from_dict(doc).solver == {"tol": tol}

    @pytest.mark.parametrize("key", ["damping", "max_iter", "multistart", "tolerance"])
    def test_solver_unknown_key_rejected(self, tmp_path, key, capsys):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["solver"] = {"tol": 1e-9, key: 1}
        with pytest.raises(ValidationError, match=key):
            Scenario.from_dict(doc)
        assert cli_main(["nash", str(write_yaml(tmp_path, doc))]) == 3
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("solver", [{"tol": "1e-9"}, {"tol": True}, ["tol"]])
    def test_solver_malformed_rejected(self, solver):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["solver"] = solver
        with pytest.raises(ValidationError):
            Scenario.from_dict(doc)


class TestCli:
    def test_nash_on_common_beliefs_certified(self, tmp_path, capsys):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        out = tmp_path / "out.json"
        code = cli_main(["nash", str(path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["certified"] is True
        sec = np.asarray(doc["nash"]["securities"])
        assert float(np.max(np.abs(sec))) <= 1e-9

    def test_verify_round_trip_and_tamper(self, tmp_path):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        out = tmp_path / "out.json"
        assert cli_main(["nash", str(path), "--out", str(out)]) == 0
        assert cli_main(["verify", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["nash"]["securities"][0] = [
            v + 1e-3 for v in doc["nash"]["securities"][0]
        ]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert cli_main(["verify", str(tampered)]) == 2

    def test_verify_fails_a_far_log_ratio(self, tmp_path):
        """A stored ratio far from any equilibrium fails the ledger, without
        steering the ledger's best response outside its bound."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "cli-nash.yaml"
        out = tmp_path / "out.json"
        assert cli_main(["nash", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["nash"]["log_ratios"][0] = [1e300] * len(doc["nash"]["log_ratios"][0])
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert cli_main(["verify", str(tampered)]) == 2

    def test_bundle_round_trip_is_bit_exact(self, tmp_path):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        out = tmp_path / "out.json"
        cli_main(["nash", str(path), "--out", str(out)])
        doc = json.loads(out.read_text())
        again = tmp_path / "again.json"
        from risksharing.bundle import write_bundle

        write_bundle(doc, again)
        assert out.read_text() == again.read_text()

    def test_determinism_modulo_timestamp(self, tmp_path):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        cli_main(["nash", str(path), "--out", str(out1)])
        cli_main(["nash", str(path), "--out", str(out2)])
        lines1 = [l for l in out1.read_text().splitlines() if '"timestamp"' not in l]
        lines2 = [l for l in out2.read_text().splitlines() if '"timestamp"' not in l]
        assert lines1 == lines2

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("states: {model: nowhere}\n")
        assert cli_main(["nash", str(bad)]) == 3

    @pytest.mark.parametrize(
        "command, change",
        [
            ("nash", lambda d: d["agents"][0].update(delta="abc")),
            ("nash", lambda d: d["agents"][0].update(delta=1.0e13)),
            ("nash", lambda d: d["states"].update(weights=[0.3, 0.3, 0.2, 0.3])),
            ("nash", lambda d: d["agents"][0].update(beliefs={"weights": [0.2] * 4})),
            ("limits", lambda d: d.update(limits={"mode": "both", "xi0": "X", "xi1": "-X",
                                                  "lambda0": 1.5})),
            ("limits", lambda d: d.update(limits={"deltas": ["abc"]})),
            ("limits", lambda d: d.update(limits={"deltas": [-10, 100]})),
            ("limits", lambda d: d.update(limits={"mode": "bogus"})),
        ],
        ids=[
            "delta-abc", "delta-too-large", "state-weights", "belief-weights",
            "lambda0", "deltas-abc", "deltas-negative", "mode-bogus",
        ],
    )
    def test_malformed_scenario_values_exit_3(self, tmp_path, capsys, command, change):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        change(doc)
        path = write_yaml(tmp_path, doc)
        assert cli_main([command, str(path), "--out", str(tmp_path / "o.json")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")

    @pytest.mark.parametrize(
        "args",
        [["nash"], ["nash", "{path}", "--tol", "abc"], ["limits", "{path}", "--deltas", "abc"],
         ["limits", "{path}", "--deltas=-10,100"], ["nash", "{path}", "--no-such-flag"],
         ["replicate", "beta-symmetric", "--deltas", "1,2"],
         # Flags that the command, or the command on this input, never reads.
         ["ad", "{path}", "--tol", "-1"], ["limits", "{path}", "--tol", "-1"],
         ["limits", "{path}", "--hist", "X"],
         ["best-response", "{path}", "--agent", "0", "--truthful-others", "--tol", "-1"],
         ["replicate", "limit-one-agent", "--tol", "-1"],
         ["replicate", "limit-one-agent", "--hist", "X", "--bins", "3"],
         ["replicate", "limit-both", "--hist", "XI0"],
         ["replicate", "limit-one-agent", "--quadrature-order", "8"],
         ["replicate", "limit-both", "--samples", "10"],
         ["replicate", "example-2.7", "--seed", "3"],
         ["replicate", "example-2.7", "--quadrature-order", "8", "--samples", "10", "--seed", "1"]],
        ids=["no-scenario", "tol-abc", "deltas-abc", "deltas-negative", "unknown-flag",
             "deltas-without-limits", "ad-tol", "limits-tol", "limits-hist",
             "truthful-others-tol", "limit-tol", "limit-hist-bins", "limit-both-hist",
             "explicit-quadrature-order", "explicit-samples", "quadrature-seed",
             "quadrature-order-and-samples"],
    )
    def test_argument_errors_exit_3(self, tmp_path, capsys, args):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        argv = [a.format(path=path) for a in args] + ["--out", str(tmp_path / "o.json")]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["nash", "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    # The bundle is written by the command that writes ``section``; a section
    # given as "market limits" is edited in the bundle that writes ``limits``.
    # A callable value maps the stored value to the malformed one; a key of
    # None stands for the whole section.
    @pytest.mark.parametrize(
        "section, key, value",
        [("market", "baseline_weights", [0.3, 0.3, 0.3, 0.3]),
         ("best_response", "log_ratio", None),
         ("nash", "securities", 5),
         ("nash", "z", lambda z: z[:1]),
         ("nash", "securities", lambda sec: sec[:1]),
         ("best_response", "agent", 7),
         ("limits", "pricing", [1.0]),
         ("limits", "table", lambda rows: [rows[0], rows[1][:2]] + rows[2:]),
         ("limits", None, lambda lim: list(lim.values())),
         ("limits", "z_infinity", "abc"),
         ("limits", "mode", "both"),
         ("limits", "gain_agent0", None),
         ("nash", "log_ratios", lambda u: [[float("nan")] * len(u[0])] + u[1:]),
         ("market limits", None, lambda m: m | {"deltas": m["deltas"] + [1.0],
                                               "belief_weights": m["belief_weights"]
                                               + m["belief_weights"][:1]})],
        ids=["baseline-weights", "no-log-ratio", "securities-not-a-list", "z-too-short",
             "securities-cut", "agent-out-of-range", "limit-pricing-short", "limit-table-ragged",
             "limits-a-list", "limit-z-not-a-number", "limit-mode-both", "no-limit-gain",
             "log-ratios-nan", "limits-on-three-agents"],
    )
    def test_malformed_bundle_exits_3(self, tmp_path, capsys, section, key, value):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        out = tmp_path / "out.json"
        section, _, command = section.partition(" ")
        solve = {
            "best_response": ["best-response", str(path), "--agent", "0"],
            "limits": ["replicate", "limit-one-agent"],
        }.get(command or section, ["nash", str(path)])
        assert cli_main(solve + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        if key is None:
            doc[section] = value(doc[section])
        elif value is None:
            del doc[section][key]
        elif callable(value):
            doc[section][key] = value(doc[section][key])
        else:
            doc[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["verify", str(bad)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: malformed bundle")

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_bundle_that_is_not_a_json_object_exits_3(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert cli_main(["verify", str(bad)]) == 3

    def test_scenario_that_is_not_yaml_exits_3(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("states: [unclosed\n")
        assert cli_main(["nash", str(bad)]) == 3

    def test_solver_failure_exit_code(self, tmp_path):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["agents"][0]["beliefs"] = {"log_density": "2*X"}
        doc["agents"].append({"delta": 1.0, "beliefs": {"log_density": "-X"}})
        doc["solver"] = {"tol": -1.0}
        path = write_yaml(tmp_path, doc)
        assert cli_main(["nash", str(path)]) == 4

    def test_best_response_honours_tol(self, tmp_path):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        out = tmp_path / "br.json"
        assert cli_main(["best-response", str(path), "--agent", "0", "--out", str(out)]) == 0
        args = ["best-response", str(path), "--agent", "0", "--tol", "-1", "--out", str(out)]
        assert cli_main(args) == 4

    @pytest.mark.parametrize("bins", ["-3", "0"])
    def test_bins_below_one_rejected(self, tmp_path, bins, capsys):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        out = tmp_path / "h.json"
        args = ["nash", str(path), "--hist", "X", "--bins", bins, "--out", str(out)]
        assert cli_main(args) == 3
        assert "--bins" in capsys.readouterr().err
        assert not out.exists()

    def test_best_response_command(self, tmp_path):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["agents"][1]["beliefs"] = {"log_density": "-0.5*X"}
        path = write_yaml(tmp_path, doc)
        out = tmp_path / "br.json"
        code = cli_main(
            ["best-response", str(path), "--agent", "0", "--truthful-others", "--out", str(out)]
        )
        assert code == 0
        doc_out = json.loads(out.read_text())
        assert doc_out["best_response"]["agent"] == 0
        assert doc_out["certified"] is True

    def test_limits_command(self, tmp_path):
        sc = builtin_scenario("limit-one-agent")
        doc = {
            "name": sc.name,
            "states": sc.states,
            "agents": list(sc.agents),
            "limits": sc.limits,
        }
        path = write_yaml(tmp_path, doc)
        out = tmp_path / "lim.json"
        assert cli_main(["limits", str(path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["limits"]
        assert payload["mode"] == "one-agent"
        assert len(payload["table"]) == 4
        assert cli_main(["verify", str(out)]) == 0

    # A limit bundle written before verify recomputed the limit residuals.
    LIMIT_BUNDLE = Path(__file__).parent / "data" / "limit-one-agent-0.1.0.json"

    def test_earlier_limit_bundle_verifies(self):
        assert cli_main(["verify", str(self.LIMIT_BUNDLE)]) == 0

    def test_verify_recomputes_limit_residuals(self, tmp_path):
        doc = json.loads(self.LIMIT_BUNDLE.read_text())
        lim = doc["limits"]
        lim["nash_security"] = [c + 5.0 for c in lim["nash_security"]]
        lim["z_infinity"] += 3.0
        lim["pricing"] = lim["pricing"][::-1]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert cli_main(["verify", str(tampered)]) == 2
        # Each stored gain and the competitive limit is checked on its own.
        for key, change in (("gain_agent0", lambda g: g + 7.0), ("loss_agent1", lambda _: 123.0),
                            ("ad_security", lambda _: [5.0, -9.0])):
            doc = json.loads(self.LIMIT_BUNDLE.read_text())
            doc["limits"][key] = change(doc["limits"][key])
            tampered.write_text(json.dumps(doc))
            assert cli_main(["verify", str(tampered)]) == 2, key

    def test_replicate_names_exist(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["replicate", "beta-symmetric", "--out", "b.json"]) == 0

    def test_replicate_figure_bundle(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["replicate", "example-2.7", "--quadrature-order", "8"]) == 0
        doc = json.loads((tmp_path / "example-2.7.nash.json").read_text())
        assert doc["best_response"]["agent"] == 0
        assert doc["best_response"]["others_mode"] == "truthful"
        assert set(doc["diagnostics"]) == {
            "efficiency_loss", "per_agent_delta", "alpha_weights", "entropy_terms",
            "undervaluation", "belief_distance", "marginal_prices", "residuals",
        }
        assert "E0 + CR0" in doc["histograms"]
        assert cli_main(["verify", "example-2.7.nash.json"]) == 0

    def test_replicate_figure_honours_tol(self, tmp_path):
        out = tmp_path / "f.json"
        args = ["replicate", "example-2.7", "--quadrature-order", "8", "--tol", "-1"]
        assert cli_main(args + ["--out", str(out)]) == 4

    # A figure bundle written before replicate ran through the nash command.
    FIGURE_BUNDLE = Path(__file__).parent / "data" / "example-2.7-0.1.0.json"

    def test_earlier_figure_bundle_verifies(self):
        assert cli_main(["verify", str(self.FIGURE_BUNDLE)]) == 0

    def test_histogram_masses_sum_to_one(self, tmp_path):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        out = tmp_path / "h.json"
        cli_main(["nash", str(path), "--hist", "X", "--bins", "3", "--out", str(out)])
        doc = json.loads(out.read_text())
        hist = doc["histograms"]["X"]
        for payload in hist["measures"].values():
            assert sum(payload["mass"]) == pytest.approx(1.0, abs=1e-12)

    def test_load_scenario_from_file(self, tmp_path):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        sc = load_scenario(path)
        assert sc.name == "common"
        assert len(sc.agents) == 2
