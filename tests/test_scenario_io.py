"""Scenario files, state-space construction, bundles, and the CLI."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from risksharing import Measure, endowment_to_beliefs, normalize_log_density
from risksharing import cli, nash, scenario
from risksharing.cli import main as cli_main
from risksharing.errors import ValidationError
from risksharing.scenario import (
    BUILTIN_SCENARIOS,
    QUADRATURE_ORDER_CAP,
    Scenario,
    _evaluate,
    build_market,
    build_state_space,
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

# One Gaussian variable X under the default quadrature rule, for the beliefs above.
GAUSSIAN_STATES = {"model": "gaussian", "variables": ["X"], "std": [1.0], "corr": [[1.0]]}
# Two correlated Gaussian variables on a 4 x 4 quadrature grid.
GAUSSIAN_PAIR = {"model": "gaussian", "variables": ["X", "Y"], "std": [1.0, 0.8],
                 "corr": [[1.0, 0.3], [0.3, 1.0]], "quadrature_order": 4}
# The same pair's model with no covariance data, for a test to add its own.
GAUSSIAN_COV = {"model": "gaussian", "variables": ["X", "Y"], "quadrature_order": 4}
NASH_SCENARIO = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "cli-nash.yaml"


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

    def test_cov_builds_the_market_of_its_std_corr_twin(self):
        """A ``cov:`` scenario builds, bit for bit, the market of its ``std`` + ``corr`` twin."""
        doc = yaml.safe_load(NASH_SCENARIO.read_text())
        states = doc["states"]
        twin = dict(doc, states={k: v for k, v in states.items() if k not in ("std", "corr")})
        std = np.asarray(states["std"])
        twin["states"]["cov"] = (np.asarray(states["corr"]) * np.outer(std, std)).tolist()
        markets = [build_market(Scenario.from_dict(d))[0] for d in (doc, twin)]
        assert np.array_equal(markets[0].space.baseline_weights, markets[1].space.baseline_weights)
        assert np.array_equal(markets[0].deltas, markets[1].deltas)
        assert np.array_equal(markets[0].belief_weights, markets[1].belief_weights)

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
    def test_agent_without_beliefs_takes_the_baseline(self):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        del doc["agents"][0]["beliefs"]
        market, _, _ = build_market(Scenario.from_dict(doc))
        np.testing.assert_allclose(
            market.agents[0].beliefs.weights, market.space.baseline_weights, rtol=1e-15
        )

    def test_endowment_beliefs_fold(self):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["agents"][0]["beliefs"] = {"endowment": "X"}
        market, variables, _ = build_market(Scenario.from_dict(doc))
        x = variables["X"].values
        w = np.asarray(doc["states"]["weights"]) * np.exp(-x)
        np.testing.assert_allclose(
            market.agents[0].beliefs.weights, w / w.sum(), atol=1e-14
        )

    @pytest.mark.parametrize(
        "actual", [{"weights": [0.1, 0.2, 0.3, 0.4]}, {"log_density": "0.5*X"}],
        ids=["weights", "log-density"],
    )
    def test_endowment_folds_actual_beliefs(self, actual):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["agents"][0]["beliefs"] = {"endowment": "X", "actual": actual}
        market, variables, _ = build_market(Scenario.from_dict(doc))
        space = market.space
        if "weights" in actual:
            measure = Measure(space, np.asarray(actual["weights"]))
        else:
            measure = normalize_log_density(space.baseline(), 0.5 * variables["X"].values)
        folded = endowment_to_beliefs(measure, variables["X"], 1.0)
        assert np.array_equal(market.agents[0].beliefs.weights, folded.beliefs.weights)

    def test_expression_may_select_around_non_finite_values(self):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["agents"][0]["beliefs"] = {"log_density": "where(X > 0, log(X), 0)"}
        market, variables, _ = build_market(Scenario.from_dict(doc))
        x = variables["X"].values
        tilt = np.log(np.where(x > 0, x, 1.0))
        expected = normalize_log_density(market.space.baseline(), tilt)
        assert np.array_equal(market.agents[0].beliefs.weights, expected.weights)

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

    @pytest.mark.parametrize("key", ["damping", "max_iter", "multistart", "tolerance"])
    def test_solver_unknown_key_rejected(self, key):
        """A scenario sets no solver option: ``solver`` is not one of its keys."""
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["solver"] = {key: 1}
        with pytest.raises(ValidationError, match="the scenario reads no key 'solver'"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("tol", [1e-9, 0, None])
    def test_solver_tol_refused(self, tmp_path, tol, capsys):
        """``solver: {tol: ...}`` is refused with one line whatever the value:
        the game accepts a root at the one threshold ``nash.DISTANCE_RTOL``."""
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["solver"] = {"tol": tol}
        out = tmp_path / "o.json"
        assert cli_main(["nash", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "'solver'" in err[0] and not out.exists()

    @pytest.mark.parametrize("solver", [{"tol": "1e-9"}, {"tol": True}, ["tol"], {}])
    def test_solver_malformed_rejected(self, tmp_path, solver, capsys):
        """Any other ``solver:`` section is the same one refusal line."""
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["solver"] = solver
        out = tmp_path / "o.json"
        assert cli_main(["nash", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "'solver'" in err[0] and not out.exists()


class TestCli:
    def test_importing_the_cli_leaves_the_thread_pool_out(self):
        """``concurrent.futures`` is imported when a long state axis first
        needs worker threads, not with the package: it costs a few ms after
        numpy, and every command runs in a fresh interpreter."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = "import sys, risksharing.cli; sys.exit('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

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
        out = tmp_path / "out.json"
        assert cli_main(["nash", str(NASH_SCENARIO), "--out", str(out)]) == 0
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
            ("limits", lambda d: d.update(limits={"deltas": [1e3, 1e3]})),
            ("limits", lambda d: d.update(limits={"mode": "bogus"})),
            ("limits", lambda d: d.update(limits=[])),
            ("nash", lambda d: d["states"].update(variables=[1, 2])),
            ("nash", lambda d: d["agents"][0].update(beliefs={"endowment": "0", "actual": [1, 2]})),
            ("nash", lambda d: d.update(states=GAUSSIAN_STATES | {"quadrature_order": 3.9})),
            ("nash", lambda d: d.update(states=GAUSSIAN_STATES | {"quadrature_order": True})),
            ("nash", lambda d: d.update(states=GAUSSIAN_STATES | {"samples": 10.5, "seed": 1})),
            ("nash", lambda d: d.update(states=GAUSSIAN_STATES | {"samples": 10, "seed": 1.7})),
            ("nash", lambda d: d.update(solver={"tol": float("inf")})),
            ("nash", lambda d: d.update(solver={"tol": float("nan")})),
            # Beliefs: one form, and `actual` only beside `endowment`, as weights or log density.
            ("nash", lambda d: d["agents"][0].update(
                beliefs={"endowment": "X", "actual": {"weights": [0.25] * 4, "log_density": "X"}})),
            ("nash", lambda d: d["agents"][0].update(
                beliefs={"endowment": "X", "actual": {"endowment": "X"}})),
            ("nash", lambda d: d["agents"][0].update(
                beliefs={"endowment": "X", "actual": {"log_densty": "X"}})),
            ("nash", lambda d: d["agents"][0].update(
                beliefs={"log_density": "X", "actual": {"log_density": "-X"}})),
            ("nash", lambda d: d["agents"][0].update(beliefs={"log_densty": "X"})),
            # A key that no reader reads, in each section.
            ("nash", lambda d: d["agents"][0].update(belief=d["agents"][0].pop("beliefs"))),
            ("nash", lambda d: d.update(states=GAUSSIAN_STATES | {"quadrature_ordr": 4})),
            ("nash", lambda d: d["states"].update(std=[1.0])),
            ("nash", lambda d: d.update(solvr={"tol": 1e-9})),
            ("limits", lambda d: d.update(limits={"xi0": "X", "xi1": "-X"})),
            ("limits", lambda d: d.update(limits={"mode": "both", "xi0": "X", "xi1": "-X",
                                                  "lambda": 0.5})),
            # YAML's yes, on and true: booleans, which float() would read as 1.
            ("ad", lambda d: d["agents"][0].update(delta=True)),
            ("ad", lambda d: d["agents"][0].update(beliefs={"log_density": True})),
            ("limits", lambda d: d.update(limits={"deltas": [True, 1e2, 1e3, 1e4, 1e5]})),
        ],
        ids=[
            "delta-abc", "delta-too-large", "state-weights", "belief-weights",
            "lambda0", "deltas-abc", "deltas-negative", "deltas-repeated", "mode-bogus",
            "limits-a-list",
            "explicit-variables-list", "actual-beliefs-list", "quadrature-order-float",
            "quadrature-order-bool", "samples-float", "seed-float", "tol-inf", "tol-nan",
            "actual-two-forms", "actual-endowment", "actual-misspelt", "actual-without-endowment",
            "beliefs-misspelt", "agent-belief", "gaussian-misspelt", "explicit-std",
            "top-level-misspelt", "one-agent-limits-xi", "both-limits-misspelt",
            "delta-bool", "log-density-bool", "limits-delta-bool",
        ],
    )
    def test_malformed_scenario_values_exit_3(self, tmp_path, capsys, command, change):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        change(doc)
        path = write_yaml(tmp_path, doc)
        assert cli_main([command, str(path), "--out", str(tmp_path / "o.json")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        assert not (tmp_path / "o.json").exists()

    def test_a_boolean_is_refused_by_its_key(self, tmp_path, capsys):
        """YAML reads an unquoted ``yes`` as a boolean; the refusal says where it stands."""
        path = tmp_path / "yes.yaml"
        path.write_text(yaml.safe_dump(COMMON_BELIEFS_DOC) + "limits:\n  deltas: [yes, 1e2]\n")
        assert cli_main(["limits", str(path), "--out", str(tmp_path / "o.json")]) == 3
        err = capsys.readouterr().err.strip()
        assert err == "validation error: limits.deltas.0 is a boolean, not a number or a string"

    @pytest.mark.parametrize(
        "corr", [[[1.0, 0.3], [0.3, 1.0]], [[1.0, 1.2], [1.2, 1.0]]], ids=["psd", "indefinite"]
    )
    def test_covariance_repair_is_none_or_clip(self, tmp_path, capsys, corr):
        """A misspelt repair is refused, whether or not the matrix would need it."""
        states = GAUSSIAN_PAIR | {"corr": corr, "covariance_repair": "clipp"}
        err = self._ad_refusal(tmp_path, capsys, states)
        assert "covariance_repair" in err and "'clipp'" in err

    @pytest.mark.parametrize(
        "key, value",
        [("std", [float("nan"), 1.0]), ("std", [1.0, float("inf")]),
         ("corr", [[1.0, float("nan")], [0.3, 1.0]]), ("cov", [[1.0, 0.0], [0.0, -float("inf")]])],
        ids=["std-nan", "std-inf", "corr-nan", "cov-minus-inf"],
    )
    def test_non_finite_covariance_data_is_refused(self, tmp_path, capsys, key, value):
        states = GAUSSIAN_PAIR | {key: value}
        if key == "cov":
            del states["std"], states["corr"]
        err = self._ad_refusal(tmp_path, capsys, states)
        assert err == f"validation error: gaussian {key!r} must be finite numbers"

    @pytest.mark.parametrize(
        "states, message",
        [
            (GAUSSIAN_COV | {"cov": [["a", "b"], ["c", "d"]]},
             "gaussian 'cov' must be finite numbers"),
            (COMMON_BELIEFS_DOC["states"] | {"variables": {"X": [1.0, 2.0]}},
             "literal list has 2 values, need 4"),
            (GAUSSIAN_PAIR | {"std": [0, 0]}, "covariance has no positive direction"),
            (GAUSSIAN_PAIR | {"corr": [[1.0, 1.2], [1.2, 1.0]], "covariance_repair": "clip"},
             "covariance repair refuses a relative eigenvalue deficit of 8.72e-02"),
            (GAUSSIAN_PAIR | {"quadrature_order": 0}, "quadrature order must be >= 1"),
            (GAUSSIAN_COV | {"cov": [[1.0]]},
             "gaussian 'cov' must have shape (2, 2) for 2 variables, got (1, 1)"),
            (GAUSSIAN_PAIR | {"mean": [0.0]},
             "gaussian 'mean' must have shape (2,) for 2 variables, got (1,)"),
            # numpy would broadcast a one-entry key over both variables.
            (GAUSSIAN_PAIR | {"std": [1.0]},
             "gaussian 'std' must have shape (2,) for 2 variables, got (1,)"),
            (GAUSSIAN_PAIR | {"corr": [[1.0]]},
             "gaussian 'corr' must have shape (2, 2) for 2 variables, got (1, 1)"),
            (GAUSSIAN_STATES | {"mean": [float("inf")]}, "gaussian 'mean' must be finite numbers"),
            (GAUSSIAN_STATES | {"samples": 10, "seed": -1}, "'seed' must be at least 0, got -1"),
            (GAUSSIAN_STATES | {"samples": 0, "seed": 1},
             "'samples' must lie in [1, 1000000], got 0"),
        ],
        ids=["cov-not-numbers", "explicit-variable-length", "std-zero", "clip-beyond-limit",
             "quadrature-order-zero", "cov-not-d-by-d", "mean-length", "std-one-entry",
             "corr-one-by-one", "mean-inf", "seed-negative", "samples-zero"],
    )
    def test_state_model_data_is_refused(self, tmp_path, capsys, states, message):
        assert self._ad_refusal(tmp_path, capsys, states) == f"validation error: {message}"

    @pytest.mark.parametrize(
        "change, message",
        [(lambda d: d["agents"][1].update(beliefs={"weights": [0.7, 0.4, 0.0, 0.0]}),
          "agents.1.beliefs: Measure: all weights must be >= 1e-300 (strict equivalence)"),
         (lambda d: d.update(states={"model": "explicit", "weights": [0.5, 0.5]}, agents=[
             {"delta": 1.0}, {"delta": 1.0, "beliefs": {"weights": [0.7, 0.4]}}]),
          "agents.1.beliefs: Measure: weights sum to 1.1, not 1"),
         (lambda d: d["agents"][0].update(beliefs={"endowment": "X", "actual": {
             "weights": [0.7, 0.4, 0.0, -0.1]}}),
          "agents.0.beliefs.actual: Measure: all weights must be >= 1e-300 (strict equivalence)"),
         (lambda d: d["agents"][1].update(delta=1e13),
          "agent 1 delta must lie in [1e-09, 1000000000000.0], got 10000000000000.0")],
        ids=["weights-zero", "weights-sum", "actual-weights", "delta-too-large"],
    )
    def test_an_agent_refusal_names_the_agent(self, tmp_path, capsys, change, message):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        change(doc)
        out = tmp_path / "o.json"
        assert cli_main(["nash", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [f"validation error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("order", [350, 360])
    def test_a_tilt_into_the_quadrature_tails_is_a_valid_measure(self, tmp_path, capsys, order):
        """Weights are floored after normalising, so a tilt that underflows a
        tail state's weight leaves it at the floor and the game still solves."""
        doc = {"states": GAUSSIAN_STATES | {"quadrature_order": order}, "agents": [
            {"delta": 1.0, "beliefs": {"log_density": "X"}},
            {"delta": 1.0, "beliefs": {"log_density": "-X"}}]}
        out = tmp_path / "o.json"
        assert cli_main(["nash", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["certified"] is True
        assert cli_main(["verify", str(out)]) == 0
        capsys.readouterr()

    def test_quadrature_order_is_bounded_before_the_rule_is_built(self, tmp_path, capsys):
        """From order 361 up no Gauss-Hermite rule makes a state space, so the
        order is refused before numpy solves its eigenproblem, with no warning;
        order 360 still builds."""
        states = GAUSSIAN_STATES | {"quadrature_order": QUADRATURE_ORDER_CAP + 1}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self._ad_refusal(tmp_path, capsys, states)
        assert err == "validation error: quadrature_order 361 exceeds the cap 360" and not caught
        agents = [{"delta": 1.0}, {"delta": 2.0}]
        doc = {"states": GAUSSIAN_STATES | {"quadrature_order": 360}, "agents": agents}
        out = tmp_path / "o.json"
        assert cli_main(["ad", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["n_states"] == 360

    def test_scenario_that_is_not_a_mapping_exits_3(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- name: a\n- name: b\n")
        assert cli_main(["nash", str(path)]) == 3
        err = capsys.readouterr().err.strip()
        assert err == f"validation error: scenario file {path} does not contain a mapping"

    def test_an_alias_is_refused_while_parsing(self, tmp_path, capsys):
        """A YAML alias would be walked once per reference, so each level of
        nested 10-wide lists would multiply validation time by 10; the first
        alias ends the parse.  An anchor without an alias still loads."""
        text = yaml.safe_dump(COMMON_BELIEFS_DOC)
        anchored = tmp_path / "anchored.yaml"
        anchored.write_text(text.replace("states:", "states: &states", 1))
        assert load_scenario(anchored) == load_scenario(write_yaml(tmp_path, COMMON_BELIEFS_DOC))
        levels = ["a0: &a0 [" + ", ".join(["1.0"] * 10) + "]"]
        levels += [f"a{k}: &a{k} [" + ", ".join([f"*a{k - 1}"] * 10) + "]" for k in (1, 2)]
        path = tmp_path / "aliases.yaml"
        path.write_text(text + "limits:\n" + "".join(f"  {level}\n" for level in levels))
        assert cli_main(["nash", str(path)]) == 3
        line = len(text.splitlines()) + 3
        assert capsys.readouterr().err.splitlines() == [
            f"validation error: scenario file {path} uses the alias *a0 at line {line}; "
            "aliases are refused"
        ]

    @staticmethod
    def _ad_refusal(tmp_path, capsys, states) -> str:
        """The one line that ``ad`` prints, exiting 3 without a bundle, on ``states``."""
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC)) | {"states": states}
        out = tmp_path / "o.json"
        assert cli_main(["ad", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        assert not out.exists()
        return err[0]

    @pytest.mark.parametrize(
        "hist", ["log(X0)", "C0 + Q", "CR0"], ids=["not-finite", "unknown-name", "unsolved-payoff"]
    )
    def test_hist_is_checked_before_the_solve(self, tmp_path, capsys, monkeypatch, hist):
        """A ``--hist`` expression reading a name the command never computes, or
        reading only state variables and not finite, is refused before the game
        is solved."""
        calls = []
        monkeypatch.setattr(cli, "solve_nash", lambda *a, **k: calls.append(a))
        out = tmp_path / "o.json"
        assert cli_main(["nash", str(NASH_SCENARIO), "--hist", hist, "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        assert not calls and not out.exists()

    @pytest.mark.parametrize(
        "name", ["sub/x", "{tmp}/sub/x", "sub\\x", ["a", "b"], "..", ""],
        ids=["relative-path", "absolute-path", "backslash", "list", "dot-dot", "empty"],
    )
    def test_scenario_name_must_be_a_plain_file_name(self, tmp_path, monkeypatch, capsys, name):
        """The name is the default bundle path's stem: no bundle is written for a bad one."""
        (tmp_path / "run" / "sub").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "run")
        if isinstance(name, str):
            name = name.format(tmp=tmp_path / "run")
        path = write_yaml(tmp_path, json.loads(json.dumps(COMMON_BELIEFS_DOC)) | {"name": name})
        assert cli_main(["ad", str(path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["run", "scenario.yaml", "sub"]

    @pytest.mark.parametrize(
        "command, change, flags",
        [("nash", lambda d: d["agents"][0].update(beliefs={"log_density": "log(X)"}), []),
         ("limits", lambda d: d.update(limits={"mode": "both", "xi0": "log(X)", "xi1": "-X"}), []),
         ("nash", lambda d: None, ["--hist", "log(X)"])],
        ids=["log-density", "limits-xi0", "hist"],
    )
    def test_non_finite_expression_exits_3(self, tmp_path, capsys, command, change, flags):
        """An expression that is not finite on every state is refused with one
        line, and no warning, however the process treats warnings."""
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        change(doc)
        out = tmp_path / "o.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main([command, str(write_yaml(tmp_path, doc)), *flags, "--out", str(out)])
        assert code == 3 and not caught and not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        assert "not finite" in err[0]

    @pytest.mark.parametrize(
        "args, message",
        [(["nash"], None), (["nash", "{path}", "--tol", "abc"], None),
         (["nash", "{path}", "--tol", "nan"], None),
         (["limits", "{path}", "--deltas", "abc"], None),
         (["limits", "{path}", "--deltas=-10,100"], None),
         (["nash", "{path}", "--no-such-flag"], None),
         (["replicate", "beta-symmetric", "--deltas", "1,2"], None),
         (["replicate", "nope"], None),
         # Flags that the command, or the command on this input, never reads.
         (["ad", "{path}", "--tol", "-1"], None), (["limits", "{path}", "--tol", "-1"], None),
         (["limits", "{path}", "--hist", "X"], None),
         (["best-response", "{path}", "--agent", "0", "--truthful-others", "--tol", "-1"], None),
         (["replicate", "limit-one-agent", "--tol", "-1"], None),
         (["replicate", "limit-one-agent", "--hist", "X", "--bins", "3"], None),
         (["replicate", "limit-both", "--hist", "XI0"], None),
         (["replicate", "limit-one-agent", "--quadrature-order", "8"], None),
         (["replicate", "limit-both", "--samples", "10"], None),
         (["replicate", "example-2.7", "--seed", "3"], None),
         (["replicate", "example-2.7", "--quadrature-order", "8", "--samples", "10", "--seed", "1"],
          None),
         # Flags that need another flag; the message names it.
         (["replicate", "example-2.7", "--samples", "10"],
          "'samples' and 'seed' come together: give both, or --samples and --seed"),
         # A limit grid increases strictly: its last row is at its largest delta.
         (["replicate", "limit-one-agent", "--deltas", "1e5,1e4,1e3,1e2"],
          "limits deltas must increase strictly, got [100000.0, 10000.0, 1000.0, 100.0]"),
         (["replicate", "limit-both", "--deltas", "1e4,10,1e3"],
          "limits deltas must increase strictly, got [10000.0, 10.0, 1000.0]"),
         (["nash", "{path}", "--bins", "3"], "--bins is not read without --hist"),
         (["replicate", "beta-symmetric", "--bins", "3"], "--bins is not read without --hist")],
        ids=["no-scenario", "tol-abc", "tol-nan", "deltas-abc", "deltas-negative", "unknown-flag",
             "deltas-without-limits", "unknown-builtin", "ad-tol", "limits-tol", "limits-hist",
             "truthful-others-tol", "limit-tol", "limit-hist-bins", "limit-both-hist",
             "explicit-quadrature-order", "explicit-samples", "quadrature-seed",
             "quadrature-order-and-samples", "samples-without-seed", "deltas-descending",
             "both-deltas-unordered", "bins-without-hist",
             "replicate-bins-without-hist"],
    )
    def test_argument_errors_exit_3(self, tmp_path, capsys, args, message):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        argv = [a.format(path=path) for a in args] + ["--out", str(tmp_path / "o.json")]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        if message is not None:
            assert err[0] == f"validation error: {message}"

    # Each case is a state model and the keys added to it: once in the file,
    # once as the flags that write them.
    @pytest.mark.parametrize(
        "states, keys",
        [(COMMON_BELIEFS_DOC["states"], {"quadrature_order": 7}),
         (COMMON_BELIEFS_DOC["states"], {"samples": 10, "seed": 3}),
         (GAUSSIAN_STATES, {"quadrature_order": 7, "samples": 10, "seed": 3}),
         (GAUSSIAN_STATES, {"seed": 3}),
         (GAUSSIAN_STATES, {"samples": 10})],
        ids=["explicit-quadrature-order", "explicit-samples-seed", "quadrature-order-and-samples",
             "seed-without-samples", "samples-without-seed"],
    )
    def test_file_key_and_flag_follow_one_rule(self, tmp_path, capsys, states, keys):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC)) | {"states": states}
        flags = [arg for key, value in keys.items()
                 for arg in (f"--{key.replace('_', '-')}", str(value))]
        file_side = ["nash", str(write_yaml(tmp_path, doc | {"states": states | keys}, "f.yaml"))]
        flag_side = ["nash", str(write_yaml(tmp_path, doc, "g.yaml")), *flags]
        errors = []
        for argv in (file_side, flag_side):
            assert cli_main(argv + ["--out", str(tmp_path / "o.json")]) == 3
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("validation error: ")
            errors.append(err[0])
        assert errors[0] == errors[1]

    # Each case is a file that the flags mend, the flags and the section they
    # write as the bundle echoes it: the file alone is never validated.
    @pytest.mark.parametrize(
        "command, doc, flags, echo",
        [("ad", {"states": GAUSSIAN_STATES | {"samples": 100}}, ["--seed", "3"],
          {"states": GAUSSIAN_STATES | {"samples": 100, "seed": 3}}),
         ("ad", {"states": GAUSSIAN_STATES | {"samples": 100}},
          ["--samples", "100", "--seed", "3"],
          {"states": GAUSSIAN_STATES | {"samples": 100, "seed": 3}}),
         ("ad", {"states": GAUSSIAN_STATES | {"quadrature_order": 500}},
          ["--quadrature-order", "20"], {"states": GAUSSIAN_STATES | {"quadrature_order": 20}}),
         ("ad", {"states": GAUSSIAN_STATES | {"quadrature_order": 16, "samples": 50}},
          ["--quadrature-order", "16"], {"states": GAUSSIAN_STATES | {"quadrature_order": 16}}),
         ("limits", {"limits": {"deltas": [1e5, 1e2]}, "agents": [
             {"delta": 1.0, "beliefs": {"log_density": "X"}},
             {"delta": 1.0, "beliefs": {"log_density": "-X"}}]}, ["--deltas", "1e2,1e3,1e4,1e5"],
          {"limits": {"mode": "one-agent", "deltas": [1e2, 1e3, 1e4, 1e5]}})],
        ids=["seed-mends-samples", "samples-and-seed", "order-over-the-cap",
             "order-and-samples", "deltas-descending"],
    )
    def test_flags_mend_the_file_before_the_one_validation(self, tmp_path, command, doc, flags,
                                                           echo):
        path = write_yaml(tmp_path, json.loads(json.dumps(COMMON_BELIEFS_DOC)) | doc)
        out = tmp_path / "o.json"
        assert cli_main([command, str(path), *flags, "--out", str(out)]) == 0
        solved = json.loads(out.read_text())["scenario"]
        assert {key: solved[key] for key in echo} == echo

    @pytest.mark.parametrize(
        "argv", [["nash", str(NASH_SCENARIO), "--seed", "3"],
                 ["replicate", "example-2.7", "--quadrature-order", "8"]],
        ids=["nash-file", "replicate-builtin"],
    )
    def test_a_command_validates_its_scenario_once(self, tmp_path, monkeypatch, argv):
        calls = []
        validate = scenario._validate
        monkeypatch.setattr(scenario, "_validate", lambda doc: calls.append(doc) or validate(doc))
        assert cli_main(argv + ["--out", str(tmp_path / "o.json")]) == 0
        assert len(calls) == 1

    def test_echo_is_the_document_solved(self, tmp_path):
        """The bundle's scenario echo holds what the flags wrote and the defaults filled in."""
        out = tmp_path / "o.json"

        def echo(argv):
            assert cli_main(argv + ["--out", str(out)]) in (0, 2)
            return json.loads(out.read_text())["scenario"]

        limits = echo(["replicate", "limit-one-agent", "--deltas", "10,100"])["limits"]
        assert limits["deltas"] == [10.0, 100.0]
        states = echo(["nash", str(NASH_SCENARIO), "--quadrature-order", "6"])["states"]
        assert states["quadrature_order"] == 6 and "seed" not in states and "samples" not in states
        limits = echo(["limits", str(write_yaml(tmp_path, COMMON_BELIEFS_DOC))])["limits"]
        assert limits == {"mode": "one-agent", "deltas": [100.0, 1000.0, 10000.0, 100000.0]}
        # YAML 1.1 reads 1e2, without a dot, as a string.
        path = tmp_path / "dotless.yaml"
        path.write_text(yaml.safe_dump(COMMON_BELIEFS_DOC) + "limits:\n  deltas: [1e2]\n")
        limits = echo(["limits", str(path)])["limits"]
        assert limits["deltas"] == [100.0] and isinstance(limits["deltas"][0], float)

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
         ("best_response", "agent", 1.9),
         ("best_response", "agent", "1"),
         ("best_response", "agent", True),
         ("limits", "pricing", [1.0]),
         ("limits", "table", lambda rows: [rows[0], rows[1][:2]] + rows[2:]),
         ("limits", None, lambda lim: list(lim.values())),
         ("limits", "z_infinity", "abc"),
         ("limits", "mode", "both"),
         ("limits", "gain_agent0", None),
         # Python's max drops a NaN that is not its first argument, so a NaN
         # gain would leave limit_accounting finite and certified.
         ("limits", "z_infinity", float("nan")),
         ("limits", "gain_agent0", float("nan")),
         ("limits", "loss_agent1", float("nan")),
         ("nash", "log_ratios", lambda u: [[float("nan")] * len(u[0])] + u[1:]),
         ("market limits", None, lambda m: m | {"deltas": m["deltas"] + [1.0],
                                               "belief_weights": m["belief_weights"]
                                               + m["belief_weights"][:1]})],
        ids=["baseline-weights", "no-log-ratio", "securities-not-a-list", "z-too-short",
             "securities-cut", "agent-out-of-range", "agent-float", "agent-string", "agent-bool",
             "limit-pricing-short", "limit-table-ragged",
             "limits-a-list", "limit-z-not-a-number", "limit-mode-both", "no-limit-gain",
             "limit-z-nan", "limit-gain-nan", "limit-loss-nan",
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

    def test_scenario_that_is_not_yaml_exits_3(self, tmp_path, capsys):
        """PyYAML's problem and its line, on the one line every refusal gets."""
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: a\nstates: [unclosed\n")
        assert cli_main(["nash", str(bad)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        assert "but got '<stream end>' at line 3" in err[0]

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch):
        doc = json.loads(json.dumps(COMMON_BELIEFS_DOC))
        doc["agents"][0]["beliefs"] = {"log_density": "2*X"}
        doc["agents"].append({"delta": 1.0, "beliefs": {"log_density": "-X"}})
        path = write_yaml(tmp_path, doc)
        monkeypatch.setattr(nash, "DISTANCE_RTOL", -1.0)
        assert cli_main(["nash", str(path), "--out", str(tmp_path / "o.json")]) == 4

    def test_best_response_honours_tol(self, tmp_path, monkeypatch, capsys):
        """``nash`` and game-revealed ``best-response`` read the one threshold."""
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        out = tmp_path / "br.json"
        assert cli_main(["best-response", str(path), "--agent", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(nash, "DISTANCE_RTOL", -1.0)
        for args in (["nash", str(path)], ["best-response", str(path), "--agent", "0"]):
            assert cli_main(args + ["--out", str(out)]) == 4
            err = capsys.readouterr().err.strip().splitlines()
            assert err[0] == "solver failure: no equilibrium reached the distance tolerance"
            assert len(err) == 2 and err[1].startswith("diagnostics: {'best_z'")

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
        sc = Scenario.from_dict(BUILTIN_SCENARIOS["limit-one-agent"])
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

    def test_ad_bundle_verifies_and_a_tampered_security_fails(self, tmp_path):
        out = tmp_path / "ad.json"
        assert cli_main(["ad", str(NASH_SCENARIO), "--out", str(out)]) == 0
        assert cli_main(["verify", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "nash" not in doc
        doc["ad"]["securities"][0] = [v + 1e-3 for v in doc["ad"]["securities"][0]]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert cli_main(["verify", str(tampered)]) == 2

    def test_limit_both_bundle_verifies_and_a_tampered_row_fails(self, tmp_path):
        out = tmp_path / "lb.json"
        assert cli_main(["replicate", "limit-both", "--out", str(out)]) == 0
        assert cli_main(["verify", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["limits"]["mode"] == "both"
        doc["limits"]["table"][-1][2] = 0.01
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert cli_main(["verify", str(tampered)]) == 2

    @pytest.mark.parametrize(
        "args", [["limits", "{path}"], ["best-response", "{path}", "--agent", "5"]],
        ids=["limits-three-agents", "agent-out-of-range"],
    )
    def test_command_outside_the_market_exits_3(self, tmp_path, capsys, args):
        out = tmp_path / "o.json"
        argv = [a.format(path=NASH_SCENARIO) for a in args] + ["--out", str(out)]
        assert cli_main(argv) == 3 and not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")

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

    def test_replicate_figure_reads_bins(self, tmp_path, monkeypatch):
        """The figure's default --hist expressions read --bins."""
        monkeypatch.chdir(tmp_path)
        assert cli_main(["replicate", "example-2.7", "--quadrature-order", "8", "--bins", "3"]) == 0
        doc = json.loads((tmp_path / "example-2.7.nash.json").read_text())
        assert len(doc["histograms"]["E0"]["edges"]) == 4

    def test_replicate_figure_honours_tol(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "f.json"
        monkeypatch.setattr(nash, "DISTANCE_RTOL", -1.0)
        args = ["replicate", "example-2.7", "--quadrature-order", "8"]
        assert cli_main(args + ["--out", str(out)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert err[0] == "solver failure: no equilibrium reached the distance tolerance"
        assert len(err) == 2 and err[1].startswith("diagnostics: {'best_z'")

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

    def test_constant_histogram_spans_one_unit(self, tmp_path):
        """A constant expression has no range of its own: its bins span
        ``[c, c + 1]`` and every measure puts its whole mass in the first."""
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        out = tmp_path / "h.json"
        assert cli_main(["ad", str(path), "--hist", "2", "--bins", "4", "--out", str(out)]) == 0
        hist = json.loads(out.read_text())["histograms"]["2"]
        assert hist["edges"] == [2.0, 2.25, 2.5, 2.75, 3.0]
        for payload in hist["measures"].values():
            assert payload["mass"] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize(
        "expr",
        [
            "1e17 + 0*X",
            "1e17 + 16*(X > 0)",
            "maximum(minimum(1e308*X, 1.7e308), -1.7e308)",
            "1.7976931348623157e308 + 0*X",
            "-1.7976931348623157e308 + 0*X",
        ],
        ids=[
            "constant-beyond-2-53",
            "range-of-one-spacing",
            "range-beyond-the-largest-float",
            "constant-at-the-largest-float",
            "constant-at-the-lowest-float",
        ],
    )
    def test_histogram_bins_have_width_at_any_magnitude(self, tmp_path, capsys, expr):
        """Past 2**53, ``c + 1`` rounds back to ``c``, and a range one float
        spacing wide cannot hold 50 bins: the range is widened until the edges
        increase, down from the top where widening up would pass the largest
        float.  A range wider than the largest float is split into bins
        without forming its width.  Either way the bundle holds finite masses
        and densities and is valid JSON, without NaN or Infinity."""
        out = tmp_path / "h.json"
        assert cli_main(["replicate", "beta-symmetric", "--hist", expr, "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"{token} in the bundle")

        hist = json.loads(out.read_text(), parse_constant=refuse)["histograms"][expr]
        assert np.all(np.diff(hist["edges"]) > 0)
        for payload in hist["measures"].values():
            assert np.all(np.isfinite(payload["mass"])) and np.all(np.isfinite(payload["density"]))
        assert cli_main(["verify", str(out)]) == 0
        capsys.readouterr()

    def test_bundle_without_a_market_exits_3(self, tmp_path, capsys):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        out = tmp_path / "ad.json"
        assert cli_main(["ad", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        del doc["market"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["verify", str(out)]) == 3
        err = capsys.readouterr().err.strip()
        assert err == "validation error: bundle has no market section to verify against"

    def test_load_scenario_from_file(self, tmp_path):
        path = write_yaml(tmp_path, COMMON_BELIEFS_DOC)
        sc = load_scenario(path)
        assert sc.name == "common"
        assert len(sc.agents) == 2
