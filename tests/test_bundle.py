"""Bundle sections written from, and read back into, the solved records."""

import dataclasses
import json
import typing
from pathlib import Path

import numpy as np
import pytest

from helpers import random_market
from risksharing.arrow_debreu import ArrowDebreuEquilibrium, solve_arrow_debreu
from risksharing.best_response import BestResponse, solve_best_response
from risksharing.bundle import (
    LEDGER_TOLERANCES,
    _decoder,
    br_ledger,
    market_from_dict,
    market_to_dict,
    record_from_dict,
    record_to_dict,
    write_bundle,
)
from risksharing.cli import main as cli_main
from risksharing.limits import LimitReport, one_agent_limit_report
from risksharing.measures import Measure, RandomVariable
from risksharing.nash import NashEquilibrium, solve_nash

RECORDS = (ArrowDebreuEquilibrium, NashEquilibrium, BestResponse, LimitReport)
BUNDLE_FORMAT = Path(__file__).resolve().parents[1] / "docs" / "bundle-format.md"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_every_field_annotation_decodes(cls):
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        assert callable(_decoder(hints[f.name])), f.name


def test_unknown_annotation_is_a_type_error():
    @dataclasses.dataclass(frozen=True)
    class Loose:
        values: tuple

    with pytest.raises(TypeError, match="cannot decode"):
        record_from_dict(Loose, {"values": [1.0]}, None)


def _bits(value):
    """A field value as nested tuples of exact bytes, for bitwise comparison."""
    if isinstance(value, Measure):
        return ("Measure", _bits(value.weights))
    if isinstance(value, RandomVariable):
        return ("RandomVariable", _bits(value.values))
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return ("float", float(value).hex())


@pytest.fixture(scope="module")
def records():
    market = random_market(np.random.default_rng(9), n_agents=3, n_states=40)
    ad = solve_arrow_debreu(market)
    eq = solve_nash(market, ad=ad)
    br = solve_best_response(market, 1, [eq.revealed[0], eq.revealed[2]])
    limit = one_agent_limit_report(market.agents[0].beliefs, market.agents[1], [1e2, 1e3])
    return market, (ad, eq, br, limit)


def test_round_trip_is_bit_exact(records):
    market, solved = records
    for record in solved:
        doc = json.loads(json.dumps(record_to_dict(record)))
        again = record_from_dict(type(record), doc, market.space)
        for f in dataclasses.fields(record):
            assert _bits(getattr(again, f.name)) == _bits(getattr(record, f.name)), f.name
            if isinstance(getattr(again, f.name), (Measure, RandomVariable)):
                assert getattr(again, f.name).space is market.space


def test_market_section_lists_the_default_labels(tmp_path):
    """A space built without labels stores none, yet the ``market`` section of
    its bundle lists ``s0, s1, ...`` as ever, and reads back to an equal space."""
    market = random_market(np.random.default_rng(4), n_agents=3, n_states=40)
    write_bundle({"market": market_to_dict(market)}, tmp_path / "b.json")
    section = json.loads((tmp_path / "b.json").read_text())["market"]
    assert section == {
        "deltas": market.deltas.tolist(),
        "baseline_weights": market.space.baseline_weights.tolist(),
        "labels": [f"s{k}" for k in range(40)],
        "belief_weights": [a.beliefs.weights.tolist() for a in market.agents],
    }
    space = market_from_dict(section).space
    assert space == market.space and hash(space) == hash(market.space)


@pytest.mark.parametrize("agent", [1.9, "1", True], ids=["float", "string", "bool"])
def test_agent_that_is_not_an_integer_does_not_decode(records, agent):
    market, (_, _, br, _) = records
    doc = json.loads(json.dumps(record_to_dict(br))) | {"agent": agent}
    with pytest.raises(TypeError, match="is not an integer"):
        record_from_dict(BestResponse, doc, market.space)


def test_br_ledger_checks_the_reports_the_response_carries(records):
    market, (_, eq, br, _) = records
    assert br.agent == 1 and br.others_reports == (eq.revealed[0], eq.revealed[2])
    assert all(e["pass"] for e in br_ledger(market, br))
    truthful = dataclasses.replace(br, others_reports=(market.agents[0].beliefs,
                                                       market.agents[2].beliefs))
    passed = {e["name"]: e["pass"] for e in br_ledger(market, truthful)}
    assert passed == {"br_zero_price": True, "br_first_order": False, "br_lower_bound": True}


def _documented_layout() -> dict:
    """Section name -> documented keys, from the layout block of the format doc."""
    block = BUNDLE_FORMAT.read_text().split("```")[1]
    sections, name = {}, None
    for line in block.strip().splitlines():
        if not line.startswith(" "):
            name, line = line.split(None, 1)
            sections[name] = ""
        sections[name] += " " + line.strip()
    return {k: {key.strip() for key in v.split(",")} for k, v in sections.items()}


def test_ledger_table_matches_the_tolerances():
    """The format doc's ledger table lists exactly the ledger's entries, each
    with its tolerance and kind; a slack entry says ``(slack)`` and ``>=``."""
    text = BUNDLE_FORMAT.read_text().split("## Residual ledger")[1].split("\n## ")[0]
    documented = {}
    for line in text.splitlines():
        if line.startswith("| `"):
            name, meaning, tolerance = (cell.strip() for cell in line.strip("|").split("|"))
            slack = tolerance.startswith(">=")
            assert slack == ("(slack)" in meaning), name
            kind = "slack" if slack else "max"
            documented[name.strip("`")] = (kind, float(tolerance.removeprefix(">=")))
    assert documented == LEDGER_TOLERANCES


def test_section_keys_match_the_documented_layout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["replicate", "example-2.7", "--quadrature-order", "4"]) == 0
    doc = json.loads((tmp_path / "example-2.7.nash.json").read_text())
    layout = _documented_layout()
    for section in ("market", "ad", "nash", "diagnostics", "best_response"):
        assert set(doc[section]) == layout[section], section
    assert set(doc["ad"]) == {f.name for f in dataclasses.fields(ArrowDebreuEquilibrium)}
    assert set(doc["nash"]) == {f.name for f in dataclasses.fields(NashEquilibrium)}
    extra = {"others_mode"}
    assert set(doc["best_response"]) == {f.name for f in dataclasses.fields(BestResponse)} | extra
    # The limit scenarios: mode one-agent writes every documented key, which
    # are the report's fields and its mode, and mode both only its mode and table.
    one_agent = {f.name for f in dataclasses.fields(LimitReport)} | {"mode"}
    assert layout["limits"] == one_agent
    for name, keys in (("limit-one-agent", one_agent), ("limit-both", {"mode", "table"})):
        assert cli_main(["replicate", name]) == 0
        limits = json.loads((tmp_path / f"{name}.limits.json").read_text())["limits"]
        assert set(limits) == keys, name
