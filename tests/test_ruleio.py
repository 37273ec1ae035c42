"""Rule serialization round trips."""

import json

import numpy as np
import pytest

from symcub import MassSplit, build_rule, cube_spec, default_split, sector_spec, simplex_spec
from symcub.errors import CubatureError
from symcub.ruleio import (
    dumps,
    dumps_csv,
    dumps_json,
    loads_csv,
    loads_json,
    read_rule,
    render_text,
    write_rule,
)


def test_json_roundtrip_bit_identical():
    rule = build_rule(sector_spec(3), region_label="ball-sector")
    parsed = loads_json(dumps_json(rule))
    assert np.array_equal(parsed.nodes, rule.nodes)
    assert np.array_equal(parsed.weights, rule.weights)
    assert parsed.dim == rule.dim
    assert parsed.metadata["region"] == "ball-sector"


def test_csv_roundtrip_bit_identical():
    rule = build_rule(simplex_spec(4))
    parsed = loads_csv(dumps_csv(rule))
    assert np.array_equal(parsed.nodes, rule.nodes)
    assert np.array_equal(parsed.weights, rule.weights)


def test_csv_and_json_agree():
    rule = build_rule(simplex_spec(3))
    from_json = loads_json(dumps_json(rule))
    from_csv = loads_csv(dumps_csv(rule))
    assert np.array_equal(from_json.nodes, from_csv.nodes)
    assert np.array_equal(from_json.weights, from_csv.weights)


def test_file_roundtrip_with_suffix_sniffing(tmp_path):
    rule = build_rule(simplex_spec(3))
    for name, fmt in [("rule.json", None), ("rule.csv", None), ("rule.dat", "json")]:
        path = tmp_path / name
        write_rule(rule, path, fmt)
        parsed = read_rule(path)
        assert np.array_equal(parsed.nodes, rule.nodes)
        assert np.array_equal(parsed.weights, rule.weights)


def test_render_text_mentions_values():
    rule = build_rule(simplex_spec(3), region_label="simplex")
    text = render_text(rule)
    assert "0.34240723692377" in text
    assert "region=simplex" in text
    assert "sum of weights" in text


def test_malformed_inputs_raise():
    with pytest.raises(CubatureError):
        loads_json("{not json")
    with pytest.raises(CubatureError):
        loads_json('{"dim": 3}')
    with pytest.raises(CubatureError):
        loads_csv("x1,weight\n")
    with pytest.raises(CubatureError):
        loads_csv("x1,x2,weight\n0.5,0.5,1.0\n0.5,1.0\n")


def test_csv_cells_parse_with_float_rules():
    text = "# comment\n x1 , x2 ,weight\n 0.5 ,\t0.25,1e-3 , note, 7\n0.125,0.0,2,\n"
    rule = loads_csv(text)
    assert rule.nodes.tolist() == [[0.5, 0.25], [0.125, 0.0]]
    assert rule.weights.tolist() == [1e-3, 2.0]
    # an empty cell ends the numeric prefix like any other non-number
    with pytest.raises(CubatureError, match="line 2: need coordinates plus weight"):
        loads_csv("x1,x2,weight\n0.5,,1.0\n")
    with pytest.raises(CubatureError, match="line 5: non-numeric rule row"):
        loads_csv(text + " x,0.5,1.0\n")


def test_unknown_format_rejected(tmp_path):
    rule = build_rule(simplex_spec(3))
    with pytest.raises(ValueError, match="unknown rule format 'yaml'"):
        write_rule(rule, tmp_path / "rule.xyz", "yaml")
    with pytest.raises(ValueError, match="unknown rule format 'yaml'"):
        dumps(rule, "yaml")
    assert not (tmp_path / "rule.xyz").exists()


def test_dumps_and_write_rule_give_the_serializers_text(tmp_path):
    rule = build_rule(sector_spec(4), MassSplit(default_split(sector_spec(4)).masses, True))
    for fmt, serialize in (("json", dumps_json), ("csv", dumps_csv), ("text", render_text)):
        assert dumps(rule, fmt) == serialize(rule)
        write_rule(rule, tmp_path / "rule.out", fmt)
        assert (tmp_path / "rule.out").read_text(encoding="utf-8") == serialize(rule)


@pytest.mark.parametrize(
    "spec, compensation",
    [(simplex_spec(3), False), (sector_spec(4), True), (cube_spec(8), False)],
)
def test_serializers_write_plain_float_reprs(spec, compensation):
    rule = build_rule(spec, MassSplit(default_split(spec).masses, compensation))
    nodes, weights = rule.nodes.tolist(), rule.weights.tolist()
    as_json, as_csv, as_text = dumps_json(rule), dumps_csv(rule), render_text(rule)
    for text in (as_json, as_csv, as_text):
        assert "np." not in text and "float64" not in text
    data = json.loads(as_json)
    assert data["nodes"] == nodes and data["weights"] == weights
    rows = as_csv.splitlines()[1:]
    assert rows == [
        ",".join(repr(x) for x in node) + f",{w!r}" for node, w in zip(nodes, weights)
    ]
    assert as_text.splitlines()[-1] == f"sum of weights = {rule.total_weight()!r}"
    for parsed in (loads_json(as_json), loads_csv(as_csv)):
        assert np.array_equal(parsed.nodes, rule.nodes)
        assert np.array_equal(parsed.weights, rule.weights)
        assert parsed.nodes.tobytes() == rule.nodes.tobytes()
        assert parsed.weights.tobytes() == rule.weights.tobytes()


def test_json_reader_parses_strings_and_rejects_nulls():
    rule = loads_json('{"dim": 2, "nodes": [["0.5", 1]], "weights": ["0.25"]}')
    assert rule.nodes.tolist() == [[0.5, 1.0]] and rule.weights.tolist() == [0.25]
    with pytest.raises(CubatureError):
        loads_json('{"dim": 2, "nodes": [[0.5, null]], "weights": [1.0]}')
    with pytest.raises(CubatureError):
        loads_json('{"dim": 2, "nodes": [[0.5], [0.5, 1.0]], "weights": [1.0, 1.0]}')
