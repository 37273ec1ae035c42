"""Rule serialization round trips."""

import dataclasses
import json

import numpy as np
import pytest

from symcub import (
    MassSplit,
    Region,
    RegionId,
    build_rule,
    check_exactness,
    classify_nodes,
    cube_spec,
    default_split,
    degree4_nonexactness,
    region_spec,
    sector_spec,
    simplex_spec,
)
from symcub.cli import _data
from symcub.errors import CubatureError
from symcub.ruleio import (
    dumps,
    dumps_csv,
    dumps_json,
    loads_csv,
    loads_json,
    read_rule,
    rule_to_json_dict,
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


def test_malformed_inputs_raise():
    with pytest.raises(CubatureError):
        loads_json("{not json")
    with pytest.raises(CubatureError):
        loads_json('{"dim": 3}')
    with pytest.raises(CubatureError, match="rule JSON must be an object"):
        loads_json('[{"dim": 1, "nodes": [[0.5]], "weights": [1.0]}]')
    with pytest.raises(CubatureError):
        loads_csv("x1,weight\n")
    with pytest.raises(CubatureError):
        loads_csv("x1,x2,weight\n0.5,0.5,1.0\n0.5,1.0\n")


_ONE_NODE = '"nodes": [[1, 2, 3]], "weights": [1]'


@pytest.mark.parametrize("text, message", [
    ('{"dim": 3, %s, "metadata": [1, 2]}' % _ONE_NODE, "'metadata' must be an object, got \\[1, 2\\]"),
    ('{"dim": 3.7, %s}' % _ONE_NODE, "'dim' must be an integer, got 3.7"),
    ('{"dim": 3, "degree": 2.5, %s}' % _ONE_NODE, "'degree' must be an integer, got 2.5"),
    ('{"dim": true, "nodes": [[1]], "weights": [1]}', "'dim' must be an integer, got True"),
    ('{"dim": -1, "nodes": [], "weights": []}', "'dim' must be >= 1, got -1"),
    ('{"dim": 3, "nodes": [], "weights": []}', "the rule has no nodes"),
    ("[" * 100000 + "]" * 100000, "cannot parse rule JSON"),
], ids=["metadata-list", "float-dim", "float-degree", "bool-dim", "negative-dim", "no-nodes",
        "deep-nesting"])
def test_malformed_rule_documents_raise_one_named_error(text, message):
    # none of these may be read silently, truncated or end in a raw
    # TypeError, RecursionError, numpy ValueError or MemoryError
    with pytest.raises(CubatureError, match=message):
        loads_json(text)


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
    for fmt, serialize in (("json", dumps_json), ("csv", dumps_csv)):
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
    as_json, as_csv = dumps_json(rule), dumps_csv(rule)
    for text in (as_json, as_csv):
        assert "np." not in text and "float64" not in text
    data = json.loads(as_json)
    assert data["nodes"] == nodes and data["weights"] == weights
    rows = as_csv.splitlines()[1:]
    assert rows == [
        ",".join(repr(x) for x in node) + f",{w!r}" for node, w in zip(nodes, weights)
    ]
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


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [2, 3, 8, 9, 64])
def test_indented_json_on_verify_payloads_and_rules(region, n):
    # every verify payload is strict JSON at indent 2, and json.loads reads it back
    # as it was (the name is kept so that the test ids stay stable)
    rid = RegionId(region, n)
    spec = region_spec(rid)
    rule = build_rule(spec, region_label=region.value)
    report = check_exactness(rule, spec)
    witnessed = dataclasses.replace(report, degree4_witness=degree4_nonexactness(rule, rid))
    classification = _data(classify_nodes(rule, rid))
    for exactness in (report, witnessed):
        payload = {"pass": True, "tolerance": 1e-8 * spec.moment_scale,
                   "exactness": _data(exactness)}
        assert json.loads(json.dumps(payload, indent=2, allow_nan=False)) == _listed(payload)
        payload["classification"] = classification
        assert json.loads(json.dumps(payload, indent=2, allow_nan=False)) == _listed(payload)
    assert dumps_json(rule) == json.dumps(rule_to_json_dict(rule), indent=2) + "\n"


def _listed(value):
    # JSON data as json.loads returns it: tuples become lists
    if isinstance(value, dict):
        return {key: _listed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_listed(item) for item in value]
    return value
