"""Rule serialization round trips."""

import dataclasses
import json
import math
import random

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
    indented_json,
    loads_csv,
    loads_json,
    read_rule,
    render_text,
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


_SCALARS = [
    0.0, -0.0, 0.1, -2.5, 1e300, 5e-324, math.nan, math.inf, -math.inf,
    0, -3, 2**70, -(10**30), True, False, None,
    "", "plain", "caf\u00e9 \u2603", "quote \" backslash \\ newline \n tab \t bell \x07",
]
_KEYS = ["k", "", "caf\u00e9", "line\nbreak", 7, -0.0, 2.5, math.nan, True, None, 10**25]


def _payload(rng, depth):
    # a scalar, or a dict, list or tuple of up to five items, down to depth 4
    if depth == 4 or rng.random() < 0.3:
        return rng.choice(_SCALARS)
    items = [_payload(rng, depth + 1) for _ in range(rng.choice([0, 0, 1, 2, 3, 5]))]
    kind = rng.choice([list, tuple, dict])
    if kind is dict:
        return {rng.choice(_KEYS): item for item in items}
    return kind(items)


def test_indented_json_matches_json_dumps():
    rng = random.Random(20)
    cases = [[], {}, (), [[]], {"a": {}}, [[], [{}], ()], {"a": [[[], {}]]}, 1.5, "x", None]
    cases += [_payload(rng, 0) for _ in range(3000)]
    assert any(isinstance(case, dict) and case for case in cases)
    for case in cases:
        assert indented_json(case) == json.dumps(case, indent=2), repr(case)


def test_indented_json_rejects_what_json_dumps_rejects():
    for bad in ([1, object()], {"a": [1], (1, 2): 3}, {"a": {1j: 2}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            indented_json(bad)


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [2, 3, 8, 9, 64])
def test_indented_json_on_verify_payloads_and_rules(region, n):
    rid = RegionId(region, n)
    spec = region_spec(rid)
    rule = build_rule(spec, region_label=region.value)
    report = check_exactness(rule, spec)
    witnessed = dataclasses.replace(report, degree4_witness=degree4_nonexactness(rule, rid))
    classification = _data(classify_nodes(rule, rid))
    for exactness in (report, witnessed):
        payload = {"pass": True, "tolerance": 1e-8 * spec.moment_scale,
                   "exactness": _data(exactness)}
        assert indented_json(payload) == json.dumps(payload, indent=2)
        payload["classification"] = classification
        assert indented_json(payload) == json.dumps(payload, indent=2)
    assert dumps_json(rule) == json.dumps(rule_to_json_dict(rule), indent=2) + "\n"
