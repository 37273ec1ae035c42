"""Command-line interface: subcommands, exit codes, round trips."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symcub
from symcub import CubatureError, check_exactness, reference, region_spec, RegionId, Region
from symcub.cli import build_parser, main
from symcub.reference import load_reference_rule, numbered_table_names, reference_csv_text
from symcub.ruleio import loads_csv, loads_json, read_rule
from symcub.search import SearchResult
from symcub.validation import compare_to_reference


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_default_matches_table1(capsys):
    code, out, err = _run(capsys, "generate", "--region", "simplex", "--dim", "3")
    assert code == 0
    rule = loads_json(out)
    assert len(rule) == 6
    diff = compare_to_reference(rule, load_reference_rule("table1"))
    assert diff.max_node_distance <= 5e-9 and diff.max_weight_deviation <= 5e-9
    assert "PASS" in err


def test_generate_compensated_table4(capsys):
    code, out, _ = _run(
        capsys,
        "generate",
        "--region", "simplex", "--dim", "4",
        "--t", "104/75,3577/2775,9947/8880,49/60",
        "--compensate",
    )
    assert code == 0
    rule = loads_json(out)
    assert len(rule) == 9
    assert rule.nodes[-1] == pytest.approx((2 / 7, 2 / 7, 1 / 7, 1 / 7), abs=1e-12)
    assert rule.weights[-1] == pytest.approx(-49 / 7680, rel=1e-9)
    assert math.fsum(rule.weights) == pytest.approx(1 / 24, rel=1e-12)


def test_generate_custom_spec(tmp_path, capsys):
    spec_path = tmp_path / "cube.json"
    spec_path.write_text(
        json.dumps(
            {"n": 3, "m1": 1.0, "mx": 0.5, "mxx": 1 / 3, "mxy": 0.25,
             "mxxx": 0.25, "mxxy": 1 / 6, "mxyz": 0.125}
        )
    )
    code, out, _ = _run(capsys, "generate", "--spec", str(spec_path), "--dim", "3")
    assert code == 0
    rule = loads_json(out)
    assert len(rule) == 6
    assert math.fsum(rule.weights) == pytest.approx(1.0, rel=1e-12)
    assert rule.metadata["region"] == "custom"
    # a --dim contradicting the file is a usage error
    assert _run(capsys, "generate", "--spec", str(spec_path), "--dim", "4")[0] == 1


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_generate_custom_spec_at_extreme_scale(tmp_path, capsys, scale):
    # m_1*m_xx and m_x^2 overflow at 1e200; the chain products underflow at 1e-200
    moments = {"m1": 1.0, "mx": 0.5, "mxx": 0.4, "mxy": 0.2, "mxxx": 0.3, "mxxy": 0.1, "mxyz": 0.05}
    spec_path = tmp_path / "scaled.json"
    spec_path.write_text(json.dumps({"n": 3, **{k: v * scale for k, v in moments.items()}}))
    code, out, err = _run(capsys, "generate", "--spec", str(spec_path))
    assert code == 0
    assert len(loads_json(out)) == 6
    assert "PASS" in err


def test_dim_zero_is_a_given_dimension(tmp_path, capsys):
    # --dim 0 is checked like any other value, not taken as missing
    spec_path = tmp_path / "my_moments.json"
    spec_path.write_text(
        '{"n": 3, "m1": 1.0, "mx": 0.5, "mxx": 0.3333333333333333, "mxy": 0.25, '
        '"mxxx": 0.25, "mxxy": 0.16666666666666666, "mxyz": 0.125}'
    )
    code, out, err = _run(capsys, "generate", "--spec", str(spec_path), "--dim", "0")
    assert (code, out) == (1, "")
    assert "--dim 0 contradicts" in err
    code, _, err = _run(capsys, "generate", "--region", "simplex", "--dim", "0")
    assert code == 1
    assert "required" not in err and "got 0" in err


@pytest.mark.parametrize("option", ["--t", "--mu"])
def test_overflowing_number_list_exit_1(capsys, option):
    code, out, err = _run(
        capsys, "generate", "--region", "simplex", "--dim", "3", option, "1e400,1,1"
    )
    assert (code, out) == (1, "")
    assert "cannot parse number list" in err


@pytest.mark.parametrize("compensate", [[], ["--compensate"]])
def test_overflowing_mass_sum_exit_1(capsys, compensate):
    # each mass is finite, their sum is not: one error line, no traceback
    code, out, err = _run(
        capsys, "generate", "--region", "cube", "--dim", "3", "--mu", "1e308,1e308,1e308",
        *compensate,
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: the masses sum past the largest float"]


@pytest.mark.parametrize("mxyz, message", [
    (1e102, "error: chain moment m3 of chain 2 overflows float64 (c_mid^3 with c_mid = -1e+103)"),
    (1e308, "error: chain moment m1 of chain 1 overflows float64 (c_n = inf)"),
])
def test_generate_overflowing_chain_moments_is_one_error_line(tmp_path, capsys, mxyz, message):
    # c_mid^3 overflows in the first spec and c_n in the second: one named error, not exit 2
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"n": 3, "m1": 1.0, "mx": 0.0, "mxx": 0.4, "mxy": 0.2, "mxxx": 0.3, "mxxy": 0.1, "mxyz": mxyz}
    ))
    code, out, err = _run(capsys, "generate", "--spec", str(spec_path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [message]


@pytest.mark.parametrize("n", [340, 3144, 4000])
def test_generate_underflowing_sector_is_one_error_line(capsys, n):
    # from n = 3144 on, (pi/2)^(n/2) would overflow: the same named error, no traceback
    code, out, err = _run(capsys, "generate", "--region", "ball-sector", "--dim", str(n))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: ball-sector moments at n = {n} underflow float64: m_1, m_x, m_xx, m_xy, "
        "m_xxx, m_xxy, m_xyz round to 0.0 (L(1) = 0.0)"
    ]


@pytest.mark.parametrize("key, literal", [("mx", "NaN"), ("mxxx", "Infinity")])
def test_generate_non_finite_spec_is_a_usage_error(tmp_path, capsys, key, literal):
    # json.load reads the NaN and Infinity literals
    values = {"n": 3, "m1": 1.0, "mx": 0.5, "mxx": 1 / 3, "mxy": 0.25,
              "mxxx": 0.25, "mxxy": 1 / 6, "mxyz": 0.125}
    text = json.dumps(values).replace(f'"{key}": {values[key]}', f'"{key}": {literal}')
    assert literal in text
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    code, _, err = _run(capsys, "generate", "--spec", str(spec_path))
    assert code == 1
    assert "must be finite" in err


def test_generate_with_explicit_masses(capsys):
    code, out, _ = _run(
        capsys,
        "generate", "--region", "cube", "--dim", "3", "--mu", "1/3,1/3,1/3",
    )
    assert code == 0
    rule = loads_json(out)
    assert rule.metadata["masses"] == pytest.approx([1 / 3] * 3)
    assert (
        _run(capsys, "generate", "--region", "cube", "--dim", "3",
             "--t", "1,1,1", "--mu", "1/3,1/3,1/3")[0]
        == 1
    )


def test_generate_formats(capsys):
    code, out, _ = _run(
        capsys, "generate", "--region", "simplex", "--dim", "3", "--format", "csv"
    )
    assert code == 0
    assert loads_csv(out).dim == 3
    code, out, _ = _run(
        capsys, "generate", "--region", "simplex", "--dim", "3", "--format", "text"
    )
    assert code == 0
    assert "0.34240723692377" in out


def test_generate_infeasible_exit_2(capsys):
    code, _, err = _run(
        capsys, "generate", "--region", "simplex", "--dim", "3", "--t", "0.3,1.35,1.35"
    )
    assert code == 2
    assert "mu_1" in err and "chain 1" in err


def test_generate_usage_errors(capsys):
    assert _run(capsys, "generate", "--region", "simplex")[0] == 1  # no dim
    assert _run(capsys, "generate", "--region", "nowhere", "--dim", "3")[0] == 1
    assert _run(capsys, "generate", "--dim", "3")[0] == 1  # no source
    assert _run(capsys)[0] == 1  # no subcommand
    assert (
        _run(capsys, "generate", "--region", "simplex", "--dim", "3", "--t", "1,1")[0]
        == 1
    )
    assert (
        _run(
            capsys, "generate", "--region", "simplex", "--spec", "x.json", "--dim", "3"
        )[0]
        == 1
    )


def test_generate_bad_split_sum_is_usage_error(capsys):
    code, _, err = _run(
        capsys, "generate", "--region", "simplex", "--dim", "3", "--t", "1,1,2"
    )
    assert code == 1
    assert "compensation" in err


def test_roundtrip_generate_verify(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    code, _, _ = _run(
        capsys,
        "generate", "--region", "ball-sector", "--dim", "3",
        "--output", str(rule_path),
    )
    assert code == 0 and rule_path.exists()
    code, out, _ = _run(
        capsys,
        "verify", str(rule_path), "--region", "ball-sector", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    # parsing is lossless, so the reported maxima match a direct check
    direct = check_exactness(read_rule(rule_path), __import__("symcub").sector_spec(3))
    assert abs(payload["exactness"]["max_abs_error"] - direct.max_abs_error) <= 1e-14
    assert payload["classification"]["interior"] == 6
    assert "degree4_witness" in payload["exactness"]


def test_verify_shipped_table6(tmp_path, capsys):
    table_path = tmp_path / "table6.csv"
    table_path.write_text(reference_csv_text("table6"))
    code, out, _ = _run(
        capsys, "verify", str(table_path), "--region", "ball-sector"
    )
    assert code == 0
    assert "PASS" in out


def test_verify_table2_classification(tmp_path, capsys):
    table_path = tmp_path / "table2.csv"
    table_path.write_text(reference_csv_text("table2"))
    code, out, _ = _run(
        capsys, "verify", str(table_path), "--region", "simplex", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"]["exterior"] == 3


# Dyadic nodes and weights make every rule sum exact, so these bytes do
# not depend on the order in which a matrix product adds its terms.
_PINNED_RULE = (
    "x1,x2,weight\n0.25,0.25,0.25\n0.75,0.25,0.25\n0.25,0.75,0.25\n"
    "0.75,0.75,0.25\n0.0,0.5,0.0\n1.5,0.5,0.0\n"
)
_PINNED_REPORT = """{
  "pass": false,
  "tolerance": 1e-08,
  "exactness": {
    "max_abs_error": 0.03125,
    "max_rel_error": 0.125,
    "worst_monomial": [
      3,
      0
    ],
    "per_degree_max": [
      0.0,
      0.0,
      0.020833333333333315,
      0.03125
    ],
    "monomial_count": 10,
    "degree4_witness": {
      "monomial": [
        4,
        0
      ],
      "error": 0.03984375000000001
    }
  },
  "classification": {
    "classes": [
      "interior",
      "interior",
      "interior",
      "interior",
      "boundary",
      "exterior"
    ],
    "interior": 4,
    "boundary": 1,
    "exterior": 1,
    "tol": 1e-09,
    "positive_weights": 4,
    "negative_weights": 0,
    "zero_weights": 2
  }
}
"""


def test_verify_json_bytes_are_pinned(tmp_path, capsys):
    rule_path = tmp_path / "rule.csv"
    rule_path.write_text(_PINNED_RULE)
    for _ in range(2):  # the second run reads every table from the caches
        code, out, _ = _run(capsys, "verify", str(rule_path), "--region", "cube", "--format", "json")
        assert code == 3
        assert out == _PINNED_REPORT


def test_verify_wrong_region_exit_3(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    _run(capsys, "generate", "--region", "cube", "--dim", "3", "--output", str(rule_path))
    code, out, _ = _run(capsys, "verify", str(rule_path), "--region", "simplex")
    assert code == 3
    assert "FAIL" in out


@pytest.mark.parametrize(
    "region, dim, kind", [("simplex", 8, "weight"), ("ball-sector", 16, "coordinate")]
)
def test_verify_gate_is_relative_to_moment_scale(tmp_path, capsys, region, dim, kind):
    # L(1) is 2.5e-5 (simplex, n = 8) and 3.6e-6 (sector, n = 16), so these
    # corruptions stay below an absolute 1e-8 yet are far above roundoff
    clean = tmp_path / "clean.json"
    code, _, _ = _run(
        capsys, "generate", "--region", region, "--dim", str(dim), "--output", str(clean)
    )
    assert code == 0
    data = json.loads(clean.read_text())
    if kind == "weight":
        data["weights"][3] *= 1.0 + 1e-5
    else:
        data["nodes"][3][1] += 1e-5
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(data))
    scale = region_spec(RegionId(Region(region), dim)).moment_scale

    def verify(path, *extra):
        code, out, _ = _run(
            capsys, "verify", str(path), "--region", region, "--format", "json", *extra
        )
        return code, json.loads(out)

    code, payload = verify(clean)
    assert code == 0 and payload["pass"] is True
    assert payload["tolerance"] == pytest.approx(1e-8 * scale, rel=1e-15)
    code, payload = verify(corrupted)
    assert code == 3 and payload["pass"] is False
    assert payload["exactness"]["max_abs_error"] < 1e-8
    # an explicit tolerance keeps its absolute meaning
    code, payload = verify(corrupted, "--tolerance", "1e-8")
    assert code == 0 and payload["tolerance"] == 1e-8


def test_verify_dim_mismatch_exit_1(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    _run(capsys, "generate", "--region", "cube", "--dim", "3", "--output", str(rule_path))
    code, _, err = _run(
        capsys, "verify", str(rule_path), "--region", "cube", "--dim", "4"
    )
    assert code == 1
    assert "dim" in err


def test_verify_parse_failure_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert _run(capsys, "verify", str(bad), "--region", "simplex")[0] == 1


def test_exactness_check_has_no_seed(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    assert _run(capsys, "generate", "--region", "cube", "--dim", "9", "--seed", "1")[0] == 1
    _run(capsys, "generate", "--region", "cube", "--dim", "9", "--output", str(rule_path))
    assert _run(capsys, "verify", str(rule_path), "--region", "cube", "--seed", "1")[0] == 1


def test_search_has_no_seed(capsys):
    # the search is deterministic; it takes no seed
    argv = ("search", "--region", "simplex", "--dim", "3", "--seed", "1")
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "--seed" in err


def test_verify_above_dim8_names_the_worst_degree(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    _run(capsys, "generate", "--region", "simplex", "--dim", "12", "--output", str(rule_path))
    code, out, _ = _run(
        capsys, "verify", str(rule_path), "--region", "simplex", "--format", "json"
    )
    exactness = json.loads(out)["exactness"]
    assert code == 0
    assert exactness["worst_monomial"] is None
    assert exactness["monomial_count"] == math.comb(15, 3)
    code, out, _ = _run(capsys, "verify", str(rule_path), "--region", "simplex")
    assert code == 0
    assert "at degree " in out and "PASS" in out


@pytest.mark.parametrize("region, dim", [("simplex", 101), ("ball-sector", 200)])
def test_generate_passes_tiny_mass_rules(capsys, region, dim):
    # L(1) < 1e-150: every chain still gives two nodes and the rule is exact
    code, out, err = _run(capsys, "generate", "--region", region, "--dim", str(dim))
    assert code == 0
    assert len(loads_json(out)) == 2 * dim
    assert "PASS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--region", "simplex", "--dim", "4", "--boundary-tol", "-0.05",
         "--max-evals", "1000"),
        ("verify", "TABLE", "--region", "simplex", "--boundary-tol", "-0.5"),
        ("verify", "TABLE", "--region", "simplex", "--boundary-tol", "inf"),
    ],
)
def test_negative_or_non_finite_boundary_tol_exit_1(tmp_path, capsys, argv):
    table_path = tmp_path / "table1.csv"
    table_path.write_text(reference_csv_text("table1"))
    argv = [str(table_path) if a == "TABLE" else a for a in argv]
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert "tol" in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["generate", "verify"])
def test_negative_or_non_finite_tolerance_exit_1(tmp_path, capsys, command, value):
    # a NaN gate would fail every rule and an infinite one pass every rule
    table_path = tmp_path / "table1.csv"
    table_path.write_text(reference_csv_text("table1"))
    source = [str(table_path)] if command == "verify" else ["--dim", "3"]
    code, out, err = _run(capsys, command, *source, "--region", "simplex", "--tolerance", value)
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "--tolerance" in err


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_zero_tolerance_is_accepted(tmp_path, capsys, command):
    table_path = tmp_path / "table1.csv"
    table_path.write_text(reference_csv_text("table1"))
    source = [str(table_path), "--format", "json"] if command == "verify" else ["--dim", "3"]
    code, out, err = _run(capsys, command, *source, "--region", "simplex", "--tolerance", "0")
    assert code in (0, 3) and "error:" not in err
    if command == "verify":
        assert json.loads(out)["tolerance"] == 0.0
    else:
        assert "(tolerance 0.000e+00)" in err


def test_csv_and_json_outputs_parse_identically(tmp_path, capsys):
    json_path = tmp_path / "rule.json"
    csv_path = tmp_path / "rule.csv"
    for path, fmt in [(json_path, "json"), (csv_path, "csv")]:
        code, _, _ = _run(
            capsys,
            "generate", "--region", "simplex", "--dim", "4",
            "--format", fmt, "--output", str(path),
        )
        assert code == 0
    assert np.array_equal(read_rule(json_path).nodes, read_rule(csv_path).nodes)
    assert np.array_equal(read_rule(json_path).weights, read_rule(csv_path).weights)


def test_search_cli(capsys):
    code, out, _ = _run(
        capsys,
        "search", "--region", "simplex", "--dim", "3",
        "--mode", "interior", "--max-evals", "2000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfied"] is True
    assert len(payload["masses"]) == 3
    assert payload["rule"]["dim"] == 3


def test_search_cli_unsatisfied_exit_2(capsys):
    code, out, _ = _run(
        capsys,
        "search", "--region", "simplex", "--dim", "4",
        "--mode", "interior", "--max-evals", "50",
    )
    assert code == 2
    assert json.loads(out)["satisfied"] is False


def test_search_json_is_json_dumps_indent_2(capsys, monkeypatch):
    # a satisfied search, one with a best split and one with no split at all
    for max_evals in ("2000", "50", "1"):
        code, out, _ = _run(capsys, "search", "--region", "simplex", "--dim", "4",
                            "--max-evals", max_evals, "--allow-compensation")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    monkeypatch.setattr(symcub.cli, "search_masses", lambda spec, region, objective: SearchResult(
        split=None, rule=None, score=(-math.inf, 0.0, 0.0), evaluations=3, satisfied=False,
        message="no split"))
    code, out, _ = _run(capsys, "search", "--region", "cube", "--dim", "3")
    assert code == 2 and json.loads(out)["rule"] is None
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_tables_cli(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    code, out, _ = _run(capsys, "tables", "--output-dir", str(out_dir))
    assert code == 0
    for i in range(1, 9):
        assert (out_dir / f"table{i}.csv").exists()
    assert out.count("OK") == 8
    regenerated = read_rule(out_dir / "table1.csv")
    diff = compare_to_reference(regenerated, load_reference_rule("table1"))
    assert diff.max_node_distance <= 5e-9
    # the table5 compensation weight is the mass residual, keeping the
    # total at L(1) = 1/24
    table5 = read_rule(out_dir / "table5.csv")
    assert table5.weights[-1] == pytest.approx(-0.0066981244805, abs=1e-9)
    assert math.fsum(table5.weights) == pytest.approx(1 / 24, rel=1e-12)


def test_reference_csv_text_is_read_once():
    for name in (*numbered_table_names(), "table3_interior"):
        assert reference_csv_text(name) is reference_csv_text(name)
    with pytest.raises(CubatureError, match="unknown reference table"):
        reference_csv_text("table9")


def test_reference_table_dim_must_match_registry(monkeypatch):
    # table1 has 3 coordinate columns; the registry says table2 is 4-D
    table1 = reference_csv_text("table1")
    monkeypatch.setattr(reference, "reference_csv_text", lambda name: table1)
    with pytest.raises(CubatureError, match="table2 has 3 coordinate columns"):
        reference.load_reference_rule("table2")


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--region", "simplex", "--dim", "3", "--output"),
        ("verify", "RULE", "--region", "simplex", "--output"),
        ("search", "--region", "simplex", "--dim", "3", "--max-evals", "2000", "--output"),
        ("tables", "--output-dir"),
    ],
    ids=["generate", "verify", "search", "tables"],
)
def test_output_dir_env_var(tmp_path, capsys, monkeypatch, argv):
    rule_path = tmp_path / "rule.json"
    _run(capsys, "generate", "--region", "simplex", "--dim", "3", "--output", str(rule_path))
    monkeypatch.setenv("SYMCUB_OUTPUT_DIR", str(tmp_path / "out"))
    monkeypatch.chdir(tmp_path)
    argv = [str(rule_path) if arg == "RULE" else arg for arg in argv]
    code, out, _ = _run(capsys, *argv, "sub/result")
    assert code == 0
    written = tmp_path / "out" / "sub" / "result"
    if argv[0] == "tables":
        # tables prints its report and writes one CSV per table
        assert out.endswith(f"to {written}\n")
        assert (written / "table1.csv").read_text()
        assert not (tmp_path / "sub").exists()
    else:
        assert out == ""
        assert written.read_text()


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    calls = [
        ("generate", "--region", "cube", "--dim", "3", "--mu", "1/2,1/4,1/4",
         "--compensate", "--format", "csv"),
        ("verify", "--region", "simplex"),  # usage error: no rule file
        ("generate", "--region", "cube", "--dim", "3", "--output", str(rule_path)),
        ("verify", str(rule_path), "--region", "cube", "--format", "json"),
    ]
    shared = [_run(capsys, *argv) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 0]
    assert len(loads_csv(shared[0][1])) == 7
    assert json.loads(shared[3][1])["pass"] is True


def test_console_script_entry_point():
    # the child imports the same symcub as this process, installed or not
    package_root = str(Path(symcub.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run(
        [sys.executable, "-m", "symcub.cli", "generate", "--region", "simplex", "--dim", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 3
