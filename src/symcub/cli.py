"""Command-line front end: generate, verify, search, tables.

Exit codes: 0 success, 1 usage or parse failure, 2 infeasible split or
unsatisfied search, 3 verification failure.  Split parameters accept
exact rationals ("93/85"), parsed to floats at the last moment.  The
default exactness gates are relative to the largest |moment| of degree
<= 3; --tolerance sets an absolute one, finite and >= 0.  When
SYMCUB_OUTPUT_DIR is set, relative --output and --output-dir paths are
resolved against it.

Every command builds one report payload of the library's results:
`verify` and `search` write it to stdout or --output, `tables` to stdout,
and `generate` writes its gate result to stderr beside the rule.  --format
json writes a report with json.dumps(indent=2); text writes the same keys
and values, one `key: value` line each, and `generate --format text` writes
the rule in that layout too.  A non-finite float in a report is written as
null, so a JSON report is strict JSON.  Every failure is one line on
stderr, `error: ...` or `infeasible: ...`, with nothing on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import reference, ruleio
from .assembly import CubatureRule, build_rule
from .decomposition import MassSplit, default_split
from .errors import CubatureError, InfeasibleMomentError
from .moments import (
    Region,
    RegionId,
    SymmetricMomentSpec,
    load_spec,
    region_spec,
)
from .search import SearchMode, SearchObjective, search_masses
from .validation import (
    BOUNDARY_TOL,
    check_exactness,
    classify_nodes,
    compare_to_reference,
    degree4_nonexactness,
)

__all__ = ["main"]

OUTPUT_DIR_ENV = "SYMCUB_OUTPUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3

# Default exactness gates, relative to the largest |moment| of degree <= 3
# so that they scale with the functional; --tolerance is absolute.
GENERATE_REL_TOLERANCE = 1e-12
VERIFY_REL_TOLERANCE = 1e-8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route everything to 1.
    def error(self, message):
        raise _UsageError(message)


def _parse_numbers(text: str) -> list[float]:
    try:
        return [float(Fraction(part.strip())) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _UsageError(f"cannot parse number list {text!r}: {exc}") from exc


def _output_path(path: str) -> Path:
    """`path`, resolved against SYMCUB_OUTPUT_DIR when it is relative."""
    # pathlib drops the base for an absolute path and skips an empty one
    return Path(os.environ.get(OUTPUT_DIR_ENV, ""), path)


def _write_output(text: str, output: str | None) -> None:
    """Write to --output, resolved by :func:`_output_path`, or to stdout.

    The parent directory is created only when the first write finds it
    missing, so a write to an existing directory makes one system call.
    """
    if output is None:
        sys.stdout.write(text)
        return
    path = _output_path(output)
    try:
        path.write_text(text, encoding="utf-8")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _spec_from_args(args, dim_hint: int | None = None) -> tuple[SymmetricMomentSpec, RegionId | None]:
    if args.spec:
        spec = load_spec(args.spec)
        if args.dim is not None and args.dim != spec.n:
            raise _UsageError(
                f"--dim {args.dim} contradicts spec file dimension n = {spec.n}"
            )
        return spec, None
    dim = dim_hint if args.dim is None else args.dim
    if dim is None:
        raise _UsageError("--dim is required with --region")
    region = RegionId(Region(args.region), dim)
    return region_spec(region), region


def _split_from_args(args, spec: SymmetricMomentSpec) -> MassSplit:
    compensation = args.compensate
    if args.t:
        return MassSplit.from_t(_parse_numbers(args.t), spec, compensation)
    if args.mu:
        return MassSplit(tuple(_parse_numbers(args.mu)), compensation)
    if compensation:
        return MassSplit(default_split(spec).masses, compensation=True)
    return default_split(spec)


def _gate(args, rule, spec: SymmetricMomentSpec, relative: float) -> dict:
    """The report's `pass`, `tolerance` and `exactness`: the rule's exactness
    against --tolerance, or against `relative` x the largest |moment|."""
    report = check_exactness(rule, spec)
    tolerance = relative * spec.moment_scale if args.tolerance is None else args.tolerance
    # a NaN gate fails every rule and an infinite one passes every rule
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"--tolerance must be finite and >= 0, got {tolerance}")
    return {"pass": report.max_abs_error <= tolerance, "tolerance": tolerance, "exactness": report}


_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _data(value):
    """A report payload as JSON data: dicts, lists and tuples of scalars.

    Dataclasses and named tuples become dicts of their fields in order
    (leaving out a None field whose default is None), enums their values,
    rules :func:`ruleio.rule_to_json_dict` and a non-finite float None.  A
    run of finite scalars is kept and a run of enums converted in one
    comprehension, with no per-element call.
    """
    kind = type(value)
    if kind is float:
        return value if math.isfinite(value) else None
    if kind in _JSON_SCALARS:
        return value
    if kind is dict:
        return {key: _data(item) for key, item in value.items()}
    if kind is list or kind is tuple:
        kinds = set(map(type, value))
        # a finite sum means every float is finite; any other sum takes the per-element path
        if kinds <= _JSON_SCALARS and (
                float not in kinds or kinds == {float} and math.isfinite(sum(value))):
            return value
        if len(kinds) == 1 and issubclass(kinds.pop(), enum.Enum):
            return [item.value for item in value]
        return [_data(item) for item in value]
    if isinstance(value, CubatureRule):
        return ruleio.rule_to_json_dict(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):  # a named tuple
        return {name: _data(item) for name, item in zip(kind._fields, value)}
    return {
        f.name: _data(item) for f in dataclasses.fields(value)
        if (item := getattr(value, f.name)) is not None or f.default is not None
    }


def _text_lines(data, indent: str = "") -> list[str]:
    """`key: value` lines for a dict and `- value` lines for a list, each value as
    its JSON text, or a non-empty dict or list of containers indented below."""
    is_dict = isinstance(data, dict)
    lines = []
    for key, value in data.items() if is_dict else enumerate(data):
        head = f"{indent}{key}:" if is_dict else f"{indent}-"
        nested = (isinstance(value, dict) and value) or (
            isinstance(value, (list, tuple)) and not _JSON_SCALARS.issuperset(map(type, value)))
        if nested:
            lines += [head, *_text_lines(value, indent + "  ")]
        else:
            lines.append(f"{head} {json.dumps(value, allow_nan=False)}")
    return lines


def _render(payload, fmt: str) -> str:
    """A report payload as JSON ("json") or as `key: value` lines ("text")."""
    data = _data(payload)  # a non-finite float that _data leaves is a ValueError below
    text = (json.dumps(data, indent=2, allow_nan=False) if fmt == "json"
            else "\n".join(_text_lines(data)))
    return text + "\n"


def _cmd_generate(args) -> int:
    spec, region = _spec_from_args(args)
    split = _split_from_args(args, spec)
    rule = build_rule(spec, split, region_label=region.label if region else "custom")
    payload = _gate(args, rule, spec, GENERATE_REL_TOLERANCE)
    payload.update(node_count=len(rule), total_weight=rule.total_weight())
    rule_text = _render(rule, "text") if args.format == "text" else ruleio.dumps(rule, args.format)
    _write_output(rule_text, args.output)
    sys.stderr.write(_render(payload, "text"))
    return EXIT_OK if payload["pass"] else EXIT_VERIFICATION


def _cmd_verify(args) -> int:
    rule = ruleio.read_rule(args.rule_file)
    spec, region = _spec_from_args(args, dim_hint=rule.dim)
    if rule.dim != spec.n:
        raise _UsageError(
            f"rule has dim {rule.dim} but moment spec has n = {spec.n}"
        )
    payload = _gate(args, rule, spec, VERIFY_REL_TOLERANCE)
    if region is not None:
        witness = degree4_nonexactness(rule, region)
        payload["exactness"] = dataclasses.replace(payload["exactness"], degree4_witness=witness)
        payload["classification"] = classify_nodes(rule, region, args.boundary_tol)
    _write_output(_render(payload, args.format), args.output)
    return EXIT_OK if payload["pass"] else EXIT_VERIFICATION


def _cmd_search(args) -> int:
    if args.spec:
        raise _UsageError("search needs --region; node placement is region-relative")
    spec, region = _spec_from_args(args)
    objective = SearchObjective(
        mode=args.mode, allow_compensation=args.allow_compensation,
        max_evals=args.max_evals, boundary_tol=args.boundary_tol,
    )
    result = search_masses(spec, region, objective)
    _write_output(_render({
        "satisfied": result.satisfied,
        "message": result.message,
        "evaluations": result.evaluations,
        "score": result.score,
        "masses": result.split.masses if result.split else None,
        "compensation": result.split.compensation if result.split else None,
        "rule": result.rule,
    }, args.format), args.output)
    return EXIT_OK if result.satisfied else EXIT_INFEASIBLE


def _cmd_tables(args) -> int:
    # without --output-dir: SYMCUB_OUTPUT_DIR itself, else ./tables
    default = "" if os.environ.get(OUTPUT_DIR_ENV) else "tables"
    out_dir = _output_path(args.output_dir or default)
    out_dir.mkdir(parents=True, exist_ok=True)
    diffs = {}
    for name in reference.numbered_table_names():
        regenerated = reference.regenerate_table(name)
        reference.write_table_csv(name, regenerated, out_dir / f"{name}.csv")
        diffs[name] = compare_to_reference(
            regenerated, reference.load_reference_rule(name), tol=reference.table_spec(name).tol
        )
    passed = all(diff.passed for diff in diffs.values())
    sys.stdout.write(_render({"pass": passed, "output_dir": str(out_dir), "tables": diffs}, "text"))
    return EXIT_OK if passed else EXIT_VERIFICATION


def _add_spec_source(parser: _Parser, require_dim: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--region",
        choices=[r.value for r in Region],
        help="built-in region providing the moments",
    )
    group.add_argument("--spec", help="path to a custom moment-spec JSON file")
    parser.add_argument(
        "--dim",
        type=int,
        help="dimension n" + (" (required with --region)" if require_dim else ""),
    )


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared after it."""
    parser = _Parser(prog="symcub", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a rule and check exactness")
    _add_spec_source(gen, require_dim=True)
    split_group = gen.add_mutually_exclusive_group()
    split_group.add_argument("--t", help="comma-separated t-parameters, e.g. 93/85,378/391,108/115")
    split_group.add_argument("--mu", help="comma-separated chain masses")
    gen.add_argument("--compensate", action="store_true", help="add the compensation node")
    gen.add_argument("--format", choices=["json", "csv", "text"], default="json")
    gen.add_argument("--output", help="write the rule here instead of stdout")
    gen.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="absolute exactness tolerance "
        f"(default {GENERATE_REL_TOLERANCE:g} x the largest |moment|)",
    )
    gen.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="check a rule file against a moment spec")
    ver.add_argument("rule_file", help="rule file (JSON or CSV)")
    _add_spec_source(ver, require_dim=False)
    ver.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="absolute exactness tolerance "
        f"(default {VERIFY_REL_TOLERANCE:g} x the largest |moment|)",
    )
    ver.add_argument("--boundary-tol", type=float, default=BOUNDARY_TOL)
    ver.add_argument("--format", choices=["text", "json"], default="text")
    ver.add_argument("--output")
    ver.set_defaults(func=_cmd_verify)

    sea = sub.add_parser("search", help="search mass splits for node placement")
    _add_spec_source(sea, require_dim=True)
    sea.add_argument(
        "--mode",
        choices=[m.value for m in SearchMode],
        default=SearchMode.INTERIOR.value,
    )
    sea.add_argument("--allow-compensation", action="store_true")
    sea.add_argument("--max-evals", type=int, default=5000)
    sea.add_argument("--boundary-tol", type=float, default=BOUNDARY_TOL)
    sea.add_argument("--format", choices=["json", "text"], default="json")
    sea.add_argument("--output")
    sea.set_defaults(func=_cmd_search)

    tab = sub.add_parser("tables", help="regenerate the reference tables")
    tab.add_argument("--output-dir", help="directory for the CSV files")
    tab.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a NaN or inf reaches the report and fails its gate; no warning
        with np.errstate(all="ignore"):
            return args.func(args)
    except InfeasibleMomentError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (_UsageError, CubatureError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
