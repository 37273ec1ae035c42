"""Rule serialization: JSON and CSV, the two formats the readers read.

JSON schema: {"dim", "degree", "nodes": [[...]], "weights": [...],
"metadata": {...}}.  CSV carries one node per line, n coordinate columns
then the weight, under a header row.  Floats are written with the repr
of plain Python floats (the arrays go through ``tolist``), so that CSV
and JSON serializations of the same rule parse back to bit-identical
arrays.  Readers convert each parsed document to the rule's arrays once,
and end a malformed document in one CubatureError.  JSON is written by
``json.dumps(indent=2)``.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from .assembly import CubatureRule
from .errors import CubatureError

__all__ = [
    "dumps",
    "dumps_csv",
    "dumps_json",
    "loads_csv",
    "loads_json",
    "read_rule",
    "rule_from_json_dict",
    "rule_to_json_dict",
    "write_rule",
]


def rule_to_json_dict(rule: CubatureRule) -> dict:
    return {
        "dim": rule.dim,
        "degree": rule.degree,
        "nodes": rule.nodes.tolist(),
        "weights": rule.weights.tolist(),
        "metadata": dict(rule.metadata),
    }


def _float_array(values) -> np.ndarray:
    """Nested numbers as one float64 array, with float()'s rules for the rest."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        # strings, nulls or other objects: float() parses or rejects each
        arr = np.vectorize(float, otypes=[np.float64])(arr)
    return arr.astype(np.float64, copy=False)


def rule_from_json_dict(data: dict) -> CubatureRule:
    """The rule of a JSON document: integer `dim` >= 1 and `degree`, at least
    one node, and a `metadata` object."""
    try:
        dim, degree = data["dim"], data.get("degree", 3)
        metadata = data.get("metadata", {})
        for key, value in (("dim", dim), ("degree", degree)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{key!r} must be an integer, got {value!r}")
        if dim < 1:
            raise ValueError(f"'dim' must be >= 1, got {dim}")
        if not isinstance(metadata, dict):
            raise TypeError(f"'metadata' must be an object, got {metadata!r}")
        nodes = _float_array(data["nodes"])
        if not len(nodes):
            raise ValueError("the rule has no nodes")
        rule = CubatureRule(dim=dim, nodes=nodes, weights=_float_array(data["weights"]),
                            degree=degree, metadata=dict(metadata))
    except (KeyError, TypeError, ValueError) as exc:
        raise CubatureError(f"malformed rule document: {exc}") from exc
    return rule


def dumps_json(rule: CubatureRule) -> str:
    return json.dumps(rule_to_json_dict(rule), indent=2) + "\n"


def loads_json(text: str) -> CubatureRule:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CubatureError(f"cannot parse rule JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CubatureError("rule JSON must be an object")
    return rule_from_json_dict(data)


def dumps_csv(rule: CubatureRule) -> str:
    out = io.StringIO()
    out.write(",".join(f"x{i + 1}" for i in range(rule.dim)) + ",weight\n")
    for node, weight in zip(rule.nodes.tolist(), rule.weights.tolist()):
        out.write(",".join(repr(x) for x in node) + f",{weight!r}\n")
    return out.getvalue()


def loads_csv(text: str) -> CubatureRule:
    nodes = []
    weights = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # numeric prefix of the row; trailing annotation cells (e.g. the
        # note column of the shipped reference tables) are ignored.
        # float() strips whitespace itself and rejects an empty cell.
        values = []
        for cell in line.split(","):
            try:
                values.append(float(cell))
            except ValueError:
                break
        if not values:
            if nodes:
                raise CubatureError(f"line {lineno}: non-numeric rule row {raw!r}")
            continue  # header row
        if len(values) < 2:
            raise CubatureError(f"line {lineno}: need coordinates plus weight")
        if dim is None:
            dim = len(values) - 1
        elif len(values) - 1 != dim:
            raise CubatureError(
                f"line {lineno}: expected {dim} coordinates, got {len(values) - 1}"
            )
        nodes.append(values[:-1])
        weights.append(values[-1])
    if not nodes:
        raise CubatureError("no rule rows found in CSV input")
    return CubatureRule(dim=dim, nodes=np.array(nodes), weights=np.array(weights))


_DUMPS = {"json": dumps_json, "csv": dumps_csv}


def dumps(rule: CubatureRule, fmt: str) -> str:
    """The rule serialized in format `fmt`: "json" or "csv"."""
    if fmt not in _DUMPS:
        raise ValueError(f"unknown rule format {fmt!r}")
    return _DUMPS[fmt](rule)


def write_rule(rule: CubatureRule, path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    fmt = fmt or ("csv" if path.suffix.lower() == ".csv" else "json")
    path.write_text(dumps(rule, fmt), encoding="utf-8")


def read_rule(path: str | Path) -> CubatureRule:
    """Read a rule file, JSON or CSV, deciding by suffix then content."""
    text = Path(path).read_text(encoding="utf-8")
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return loads_json(text)
    if suffix == ".csv":
        return loads_csv(text)
    try:
        return loads_json(text)
    except CubatureError:
        return loads_csv(text)
