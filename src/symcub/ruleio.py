"""Rule serialization: JSON, CSV and aligned plain text.

JSON schema: {"dim", "degree", "nodes": [[...]], "weights": [...],
"metadata": {...}}.  CSV carries one node per line, n coordinate columns
then the weight, under a header row.  Floats are written with the repr
of plain Python floats (the arrays go through ``tolist``), so that CSV
and JSON serializations of the same rule parse back to bit-identical
arrays.  Readers convert each parsed document to the rule's arrays once.

:func:`indented_json` writes the text of ``json.dumps(value, indent=2)``
for rules and for the CLI's reports.  It walks in Python only the
containers that hold containers and hands each container of scalars to
json's C encoder, whose item separator carries the newline and indent.
"""

from __future__ import annotations

import functools
import io
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

import numpy as np

from .assembly import CubatureRule
from .errors import CubatureError

__all__ = [
    "dumps",
    "dumps_csv",
    "dumps_json",
    "indented_json",
    "loads_csv",
    "loads_json",
    "read_rule",
    "render_text",
    "rule_from_json_dict",
    "rule_to_json_dict",
    "write_rule",
]


_CONTAINERS = (list, tuple, dict)
# the types json writes as scalars without a default; a subclass of one
# takes the item-by-item path, which sends it to the encoder alone
_SCALARS = frozenset({str, int, float, bool, type(None)})
_INDENT = "  "


@functools.lru_cache(maxsize=None)
def _level(depth: int):
    """json's C encoder with one item per line at `depth + 1` indents, and
    the line breaks that open and close a container `depth` levels deep.

    The encoder is given scalars and containers of scalars only, which
    cannot be circular, so it keeps no markers.
    """
    inner = "\n" + _INDENT * (depth + 1)
    encode = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", "," + inner, False, False, True,
    )
    return encode, inner, "\n" + _INDENT * depth


def _indented(value, depth: int) -> str:
    """A dict, list or tuple as json.dumps(indent=2) writes it `depth` levels deep."""
    encode, inner, outer = _level(depth)
    is_dict = isinstance(value, dict)
    items = value.values() if is_dict else value
    if _SCALARS.issuperset(map(type, items)):
        text = "".join(encode(value, 0))
        if not value:
            return text  # "[]" or "{}"
        # the encoder opens and closes the container on the items' lines
        return f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"
    if is_dict:
        parts = [
            f"{encode_basestring_ascii(key if isinstance(key, str) else _json_key(key, encode))}: "
            f"{_indented(item, depth + 1) if isinstance(item, _CONTAINERS) else ''.join(encode(item, 0))}"
            for key, item in value.items()
        ]
        return f"{{{inner}{(',' + inner).join(parts)}{outer}}}"
    parts = [
        _indented(item, depth + 1) if isinstance(item, _CONTAINERS) else "".join(encode(item, 0))
        for item in items
    ]
    return f"[{inner}{(',' + inner).join(parts)}{outer}]"


def _json_key(key, encode) -> str:
    # json.dumps writes a float, int, bool or None key as its value's text, in quotes
    if key is None or isinstance(key, (int, float)):
        return "".join(encode(key, 0))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def indented_json(value) -> str:
    """The text of ``json.dumps(value, indent=2)``, written faster.

    Containers are dicts, lists and tuples, as json.dumps has them.  A
    circular value raises RecursionError here, not ValueError.  Without
    json's C accelerator this is json.dumps itself.
    """
    if c_make_encoder is None:
        return json.dumps(value, indent=2)
    if isinstance(value, _CONTAINERS):
        return _indented(value, 0)
    return "".join(_level(0)[0](value, 0))


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
    try:
        dim = int(data["dim"])
        nodes = _float_array(data["nodes"])
        weights = _float_array(data["weights"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CubatureError(f"malformed rule document: {exc}") from exc
    return CubatureRule(
        dim=dim,
        nodes=nodes,
        weights=weights,
        degree=int(data.get("degree", 3)),
        metadata=dict(data.get("metadata", {})),
    )


def dumps_json(rule: CubatureRule) -> str:
    return indented_json(rule_to_json_dict(rule)) + "\n"


def loads_json(text: str) -> CubatureRule:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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


def render_text(rule: CubatureRule) -> str:
    """Aligned table for terminals, 14 decimals per entry."""
    region = rule.metadata.get("region", "custom")
    lines = [
        f"degree-{rule.degree} cubature rule: dim={rule.dim}, "
        f"{len(rule)} nodes, region={region}"
    ]
    header = "".join(f"{f'x{i + 1}':>19}" for i in range(rule.dim)) + f"{'weight':>19}"
    lines.append(header)
    for node, weight in zip(rule.nodes.tolist(), rule.weights.tolist()):
        lines.append(
            "".join(f"{x:>19.14f}" for x in node) + f"{weight:>19.14f}"
        )
    lines.append(f"sum of weights = {rule.total_weight()!r}")
    return "\n".join(lines) + "\n"


_DUMPS = {"json": dumps_json, "csv": dumps_csv, "text": render_text}


def dumps(rule: CubatureRule, fmt: str) -> str:
    """The rule serialized in format `fmt`: "json", "csv" or "text"."""
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
