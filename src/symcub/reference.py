"""Golden reference tables shipped with the package.

The eight numbered tables (table1 .. table8) are the published node and
weight listings for the simplex and ball-sector examples, transcribed
into CSV data files; table3_interior is the unnumbered all-interior
simplex variant.  Each registry entry records the region, dimension and
t-parameters that regenerate it through the pipeline.

Tables 4 and 5 carry a compensation node whose published weight is on
the t-parameter scale (larger by a factor n * n! than the rest of the
column).  The shipped files store the residual mass m_1 - sum(mu) in the
weight column, which makes the weights sum to L(1), and keep the
published value in the adjacent note column rather than altering it
silently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import ruleio
from .assembly import CubatureRule, build_rule
from .decomposition import MassSplit
from .errors import CubatureError
from .moments import Region, RegionId, region_spec

__all__ = [
    "TableSpec",
    "load_reference_rule",
    "numbered_table_names",
    "reference_csv_text",
    "regenerate_table",
    "table_spec",
    "write_table_csv",
]


@dataclass(frozen=True)
class TableSpec:
    name: str
    region: Region
    dim: int
    t_values: tuple[str, ...]
    compensation: bool
    tol: float
    published_compensation_weight: str | None = None


_REGISTRY: dict[str, TableSpec] = {
    spec.name: spec
    for spec in (
        TableSpec("table1", Region.SIMPLEX, 3, ("1", "1", "1"), False, 5e-9),
        TableSpec("table2", Region.SIMPLEX, 4, ("1", "1", "1", "1"), False, 5e-9),
        TableSpec("table3", Region.SIMPLEX, 3, ("93/85", "378/391", "108/115"), False, 5e-9),
        TableSpec("table3_interior", Region.SIMPLEX, 3, ("94/85", "1", "76/85"), False, 5e-9),
        TableSpec(
            "table4",
            Region.SIMPLEX,
            4,
            ("104/75", "3577/2775", "9947/8880", "49/60"),
            True,
            5e-9,
            published_compensation_weight="-49/80",
        ),
        TableSpec(
            "table5",
            Region.SIMPLEX,
            4,
            ("7/5", "187/145", "179522/160283", "5/6"),
            True,
            5e-8,
            published_compensation_weight="-0.643019950129875",
        ),
        TableSpec("table6", Region.BALL_SECTOR, 3, ("1", "1", "1"), False, 5e-9),
        TableSpec("table7", Region.BALL_SECTOR, 4, ("1", "1", "1", "1"), False, 5e-9),
        TableSpec("table8", Region.BALL_SECTOR, 4, ("0.8", "1.31", "1.11", "0.78"), False, 5e-9),
    )
}

_NUMBERED = tuple(f"table{i}" for i in range(1, 9))


def numbered_table_names() -> tuple[str, ...]:
    return _NUMBERED


def table_spec(name: str) -> TableSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CubatureError(f"unknown reference table {name!r}") from None


@functools.lru_cache(maxsize=None)
def reference_csv_text(name: str) -> str:
    """The text of a shipped table's CSV file, read once per process."""
    spec = table_spec(name)
    return (
        resources.files("symcub")
        .joinpath("data", f"{spec.name}.csv")
        .read_text("utf-8")
    )


def load_reference_rule(name: str) -> CubatureRule:
    """Parse a shipped reference table into a rule.

    The ``# key:`` lines and the note column are not read; the number of
    coordinate columns must match the registry dimension.
    """
    rule = ruleio.loads_csv(reference_csv_text(name))
    dim = table_spec(name).dim
    if rule.dim != dim:
        raise CubatureError(
            f"table {name} has {rule.dim} coordinate columns, expected dim {dim}"
        )
    return rule


def regenerate_table(name: str) -> CubatureRule:
    """Rebuild a registry table through the full pipeline."""
    spec_entry = table_spec(name)
    moment_spec = region_spec(RegionId(spec_entry.region, spec_entry.dim))
    split = MassSplit.from_t(
        spec_entry.t_values, moment_spec, compensation=spec_entry.compensation
    )
    return build_rule(moment_spec, split, region_label=spec_entry.region.value)


def write_table_csv(name: str, rule: CubatureRule, path: str | Path) -> None:
    """Write a regenerated table in the reference file format: five ``# key:``
    lines, then :func:`ruleio.dumps_csv` of the rule with a note column that
    is empty but for the published weight of a compensation node."""
    spec_entry = table_spec(name)
    header, *rows = ruleio.dumps_csv(rule).splitlines()
    rows = [f"{row}," for row in rows]
    if spec_entry.published_compensation_weight is not None:
        rows[-1] += f"published={spec_entry.published_compensation_weight}"
    lines = [
        f"# table: {name}",
        f"# region: {spec_entry.region.value}",
        f"# dim: {spec_entry.dim}",
        f"# t: {','.join(spec_entry.t_values)}",
        f"# compensation: {str(spec_entry.compensation).lower()}",
        f"{header},note",
        *rows,
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
