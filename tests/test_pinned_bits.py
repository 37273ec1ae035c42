"""The bits the build produces, pinned row by row.

Each `build` row is an 8-byte blake2b digest of what one (region, n)
builds for seven mass splits: the node and weight bytes and the metadata
of each rule, or the type and message of the error the spec or the split
raises.  The `tables` rows pin the bytes of each CSV file `symcub tables`
writes, and the `search` rows the results of `search_masses` for each
region and mode at n = 2 .. 8, with and without compensation.  A change
that moves any of these bits fails the test, which names the rows that
moved.

The digests are data, in `pinned_bits.txt` next to this file.  Updating
them is a deliberate act; after a change that is meant to move bits,
rewrite the file and name the rows that moved:

    PYTHONPATH=src python tests/test_pinned_bits.py > tests/pinned_bits.txt

The build uses only IEEE arithmetic, square roots, math.fsum and integer
sums, which round the same on every platform.  The lognormal split is
drawn with Python's own generator and rounded to a grid of 2^-20, so a
last-bit difference in a platform's exp or log moves no mass.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from symcub import MassSplit, Region, RegionId, build_rule, region_spec
from symcub.cli import main
from symcub.errors import CubatureError
from symcub.reference import numbered_table_names
from symcub.search import SearchMode, SearchObjective, search_masses

DATA = Path(__file__).with_name("pinned_bits.txt")
DIMS = (*range(2, 40), 48, 64, 100, 128, 160, 200, 256, 320, 512)
SEARCH_DIMS = range(2, 9)


def _digest(parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _rule_parts(rule):
    return (
        rule.nodes.shape,
        rule.nodes.astype("<f8").tobytes(),
        rule.weights.astype("<f8").tobytes(),
        json.dumps(rule.metadata),
    )


def _lognormal_t(n: int) -> list[float]:
    rng = random.Random(n)
    return [round(math.exp(0.1 * rng.gauss(0.0, 1.0)) * 2**20) / 2**20 for _ in range(n)]


def _splits(spec):
    """Uniform, compensated, seeded lognormal, one mass 2^10 x the rest
    (compensated), short, unbalanced and tiny (compensated)."""
    n, m_1 = spec.n, spec.m_1
    uniform = (m_1 / n,) * n
    t = _lognormal_t(n)
    total = math.fsum(t)
    return (
        None,
        MassSplit(uniform, compensation=True),
        MassSplit([tk * m_1 / total for tk in t]),
        MassSplit([2.0**10 * uniform[0], *uniform[1:]], compensation=True),
        MassSplit(uniform[1:]),
        MassSplit([1.5 * mu for mu in uniform]),
        MassSplit([2.0**-20 * mu for mu in uniform], compensation=True),
    )


def _build_row(region: Region, n: int) -> str:
    try:
        spec = region_spec(RegionId(region, n))
    except CubatureError as exc:
        return _digest([_error(exc)])
    parts = []
    for split in _splits(spec):
        try:
            parts += _rule_parts(build_rule(spec, split, region_label=region.value))
        except CubatureError as exc:
            parts.append(_error(exc))
    return _digest(parts)


def _search_row(region: Region, mode: SearchMode) -> str:
    parts = []
    for n in SEARCH_DIMS:
        rid = RegionId(region, n)
        for compensation in (False, True):
            result = search_masses(region_spec(rid), rid, SearchObjective(mode, compensation))
            parts += [result.satisfied, result.message, result.evaluations, result.score]
            if result.split is not None:
                parts += [result.split.masses, result.split.compensation]
            if result.rule is not None:
                parts += _rule_parts(result.rule)
    return _digest(parts)


def pinned_rows(out_dir: Path) -> dict[str, str]:
    """Every row's digest; `symcub tables` writes its CSV files into `out_dir`."""
    rows = {f"build:{region.value}:{n}": _build_row(region, n) for region in Region for n in DIMS}
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(["tables", "--output-dir", str(out_dir)])
    for name in numbered_table_names():
        rows[f"tables:{name}"] = _digest([(out_dir / f"{name}.csv").read_bytes()])
    rows["tables:status"] = _digest([status])
    for region in Region:
        for mode in SearchMode:
            rows[f"search:{region.value}:{mode.value}"] = _search_row(region, mode)
    return rows


def test_build_search_and_tables_bits_are_pinned(tmp_path):
    pinned = dict(line.split() for line in DATA.read_text().splitlines())
    rows = pinned_rows(tmp_path)
    moved = [name for name in {**pinned, **rows} if pinned.get(name) != rows.get(name)]
    assert not moved, f"rows that differ from {DATA.name}: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out_dir:
        for name, digest in pinned_rows(Path(out_dir)).items():
            sys.stdout.write(f"{name} {digest}\n")
