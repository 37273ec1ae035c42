"""Every benchmark module imports: pytest does not collect them, so a broken import would go unseen."""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = sorted((Path(__file__).parents[1] / "benchmarks").glob("bench_*.py"))


def test_benchmark_modules_are_found():
    assert {path.stem for path in BENCHMARKS} >= {"bench_chain", "bench_exactness", "bench_search"}


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda path: path.stem)
def test_benchmark_module_imports(path):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))
