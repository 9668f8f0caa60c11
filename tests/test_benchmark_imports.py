"""The benchmark's modules import every name they use from prepotential.

The benchmark in perfbench/ imports the program by name. A rename or
removal in prepotential breaks the benchmark without breaking any other
test, so this test imports the benchmark's modules the way it runs them,
with perfbench/ on sys.path.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCHMARK_MODULES = ("generate", "reference", "tracing")


@pytest.fixture
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in BENCHMARK_MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", BENCHMARK_MODULES)
def test_benchmark_module_imports(perfbench_on_path, name):
    importlib.import_module(name)
