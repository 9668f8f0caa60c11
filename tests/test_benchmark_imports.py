"""The benchmark's modules import every name they use from prepotential.

The benchmark in perfbench/ imports the program by name. A rename or
removal in prepotential breaks the benchmark without breaking any other
test, so this test imports the benchmark's modules the way it runs them,
with perfbench/ on sys.path.
"""

import importlib
import json
import math
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


@pytest.mark.parametrize("workload, command", [
    ("grid-rest", "field-grid"),
    ("grid-moving", "field-grid"),
    ("loops", "loop-phase"),
    ("verify", "verify"),
])
def test_traced_pass_and_layer_metrics(perfbench_on_path, tmp_path, workload, command):
    # the traced rebuilds call the program's public functions (grid points,
    # a wrapped ScalarField.delta under second_partials, zeta_at, the
    # retarded solver) the way --trace 1 does, on a reduced scenario
    generate = importlib.import_module("generate")
    tracing = importlib.import_module("tracing")
    doc, side = generate.generate(workload, 7, 0, 0.2)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    tr = tracing.Tracer()
    passes = [tracing.traced_pass(tr, command, path, tmp_path / "traced.csv",
                                  side.get("seed"))]
    metrics = tracing.layer_metrics(tr, command, passes)
    assert metrics
    assert all(math.isfinite(v) for v in metrics.values())


def test_family_names_agree(perfbench_on_path):
    # the verify families are named in three places: the scenario schema,
    # the verify dispatch table and the benchmark's verify workload; a
    # family named in only one of them would be rejected by scenario
    # parsing or skipped by the benchmark
    from prepotential import scenario, verify

    generate = importlib.import_module("generate")
    assert tuple(verify._CHECK_FUNCTIONS) == scenario.CHECK_NAMES
    assert generate.CHECK_NAMES == scenario.CHECK_NAMES
