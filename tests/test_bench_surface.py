"""The benchmark (bench/spans.py, bench/workloads.py) wraps portwalk
functions by name, calls them with fixed argument shapes and reads fields
of what they return; a rename or signature change that would break it
fails here first. bench/oracles.py, the tests' referee, stays free of
portwalk."""

import ast
import importlib
import inspect
import sys

import pytest

from bench_modules import BENCH, load
from portwalk.adversary import AdversarialInstance
from portwalk.experiments import BruteForceResult, ExperimentReport
from portwalk.graphs import PathLabeling
from portwalk.simulate import SimulationTrace

# (module, function, positional args, keyword args) for every call shape
# the workloads make, plus the keywords the tracer's counters look up.
CALLS = [
    ("experiments", "battery", (), {}),
    ("experiments", "cubic_bound_sweep", ("agents", "n_values"), {}),
    ("experiments", "path_bound_sweep", ("agents", "n_values"), {}),
    ("experiments", "brute_force_path_worst_case", ("agent", "n"), {}),
    ("adversary", "build_cubic_instance", ("agent", "n"), {}),
    ("adversary", "worst_case_path_labeling", ("agent", "n"), {}),
    ("graphs", "random_connected_graph", ("n", "m", "seed"), {}),
    ("graphs", "serialize", ("g",), {}),
    ("graphs", "build_path", ("labeling",), {}),
    ("graphs", "deserialize", (), {"text": "doc"}),
    ("agents", "RotorRouter", (), {}),
    ("cli", "main", ("argv",), {}),
    ("cli", "main", (), {"argv": "argv"}),
]


def wrapped_names() -> list[tuple[str, str]]:
    return [(layer, name) for layer, names in load("spans").WRAPPED.items()
            for name in names]


@pytest.mark.parametrize("layer, name", wrapped_names())
def test_wrapped_function_exists(layer, name):
    module = importlib.import_module(f"portwalk.{layer}")
    assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"


@pytest.mark.parametrize("layer, name, args, kwargs", CALLS)
def test_call_shape_binds(layer, name, args, kwargs):
    fn = getattr(importlib.import_module(f"portwalk.{layer}"), name)
    inspect.signature(fn).bind(*args, **kwargs)


def fields(cls) -> set[str]:
    return set(cls._fields)


def test_trace_fields_read_by_the_tracer():
    assert {"moves", "steps", "stopped"} <= fields(SimulationTrace)


def test_result_fields_read_by_the_workloads():
    assert {"graph", "start", "certified_bound", "construction_log"} <= fields(
        AdversarialInstance)
    assert {"n", "max_steps", "unstopped", "labeling"} <= fields(BruteForceResult)
    assert "toward_far" in fields(PathLabeling)
    assert callable(ExperimentReport.to_csv)


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules the source imports, a relative import
    as its leading dots, and "__import__" for a call of that builtin."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            out.add("." * node.level + (node.module or "").partition(".")[0])
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "__import__":
            out.add("__import__")
    return out


def test_oracles_share_no_code_with_the_package():
    # The tests check portwalk against bench/oracles.py, so it may import
    # only the standard library, less importlib: nothing under src/, and no
    # module (bench's own included) that could import from there.
    package = {p.stem for p in (BENCH.parent / "src").iterdir()}
    imported = imported_modules((BENCH / "oracles.py").read_text())
    assert not imported & package
    assert imported <= set(sys.stdlib_module_names) - {"importlib"}
