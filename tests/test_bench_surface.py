"""The benchmark's tracer (bench/spans.py) wraps portwalk functions by name
and reads fields of the traces they return; renaming any of them would
break the traced benchmark, so it fails here first."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from portwalk.simulate import SimulationTrace

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def wrapped_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, name) for layer, names in spans.WRAPPED.items() for name in names]


@pytest.mark.parametrize("layer, name", wrapped_names())
def test_wrapped_function_exists(layer, name):
    module = importlib.import_module(f"portwalk.{layer}")
    assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"


def test_trace_fields_read_by_the_tracer():
    fields = {f.name for f in dataclasses.fields(SimulationTrace)}
    assert {"moves", "steps", "stopped"} <= fields
