"""Load a module of the benchmark, bench/<name>.py, by its path.

bench/ is not a package. bench/oracles.py imports only the standard
library (tests/test_bench_surface.py checks that), so the tests use it as
the one referee for periodic agents: run() and its recorded traces, the
path enumeration and the diameter are checked against it, and a graph
goes in as its serialized document. Agents that raise, which it cannot
model, are checked against test_experiments.reference_enumeration.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    """bench/<name>.py as the module bench_<name>, executed once."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]
