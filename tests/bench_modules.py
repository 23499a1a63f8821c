"""Load a module of the benchmark, bench/<name>.py, by its path.

bench/ is not a package. Its oracles import nothing from portwalk, so the
tests use bench/oracles.py as a referee that shares no code with what it
checks.
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
