"""In-process rates of the walk engine and the trace path, by mode.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/engine_rate.py

Walks the rotor-router for STEPS steps on the n = 90 cubic
instance built against it, in three modes: counters-only
(record_moves=False), recorded, and counters-only as the whiteboard
rotor-router, an agent whose ports(d) is an iterator. counters_only_capped
walks biased-112 for STEPS steps on its own n = 90 instance, which it
never covers: the shape of the walks that run out the 4n^3 cap, where
a few nodes are left again and again. counters_only_continued takes
that walk, paused untimed after STEPS steps, on for STEPS more through
simulate._run, as verify_cubic_bound continues its head walk; no
benchmark span counts that call. first_visits_per_s
times the rotor-router covering a seeded DOC_N-node graph with m = 2n,
recorded and counters-only, where first visits take much of the time.
Three more modes time the trace path's layers: export_rows_per_s exports
the recorded walk with export_trace, simulate_rows_per_s records the
rotor-router's worst PATH_N-node path walk and exports it, PATH_WALKS
times, per row, as `portwalk simulate` does, and deserialize_docs_per_s
parses DOCS copies of the random graph's document. Work can move between
the recorded walk and export_trace, so export_rows_per_s alone can
overstate a change to the trace path; simulate_rows_per_s counts both.
import_s is the time a fresh `python -I -S` child, with the same portwalk
first on its path, takes to import portwalk and portwalk.cli, as the
child itself times it: the set-up a CLI process pays before its work.

The host's speed drifts by up to 2x between runs, so each repeat is
scaled as bench/run.py scales a pass: bench/calibrate.kernel() is timed
just before and just after it, and the rate is multiplied by the
harmonic mean of those two times over calibrate.REFERENCE_S. That gives
the rate at the speed of the host the benchmark was calibrated on.
Prints one JSON object: per mode, the median scaled rate over REPEATS
runs, every repeat's scaled rate, and the kernel times beside them (for
import_s, scaled seconds); its python field is the interpreter's version,
since the engine's rates depend on it.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import harmonic_mean, median

import portwalk
from portwalk.adversary import build_cubic_instance, worst_case_path_labeling
from portwalk.agents import CyclicAgent, RotorRouter, whiteboard_rotor_router
from portwalk.graphs import build_path, deserialize, random_connected_graph, serialize
from portwalk.simulate import _run, export_trace, run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import calibrate  # noqa: E402

STEPS = 1_000_000
REPEATS = 3
DOC_N = 2500
DOCS = 50
PATH_N = 500
PATH_WALKS = 4
MODES = {
    "counters_only_cycle": (RotorRouter(), False),
    "recorded_cycle": (RotorRouter(), True),
    "counters_only_whiteboard": (whiteboard_rotor_router(), False),
}
CAPPED = CyclicAgent((1, 1, 2), name="biased-112")
IMPORT = ("import sys, time; sys.path.insert(0, {src!r}); t0 = time.perf_counter(); "
          "import portwalk, portwalk.cli; print(time.perf_counter() - t0)")


def kernel_s() -> float:
    """Seconds one calibrate.kernel() takes now."""
    t0 = time.perf_counter()
    calibrate.kernel()
    return time.perf_counter() - t0


def rates(work, units: int, unit: str) -> dict:
    """Scaled rates of work(), which does `units` units of work per call."""
    got, kernels = [], []
    for _ in range(REPEATS):
        before = kernel_s()
        t0 = time.perf_counter()
        work()
        elapsed = time.perf_counter() - t0
        kernels.append(harmonic_mean([before, kernel_s()]))
        got.append(units / elapsed * kernels[-1] / calibrate.REFERENCE_S)
    return {f"median_{unit}_per_s": median(got), f"{unit}_per_s": got, "kernel_s": kernels}


def import_s() -> dict:
    """Scaled seconds of IMPORT, each timed by a fresh child of this interpreter."""
    code = IMPORT.format(src=str(Path(portwalk.__file__).resolve().parents[1]))
    got, kernels = [], []
    for _ in range(REPEATS):
        before = kernel_s()
        child = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                               text=True, check=True)
        kernels.append(harmonic_mean([before, kernel_s()]))
        got.append(float(child.stdout) * calibrate.REFERENCE_S / kernels[-1])
    return {"median_s": median(got), "s": got, "kernel_s": kernels}


def main() -> None:
    out = {"python": platform.python_version(), "import_s": import_s()}
    inst = build_cubic_instance(RotorRouter(), 90)
    for mode, (agent, record) in MODES.items():
        out[mode] = rates(lambda: run(inst.graph, agent, inst.start, ("steps", STEPS),
                                      record_moves=record), STEPS, "steps")
    capped = build_cubic_instance(CAPPED, 90)
    out["counters_only_capped"] = rates(lambda: run(
        capped.graph, CAPPED, capped.start, ("steps", STEPS), record_moves=False), STEPS, "steps")
    head = run(capped.graph, CAPPED, capped.start, ("steps", STEPS), record_moves=False)
    out["counters_only_continued"] = rates(lambda: _run(
        capped.graph, CAPPED, capped.start, ("steps", 2 * STEPS), None, False, head), STEPS, "steps")
    g = random_connected_graph(DOC_N, 2 * DOC_N, seed=1)
    out["first_visits_per_s"] = {
        name: rates(lambda: run(g, RotorRouter(), 0, "covered", record_moves=record),
                    DOC_N, "first_visits")
        for name, record in (("recorded", True), ("counters_only", False))}
    recorded = run(inst.graph, RotorRouter(), inst.start, ("steps", STEPS))
    out["export_rows_per_s"] = rates(lambda: export_trace(recorded), STEPS, "rows")
    path = build_path(worst_case_path_labeling(RotorRouter(), PATH_N))
    out["simulate_rows_per_s"] = rates(lambda: [
        export_trace(run(path, RotorRouter(), PATH_N - 1, ("target", 0)))
        for _ in range(PATH_WALKS)], PATH_WALKS * (PATH_N - 1) ** 2, "rows")
    doc = serialize(g)
    out["deserialize_docs_per_s"] = rates(
        lambda: [deserialize(doc) for _ in range(DOCS)], DOCS, "docs")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
