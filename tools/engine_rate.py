"""In-process rates of the walk engine and the trace path, by mode.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/engine_rate.py

Walks the rotor-router for STEPS steps on the n = 90 cubic
instance built against it, in three modes: counters-only
(record_moves=False), recorded, and counters-only as the whiteboard
rotor-router, an agent whose ports(d) is an iterator. Two more modes
time the trace path's layers: export_rows_per_s exports that recorded
walk with export_trace, and deserialize_docs_per_s parses DOCS copies of
the document of a seeded DOC_N-node graph with m = 2n. Prints one JSON
object: per mode, the median rate over REPEATS runs, and every repeat's.
Times are wall-clock on this interpreter, unscaled.
"""

from __future__ import annotations

import json
import time
from statistics import median

from portwalk.adversary import build_cubic_instance
from portwalk.agents import RotorRouter, whiteboard_rotor_router
from portwalk.graphs import deserialize, random_connected_graph, serialize
from portwalk.simulate import export_trace, run

STEPS = 1_000_000
REPEATS = 3
DOC_N = 2500
DOCS = 50
MODES = {
    "counters_only_cycle": (RotorRouter(), False),
    "recorded_cycle": (RotorRouter(), True),
    "counters_only_whiteboard": (whiteboard_rotor_router(), False),
}


def rates(work, units: int, unit: str) -> dict:
    """Rates of work(), which does `units` units of work per call."""
    got = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        work()
        got.append(units / (time.perf_counter() - t0))
    return {f"median_{unit}_per_s": median(got), f"{unit}_per_s": got}


def main() -> None:
    inst = build_cubic_instance(RotorRouter(), 90)
    out = {}
    for mode, (agent, record) in MODES.items():
        out[mode] = rates(lambda: run(inst.graph, agent, inst.start, ("steps", STEPS),
                                      record_moves=record), STEPS, "steps")
    recorded = run(inst.graph, RotorRouter(), inst.start, ("steps", STEPS))
    out["export_rows_per_s"] = rates(lambda: export_trace(recorded), STEPS, "rows")
    doc = serialize(random_connected_graph(DOC_N, 2 * DOC_N, seed=1))
    out["deserialize_docs_per_s"] = rates(
        lambda: [deserialize(doc) for _ in range(DOCS)], DOCS, "docs")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
