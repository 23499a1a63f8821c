"""In-process steps/s of simulate.run, by mode.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/engine_rate.py

Walks the rotor-router for STEPS steps on the n = 90 cubic
instance built against it, in three modes: counters-only
(record_moves=False), recorded, and counters-only as the whiteboard
rotor-router, an agent whose ports(d) is an iterator. Prints one JSON
object: per mode, the median steps/s over REPEATS runs, and every
repeat's. Times are wall-clock on this interpreter, unscaled.
"""

from __future__ import annotations

import json
import time
from statistics import median

from portwalk.adversary import build_cubic_instance
from portwalk.agents import RotorRouter, whiteboard_rotor_router
from portwalk.simulate import run

STEPS = 1_000_000
REPEATS = 3
MODES = {
    "counters_only_cycle": (RotorRouter(), False),
    "recorded_cycle": (RotorRouter(), True),
    "counters_only_whiteboard": (whiteboard_rotor_router(), False),
}


def main() -> None:
    inst = build_cubic_instance(RotorRouter(), 90)
    out = {}
    for mode, (agent, record) in MODES.items():
        rates = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            t = run(inst.graph, agent, inst.start, ("steps", STEPS), record_moves=record)
            rates.append(t.steps / (time.perf_counter() - t0))
            del t
        out[mode] = {"median_steps_per_s": median(rates), "steps_per_s": rates}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
