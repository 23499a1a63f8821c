"""One timed pass of one workload, in a fresh interpreter.

run.py starts this once per pass, so no pass reuses imports, caches or
objects left by an earlier one: what a pass measures is what a new CLI
process pays. It writes pass.json (timings, peak memory, the outputs to
check, the host's speed during the pass as calibrate.Ticker measures it
and, when traced, the per-layer metrics) and spans.jsonl into its work
directory. setup_s and wall_s leave out the time the ticker took.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import harmonic_mean

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    ticker = calibrate.Ticker()
    ticker.start()
    t0 = time.perf_counter()  # setup_s counts from here: importing portwalk is set-up
    pw = workloads.load_portwalk(BENCH.parent)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    inputs = wl.setup(pw, args.seed, args.workdir)
    t1, stolen = time.perf_counter(), ticker.stolen
    setup_s = t1 - t0 - stolen

    outputs = wl.answer(pw, inputs, args.workdir)
    wall_s = time.perf_counter() - t1 - (ticker.stolen - stolen)
    ticker.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "host_s": harmonic_mean(ticker.samples) if ticker.samples else None,
              "outputs": outputs}
    if tracer:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(args.workdir / "spans.jsonl")
    (args.workdir / "pass.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
