"""Layered benchmark of portwalk: end-to-end metrics, or per-layer ones when traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cubic-battery --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

A run computes the reference answers once, then runs timed passes one
after another, each in a fresh single-threaded interpreter (worker.py),
until --seconds have gone by (at least four passes; two of each kind
when traced), and in any case by DEADLINE_S. Every pass's outputs are
checked. Within each pass, calibrate.Ticker times a fixed kernel every
0.1 s; the pass's times are scaled to the host speed at which the kernel
takes calibrate.REFERENCE_S, and the metrics are medians over passes. --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 only when no question failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import calibrate
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEADLINE_S = 170  # every pass of a run ends by then, so the run exits within 180 s
MIN_PASSES = 4


def run_pass(workload: str, seed: int, workdir: Path, traced: bool,
             timeout: float) -> tuple[dict | None, str]:
    workdir.mkdir(parents=True)
    cmd = [sys.executable, "-I", str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"pass exceeded {timeout:.0f} s"
    result = workdir / "pass.json"
    if proc.returncode != 0 or not result.exists():
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(result.read_text()), ""


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    wl = workloads.WORKLOADS[name]
    rundir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    start = time.perf_counter()
    expected = wl.expect(workloads.load_portwalk(ROOT), seed)
    passes, attempted, failed = run_passes(wl, seed, seconds, trace, rundir, start, expected)

    def scaled(p: dict, key: str) -> float:
        return p[key] * p["scale"]

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        traced_runs = passes[True]
        # Times scale like wall_s, rates inversely; counts stay as counted.
        power = {"s": 1, "1/s": -1}
        metrics = {k: median(p["layers"][k] * p["scale"] ** power.get(u, 0)
                             for p in traced_runs)
                   for k, u in units.items() if traced_runs and k in traced_runs[0]["layers"]}
        if traced_runs and passes[False]:
            metrics["trace.overhead_s"] = (median(scaled(p, "wall_s") for p in traced_runs)
                                           - median(scaled(p, "wall_s") for p in passes[False]))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        plain = passes[False]
        metrics = {}
        if plain:
            wall = median(scaled(p, "wall_s") for p in plain)
            metrics = {"setup_s": median(scaled(p, "setup_s") for p in plain),
                       "wall_s": wall,
                       "walks_per_s": wl.questions / wall,
                       "peak_rss_mb": median(p["peak_rss_mb"] for p in plain)}
    if set(metrics) != set(units):
        failed = attempted  # a metric the benchmark promises was not measured
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                          if k in units}}
    (rundir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def run_passes(wl, seed: int, seconds: float, trace: bool, rundir: Path, start: float,
               expected) -> tuple[dict[bool, list[dict]], int, int]:
    """Run and check passes until the run's time is up. Each pass that
    returned a result gets scale, REFERENCE_S over the median kernel time
    during it."""
    kinds = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    durations = []
    log = []  # per-pass figures, written next to the result for inspection
    while True:
        done = len(log)  # passes attempted, whether or not they returned a result
        elapsed = time.perf_counter() - start
        if done:
            ahead = elapsed + median(durations)  # when the next pass would end
            # A failed run need not reach MIN_PASSES: its verdict is already known.
            if ahead > DEADLINE_S or ahead > seconds and (done >= MIN_PASSES or failed):
                break
        traced = kinds[done % len(kinds)]
        t = time.perf_counter()
        workdir = rundir / f"pass{done}"
        result, error = run_pass(wl.name, seed, workdir, traced, max(DEADLINE_S - elapsed, 1))
        attempted += wl.questions
        if result is None:
            failed += wl.questions
            problems = [error]
        else:
            bad, problems = wl.check(result["outputs"], expected, workdir)
            if result["host_s"] is None:
                bad, problems = wl.questions, problems + ["no host-speed sample during the pass"]
            else:
                result["scale"] = calibrate.REFERENCE_S / result["host_s"]
                passes[traced].append(result)
            failed += bad
        for p in problems[:20]:
            print(f"FAILED {wl.name} pass {done}: {p}", file=sys.stderr)
        if traced and result:
            shutil.move(workdir / "spans.jsonl", rundir / f"spans-pass{done}.jsonl")
        shutil.rmtree(workdir)
        durations.append(time.perf_counter() - t)
        log.append({"pass": done, "traced": traced, "failed": len(problems) > 0,
                    "seconds": durations[-1],
                    **{k: result[k] for k in ("setup_s", "wall_s", "peak_rss_mb",
                                              "host_s", "scale")
                       if result and k in result}})
        (rundir / "passes.json").write_text(json.dumps(log, indent=1) + "\n")
    return passes, attempted, failed


def print_table(name: str, result: dict, trace: bool) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {name}: {kind} metrics; walk questions attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for key, m in result["metrics"].items():
        print(f"  {key:<52} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "portwalk" / "__init__.py").is_file():
        print(f"error: no portwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {', '.join(names)} or all")

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print_table(args.workload, result, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (False, True):
            result = run_workload(name, args.seed, args.seconds, trace, spec)
            print_table(name, result, trace)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
