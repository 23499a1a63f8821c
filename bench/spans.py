"""Spans around calls into portwalk's public functions, and the per-layer
metrics computed from them.

The tracer wraps functions from outside: it replaces every module
attribute that is the original function object, so calls between
portwalk's own modules (which import each other's functions by name) pass
through the wrapper too. Each call records (name, parent span, start, end)
plus counts read from its arguments and result after the clock stops.
Agents' `outport` is deliberately not wrapped: it runs once per step, and
a wrapper there would swamp the engine it is meant to observe.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

WRAPPED = {
    "graphs": ("build_path", "build_clique_pendant", "replace_pendant_with_path",
               "random_connected_graph", "serialize", "deserialize", "diameter"),
    "agents": ("load_agent_script",),
    "simulate": ("run", "export_trace"),
    "adversary": ("rare_port", "build_cubic_instance", "verify_cubic_bound",
                  "worst_case_path_labeling", "verify_path_bound", "export_instance"),
    "experiments": ("brute_force_path_worst_case", "cubic_bound_sweep",
                    "path_bound_sweep", "rotor_upper_bound_sweep"),
    "cli": ("main",),
}
BUILDERS = ("graphs.build_path", "graphs.build_clique_pendant",
            "graphs.replace_pendant_with_path")
# Stages whose walks `<stage>.run_steps` attributes to the nearest enclosing one.
RUN_CALLERS = ("adversary.build_cubic_instance", "adversary.verify_cubic_bound",
               "adversary.verify_path_bound",
               "experiments.brute_force_path_worst_case", "cli.main")


def _run_counts(args, kwargs, trace):
    recorded = 0 if trace.moves is None else len(trace.moves)
    return {"steps": trace.steps, "stopped": trace.stopped, "recorded": recorded}


# Counters run inside the enclosing span, so each must cost next to nothing.
# Trace and graph documents are ASCII, so their length is their size in bytes.
def _text_out(args, kwargs, text):
    return {"bytes": len(text)}


def _text_in(args, kwargs, graph):
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text)}


def _labelings(args, kwargs, result):
    return {"labelings": 2 ** max(result.n - 2, 0)}


def _cli_out(args, kwargs, code):
    argv = list(args[0] if args else kwargs["argv"])
    files = []
    for flag, suffixes in (("--out", ("",)),
                           ("--save-instance", (".graph.json", ".instance.json"))):
        if flag in argv:
            files += [argv[argv.index(flag) + 1] + s for s in suffixes]
    return {"out_bytes": sum(os.path.getsize(f) for f in files if os.path.exists(f))}


COUNTERS = {
    "simulate.run": _run_counts,
    "simulate.export_trace": _text_out,
    "graphs.deserialize": _text_in,
    "experiments.brute_force_path_worst_case": _labelings,
    "cli.main": _cli_out,
}


class Tracer:
    """In-memory span recorder; install() once, after importing portwalk."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent id, start, end, counts]
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "portwalk") -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == package or k.startswith(package + ".")]
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"{package}.{layer}"]
            for fname in names:
                orig = getattr(mod, fname)
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, orig, COUNTERS.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for sid, (name, parent, t0, t1, counts) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": t0, "end": t1, **(counts or {})}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        sums: dict[str, float] = defaultdict(float)
        for sid, (name, parent, t0, t1, counts) in enumerate(spans):
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[sid]
            for key, value in (counts or {}).items():
                sums[f"{name}.{key}"] += value
            if name == "simulate.run" and counts:
                if not counts["stopped"]:
                    sums["run.cap_hits"] += 1
                    sums["run.cap_steps"] += counts["steps"]
                p = parent
                while p >= 0 and spans[p][0] not in RUN_CALLERS:
                    p = spans[p][1]
                if p >= 0:
                    sums[f"{spans[p][0]}.run_steps"] += counts["steps"]

        run_s, steps = total["simulate.run"], sums["simulate.run.steps"]
        brute = "experiments.brute_force_path_worst_case"
        out = {
            "simulate.run.calls": calls["simulate.run"],
            "simulate.run.s": run_s,
            "simulate.run.steps": steps,
            "simulate.run.steps_per_s": steps / run_s if run_s else 0.0,
            "simulate.run.cap_hits": sums["run.cap_hits"],
            "simulate.run.cap_steps": sums["run.cap_steps"],
            "simulate.run.useful_frac": 1 - sums["run.cap_steps"] / steps if steps else 1.0,
            "simulate.run.recorded_steps": sums["simulate.run.recorded"],
            "simulate.export_trace.s": total["simulate.export_trace"],
            "simulate.export_trace.bytes": sums["simulate.export_trace.bytes"],
            "graphs.build.calls": sum(calls[b] for b in BUILDERS),
            "graphs.build.s": sum(total[b] for b in BUILDERS),
            "graphs.deserialize.s": total["graphs.deserialize"],
            "graphs.deserialize.bytes": sums["graphs.deserialize.bytes"],
            "graphs.diameter.s": total["graphs.diameter"],
            "graphs.random_connected_graph.s": total["graphs.random_connected_graph"],
            "graphs.serialize.s": total["graphs.serialize"],
            "agents.load_agent_script.calls": calls["agents.load_agent_script"],
            "agents.load_agent_script.s": total["agents.load_agent_script"],
            "adversary.rare_port.s": total["adversary.rare_port"],
            "adversary.build_cubic_instance.self_s": own["adversary.build_cubic_instance"],
            "adversary.verify_cubic_bound.calls": calls["adversary.verify_cubic_bound"],
            "adversary.verify_cubic_bound.self_s": own["adversary.verify_cubic_bound"],
            "adversary.worst_case_path_labeling.s": total["adversary.worst_case_path_labeling"],
            "adversary.verify_path_bound.calls": calls["adversary.verify_path_bound"],
            "adversary.verify_path_bound.self_s": own["adversary.verify_path_bound"],
            "adversary.export_instance.s": total["adversary.export_instance"],
            f"{brute}.calls": calls[brute],
            f"{brute}.self_s": own[brute],
            f"{brute}.labelings": sums[f"{brute}.labelings"],
            f"{brute}.labelings_per_s":
                sums[f"{brute}.labelings"] / total[brute] if total[brute] else 0.0,
            "experiments.cubic_bound_sweep.self_s": own["experiments.cubic_bound_sweep"],
            "experiments.path_bound_sweep.self_s": own["experiments.path_bound_sweep"],
            "experiments.rotor_upper_bound_sweep.self_s":
                own["experiments.rotor_upper_bound_sweep"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": own["cli.main"],
            "cli.main.out_bytes": sums["cli.main.out_bytes"],
        }
        for caller in RUN_CALLERS:
            out[f"{caller}.run_steps"] = sums[f"{caller}.run_steps"]
        return out
