"""The benchmark's three workloads: inputs, timed questions and checks.

Each workload has four parts. `setup` makes the inputs and `answer` asks
portwalk the timed questions; both run in a fresh interpreter per pass
(worker.py). `expect` computes, once per run in the parent process, what
the answers must be, using the reference code in oracles.py. `check`
compares one pass's outputs with that and returns how many questions
failed, with the reasons. `questions` is fixed by the workload's
definition, never counted from the program.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from random import Random

from oracles import (
    BATTERY,
    diameter,
    graph_problems,
    majority_labeling,
    parse_graph_doc,
    path_ports,
    path_worst_case,
    report_rows,
    trace_problems,
    walk,
)


def load_portwalk(root: Path):
    """Import portwalk from root/src and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    pw = importlib.import_module("portwalk")
    importlib.import_module("portwalk.cli")
    if not Path(pw.__file__).resolve().is_relative_to(src):
        raise ImportError(f"portwalk was imported from {pw.__file__}, not {src}")
    return pw


def _attempt(fn, *args):
    """(result, None) or (None, error text), so a raising question still ends the pass."""
    try:
        return fn(*args), None
    except (Exception, SystemExit) as e:  # SystemExit: argparse rejecting argv
        return None, f"{type(e).__name__}: {e}"


def cubic_expectation(ports, n: int, agent, start: int, bound: int, v_star: int) -> dict:
    """What a cubic-bound check must report for this instance.

    The reference walk either covers, and the cover time is exact, or
    repeats a full state first, which proves it never covers. Its limit
    is the cap the program runs under by default, 4n^3. The bound
    and v*'s visit budget are the paper's: d^2(d-1) and d(d-1).
    """
    d = n // 3
    e = {"bound": d * d * (d - 1), "budget": d * (d - 1), "v_star": v_star,
         "problems": graph_problems(ports, n)}
    if bound != e["bound"]:
        e["problems"].append(f"certified bound {bound} is not d^2(d-1)")
    if not 0 <= v_star < d:
        e["problems"].append(f"v*={v_star} is not a clique node")
    if e["problems"]:
        return e
    w = walk(ports, start, agent, 4 * n ** 3, watch=v_star, horizon=e["bound"])
    e["cover"], e["repeat"], e["visits"] = w.reached, w.repeat, w.watch_visits
    if w.reached is None and w.repeat is None:
        e["problems"].append("reference walk neither covers nor repeats within 4n^3 steps")
    if w.reached is not None and w.reached < e["bound"]:
        e["problems"].append(f"covers at {w.reached}, below the bound {e['bound']}")
    if w.watch_visits > e["budget"]:
        e["problems"].append(f"v* occupied {w.watch_visits} times, over budget")
    return e


def cubic_row_problems(rows, agent: str, n: int, e: dict) -> list[str]:
    if e["problems"]:
        return e["problems"]
    out = []
    vacuous = e["cover"] is None
    want = (str(e["bound"]), "" if vacuous else str(e["cover"]),
            "pass-vacuous" if vacuous else "pass")
    got = rows.get((agent, n, "cover-time"))
    if got != want:
        out.append(f"cover-time row {got}, reference {want}")
    want = (str(e["budget"]), str(e["visits"]), "pass")
    got = rows.get((agent, n, f"v-star-visits;v_star={e['v_star']}"))
    if got != want:
        out.append(f"v-star-visits row {got}, reference {want} at v*={e['v_star']}")
    return out


def _whole_report_problems(rows, count: int) -> list[str]:
    if len(rows) != count + 1 or rows.get(("aggregate", 0, "")) != ("", "", "pass"):
        return [f"report has {len(rows) - 1} rows (want {count}) "
                f"or a failing aggregate {rows.get(('aggregate', 0, ''))}"]
    return []


class CubicBattery:
    """cubic_bound_sweep over the battery at criterion 3's sizes.

    Nearly all its time is simulate.run burning the 4n^3 cap on walks that
    never cover, so engine speed and cycle detection show here first.
    The inputs do not depend on the seed: the construction is a function
    of agent and n alone.
    """

    name = "cubic-battery"
    NS = (18, 21, 30, 60, 90)
    questions = len(BATTERY) * len(NS)  # one per verify_cubic_bound call

    def setup(self, pw, seed, workdir):
        return pw.experiments.battery()

    def answer(self, pw, agents, workdir):
        report, error = _attempt(pw.experiments.cubic_bound_sweep, agents, self.NS)
        return {"report": report and report.to_csv(), "error": error}

    def expect(self, pw, seed):
        agents = pw.experiments.battery()
        out = {}
        for name in BATTERY:
            for n in self.NS:
                inst = pw.adversary.build_cubic_instance(agents[name], n)
                ports = [list(row) for row in inst.graph.port_map]
                out[name, n] = cubic_expectation(ports, n, name, inst.start,
                                                 inst.certified_bound,
                                                 inst.construction_log["v_star"])
        return out

    def check(self, outputs, expected, workdir):
        if outputs["error"]:
            return self.questions, [outputs["error"]]
        rows = report_rows(outputs["report"])
        problems = _whole_report_problems(rows, 2 * self.questions)
        if problems:
            return self.questions, problems
        bad = {key: p for key, e in expected.items()
               if (p := cubic_row_problems(rows, *key, e))}
        return len(bad), [f"{a} n={n}: {p}" for (a, n), ps in bad.items() for p in ps]


class PathExhaustive:
    """Every path labeling for three agents at n = 2..14, plus the
    constructed path for the whole battery at even n = 2..60.

    About 24,700 short walks, so per-call cost (graph building, run set-up,
    the enumeration loop) counts as much as steps/s. always-1 is left out
    of the enumeration: it only burns the cap there, which cubic-battery
    already measures. The inputs do not depend on the seed.
    """

    name = "path-exhaustive"
    BRUTE_AGENTS = ("rotor-router", "alternating-2", "biased-112")
    BRUTE_NS = range(2, 15)
    SWEEP_NS = range(2, 61, 2)
    questions = (len(BRUTE_AGENTS) * sum(2 ** (n - 2) for n in BRUTE_NS)  # labelings
                 + len(BATTERY) * len(SWEEP_NS))  # verify_path_bound calls

    def setup(self, pw, seed, workdir):
        return pw.experiments.battery()

    def answer(self, pw, agents, workdir):
        brute = []
        for name in self.BRUTE_AGENTS:
            for n in self.BRUTE_NS:
                r, error = _attempt(pw.experiments.brute_force_path_worst_case,
                                    agents[name], n)
                brute.append(error or [r.max_steps, r.unstopped, r.labeling and
                                       list(r.labeling.toward_far)])
        report, error = _attempt(pw.experiments.path_bound_sweep, agents, self.SWEEP_NS)
        return {"brute": brute, "report": report and report.to_csv(), "error": error}

    def expect(self, pw, seed):
        brute = []
        for name in self.BRUTE_AGENTS:
            for n in self.BRUTE_NS:
                r = path_worst_case(name, n, cap=4 * n ** 3)
                brute.append([r.max_steps, r.unstopped,
                              None if r.labeling is None else list(r.labeling)])
        sweep = {}
        for name in BATTERY:
            for n in self.SWEEP_NS:
                ports = path_ports(n, majority_labeling(name, n))
                cap = 8 * (n - 1) ** 2 + 8
                reached = walk(ports, n - 1, name, cap, target=0).reached
                # v_n has one port, so crossings of its arc are its occupancies.
                arc = walk(ports, n - 1, name, cap, target=0, watch=n - 1,
                           horizon=reached or cap).watch_visits
                sweep[name, n] = (reached, arc)
        return {"brute": brute, "sweep": sweep}

    def check(self, outputs, expected, workdir):
        failed, problems = 0, []
        pairs = [(a, n) for a in self.BRUTE_AGENTS for n in self.BRUTE_NS]
        for (name, n), got, want in zip(pairs, outputs["brute"], expected["brute"]):
            why = []
            if got != want:
                why.append(f"got {got}, reference enumeration {want}")
            if name == "rotor-router" and want[:2] != [(n - 1) ** 2, 0]:
                why.append(f"worst case {want[:2]} is not [(n-1)^2, 0]")
            if why:
                failed += 2 ** (n - 2)
                problems += [f"brute {name} n={n}: {w}" for w in why]
        sweep_questions = len(BATTERY) * len(self.SWEEP_NS)
        if outputs["error"]:
            return failed + sweep_questions, problems + [outputs["error"]]
        rows = report_rows(outputs["report"])
        whole = _whole_report_problems(rows, 2 * sweep_questions)
        if whole:
            return failed + sweep_questions, problems + whole
        for (name, n), (steps, arc) in expected["sweep"].items():
            bound = (n - 1) ** 2
            why = []
            if steps is not None and (steps < bound or arc < n - 1):
                why.append(f"reference walk {steps} steps, {arc} arc crossings: below bound")
            if name == "rotor-router" and steps != bound:
                why.append(f"rotor-router's constructed path costs {steps}, not (n-1)^2")
            verdict = "pass" if steps is not None else "pass-vacuous"
            want = {"steps-to-target": (str(bound), "" if steps is None else str(steps), verdict),
                    "entry-arc-count": (str(n - 1), str(arc), verdict)}
            for param, row in want.items():
                if rows.get((name, n, param)) != row:
                    why.append(f"{param} row {rows.get((name, n, param))}, reference {row}")
            if why:
                failed += 1
                problems += [f"sweep {name} n={n}: {w}" for w in why]
        return failed, problems


class CliTrace:
    """The CLI in-process: an n=180 cubic instance saved and replayed with
    move recording, seeded random graph documents, the rotor-router's own
    worst-case paths, a scripted agent file and rotor-upper.

    Every walk here finishes, so trace recording, export, parsing,
    diameter and the call-based agent path do the work, not the cap.
    """

    name = "cli-trace"
    RANDOM_NS = (800, 1600, 2500)  # m = 2n
    PATH_NS = (300, 500)
    UPPER = ((500, 1500), (1000, 3000), (1500, 4500))
    CUBIC_N = 180
    MAX_TABLE_DEGREE = 64
    questions = 2 + 2 * len(RANDOM_NS) + len(PATH_NS) + 1  # one per CLI command

    def plan(self, seed: int, workdir: Path) -> dict:
        """Everything the seed decides: graph seeds, the scripted agent's
        tables, and the CLI commands, each with what its check needs."""
        rng = Random(seed)
        w = str(workdir)
        graphs = {n: rng.randrange(2 ** 31) for n in self.RANDOM_NS}
        upper = [(n, m, rng.randrange(2 ** 31)) for n, m in self.UPPER]
        # A rotor-router whose port order is a seeded permutation per degree:
        # it still covers every connected graph, through the call-based path.
        tables = {d: rng.sample(range(1, d + 1), d)
                  for d in range(2, self.MAX_TABLE_DEGREE + 1)}
        script = f"{w}/permuted-rotor.agent.json"
        cmds = [(["adversary-cubic", "--agent", "rotor-router", "--n", str(self.CUBIC_N),
                  "--save-instance", f"{w}/instance", "--out", f"{w}/cubic.csv"],
                 ("cubic",))]
        traces = [("instance", "rotor-router", "rotor-router", 0)]
        for n in self.RANDOM_NS:
            traces.append((f"random-{n}", "rotor-router", "rotor-router", 0))
            traces.append((f"random-{n}", script, "scripted", 0))
        traces += [(f"path-{n}", "rotor-router", "rotor-router", n - 1) for n in self.PATH_NS]
        for doc, agent, rule, start in traces:
            out = f"{doc}.{rule}.trace.csv"
            cmds.append((["simulate", "--graph", f"{w}/{doc}.graph.json", "--agent", agent,
                          "--start", str(start), "--out", f"{w}/{out}"],
                         ("trace", f"{doc}.graph.json", rule, start, out)))
        cases = [a for n, m, s in upper for a in ("--case", f"{n},{m},{s}")]
        cmds.append((["rotor-upper", *cases, "--out", f"{w}/rotor-upper.csv"], ("upper",)))
        return {"graphs": graphs, "upper": upper, "tables": tables, "script": script,
                "commands": cmds}

    def setup(self, pw, seed, workdir):
        plan = self.plan(seed, workdir)
        for n, s in plan["graphs"].items():
            g = pw.graphs.random_connected_graph(n, 2 * n, s)
            (workdir / f"random-{n}.graph.json").write_text(pw.graphs.serialize(g))
        rotor = pw.agents.RotorRouter()
        for n in self.PATH_NS:
            g = pw.graphs.build_path(pw.adversary.worst_case_path_labeling(rotor, n))
            (workdir / f"path-{n}.graph.json").write_text(pw.graphs.serialize(g))
        doc = {"tables": {str(d): t for d, t in plan["tables"].items()}, "extension": "cycle"}
        Path(plan["script"]).write_text(json.dumps(doc))
        return [argv for argv, _ in plan["commands"]]

    def answer(self, pw, commands, workdir):
        return {"commands": [_attempt(pw.cli.main, argv) for argv in commands]}

    def expect(self, pw, seed):
        """The cubic instance and rotor-upper's graphs are built inside the
        commands, so the reference builds them too, as CubicBattery does; the
        other inputs are read back from each pass."""
        plan = self.plan(seed, Path("."))
        upper = {}
        for n, m, s in plan["upper"]:
            ports = [list(r) for r in pw.graphs.random_connected_graph(n, m, s).port_map]
            upper[n, m, s] = (graph_problems(ports, n), diameter(ports),
                              walk(ports, 0, "rotor-router", 4 * n ** 3).reached)
        inst = pw.adversary.build_cubic_instance(pw.experiments.battery()["rotor-router"],
                                                 self.CUBIC_N)
        ports = [list(row) for row in inst.graph.port_map]
        v_star = inst.construction_log["v_star"]
        return {"upper": upper, "kinds": [kind for _, kind in plan["commands"]],
                "tables": {d: tuple(t) for d, t in plan["tables"].items()},
                "instance": (ports, inst.start, inst.certified_bound, v_star),
                "cubic": cubic_expectation(ports, self.CUBIC_N, "rotor-router", inst.start,
                                           inst.certified_bound, v_star)}

    def check(self, outputs, expected, workdir):
        failed, problems = 0, []
        cubic_cover = None
        for kind, (code, error) in zip(expected["kinds"], outputs["commands"]):
            try:
                why = [error] if error else [f"exit code {code}"] if code != 0 else []
                if not why and kind[0] == "cubic":
                    cubic_cover, why = self._check_cubic(workdir, expected)
                elif not why and kind[0] == "trace":
                    why = self._check_trace(workdir, kind, expected["tables"], cubic_cover)
                elif not why:
                    why = self._check_upper(workdir, expected["upper"])
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                why = [f"unreadable output: {type(e).__name__}: {e}"]
            if why:
                failed += 1
                problems += [f"{' '.join(map(str, kind))}: {w}" for w in why]
        return failed, problems

    def _check_cubic(self, workdir, expected):
        """The saved instance must be a sound graph and the very instance the
        reference was computed on; the report must match that reference."""
        ports = parse_graph_doc((workdir / "instance.graph.json").read_text())
        sidecar = json.loads((workdir / "instance.instance.json").read_text())
        why = graph_problems(ports, self.CUBIC_N)
        saved = (ports, sidecar["start"], sidecar["bound"], sidecar["log"]["v_star"])
        if saved != expected["instance"]:
            why.append("saved instance (ports, start, bound, v*) differs from the "
                       "reference construction")
        e = expected["cubic"]
        rows = report_rows((workdir / "cubic.csv").read_text())
        why += _whole_report_problems(rows, 2)
        why += cubic_row_problems(rows, "rotor-router", self.CUBIC_N, e)
        return e.get("cover"), why

    def _check_trace(self, workdir, kind, tables, cubic_cover):
        _, doc, rule, start, out = kind
        ports = parse_graph_doc((workdir / doc).read_text())
        why = graph_problems(ports)
        length = None
        if doc.startswith("instance"):
            length = cubic_cover  # the same walk the cubic report timed
        elif doc.startswith("path-"):
            n = len(ports)
            length = (n - 1) ** 2  # the rotor-router on its worst path: exactly (n-1)^2
            if ports != path_ports(n, majority_labeling("rotor-router", n)):
                why.append("path document is not the majority construction")
        agent = tables if rule == "scripted" else rule
        text = (workdir / out).read_text()
        return why + trace_problems(text, ports, agent, start, length)

    @staticmethod
    def _check_upper(workdir, upper):
        rows = report_rows((workdir / "rotor-upper.csv").read_text())
        why = _whole_report_problems(rows, len(upper))
        for (n, m, s), (bad, dia, cover) in upper.items():
            param = f"m={m};seed={s};D={dia};factor=2"
            got = rows.get(("rotor-router", n, param))
            if bad or got is None or got[1:] != (str(cover), "pass") or cover > 2 * m * dia:
                why.append(f"case {n},{m},{s}: row {got}, reference {param} "
                           f"cover {cover} {bad}")
        return why


WORKLOADS = {w.name: w for w in (CubicBattery(), PathExhaustive(), CliTrace())}
