"""Experiment drivers: brute-force oracles, bound sweeps, report emission.

Reports are flat rows (experiment, agent, n, param, bound, measured,
verdict) with an aggregate verdict that is "pass" exactly when no row
failed; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .agents import CyclicAgent, PortFunction, RotorRouter, port_sequence
from .adversary import (
    CubicBoundReport,
    PathBoundReport,
    verify_cubic_bound,
    verify_path_bound,
)
from .errors import InvalidLimitError, InvalidSizeError, whole
from .graphs import PathLabeling, build_path, diameter, random_connected_graph
from .simulate import _cap, run


def battery() -> dict[str, PortFunction]:
    """The fixed agent set every universal claim is exercised against.

    The rotor-router plus three adversarial-ish fixed patterns; pattern
    agents answer at every degree by folding entries into range, so they
    survive the clique construction's high-degree queries.
    """
    return {
        "rotor-router": RotorRouter(),
        "always-1": CyclicAgent((1,), name="always-1"),
        "alternating-2": CyclicAgent((2, 1), name="alternating-2"),
        "biased-112": CyclicAgent((1, 1, 2), name="biased-112"),
    }


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    agent: str
    n: int
    param: str
    bound: str
    measured: str
    verdict: str


@dataclass
class ExperimentReport:
    """Ordered result rows plus the aggregate verdict."""

    experiment: str
    params: dict
    rows: list[ReportRow] = field(default_factory=list)

    @property
    def aggregate(self) -> str:
        return "pass" if all(r.verdict != "fail" for r in self.rows) else "fail"

    @property
    def passed(self) -> bool:
        return self.aggregate == "pass"

    def to_csv(self) -> str:
        """The rows under a header, then the aggregate row; a field holding
        a comma, a quote or a line break is quoted, as csv.writer does."""
        import csv  # here, not at the top: only reports need it, and it slows import

        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["experiment", "agent", "n", "param", "bound", "measured", "verdict"])
        w.writerows(vars(r).values() for r in self.rows)
        w.writerow(["aggregate", "", "", "", "", "", self.aggregate])
        return out.getvalue()

    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "params": self.params,
            "rows": [vars(r) for r in self.rows],
            "aggregate": self.aggregate,
        }
        return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class BruteForceResult:
    """Exhaustive worst case over all path labelings for one agent.

    max_steps / labeling describe the labeling maximizing the finite
    steps-to-target; unstopped counts labelings whose run never reached
    the target within the cap (their cost is unbounded as far as the
    enumeration can tell).
    """

    n: int
    max_steps: int | None
    labeling: PathLabeling | None
    unstopped: int


class _Row:
    """Successor row of one node over a non-cycle port sequence.

    Entry i is the neighbour behind port_d(i) = ports[i - 1], as in the
    rotated rows _successors builds for cycles; ports is read in order.
    """

    def __init__(self, row: tuple, ports: Sequence[int]):
        self.row, self.ports = row, ports

    def __getitem__(self, i: int):
        return self.row[self.ports[i - 1] - 1]


def _successors(row: tuple, ports: Sequence[int]) -> Sequence:
    """The neighbour in row behind each visit index's port, over one period.

    Entry c % P is the one behind port_d(c), P = len(ports): the period
    is rotated by one, so visit index P reads entry 0 rather than -1, as
    a negative list index leaves CPython's specialized subscript. A list
    for a cycle (a tuple), a _Row otherwise.
    """
    if isinstance(ports, tuple):
        return [row[q - 1] for q in ports[-1:] + ports[:-1]]
    return _Row(row, ports)


def brute_force_path_worst_case(agent: PortFunction, n: int,
                                cap: int | None = None) -> BruteForceResult:
    """Try every one of the 2^(n-2) path labelings and keep the worst.

    Independent of the majority construction: the agent walks from v_n
    until it first visits v_1, with cap (default 4n^3) bounding each walk
    as in run(). Refuses n > 14 where the enumeration stops being
    desk-scale.

    The labelings are enumerated depth-first on shared walk prefixes. A
    walk from v_n reaches v_i before any of v_(i-1)..v_1, so up to its
    first arrival at v_i it depends only on the labels of v_(i+1)..v_(n-1).
    There the search branches on v_i's label and each branch continues
    from a copy of the walk state. It steps on successor rows that
    _successors builds over build_path's rows of the all-1 and all-2
    labelings, and the branch sets v_i's row to the one for its label.
    These are plain rows indexed by visit count, not run()'s per-node
    iterators, because a branch copies the walk state and copying
    itertools objects is deprecated since Python 3.12. A branch that hits the cap
    before its next new node v_(i-1) counts all 2^(i-2) labelings below it
    as unstopped at once. Among labelings of equal worst cost the result
    keeps the lexicographically smallest toward_far (the first in the
    order of itertools.product((1, 2), ...)). If some walks raise, the
    error raised is that of the first such labeling in the same order.
    An agent whose ports(d) is an iterator is advanced once per index
    that some walk reaches.
    """
    whole(n, "n", InvalidSizeError, 2, 14)
    cap = _cap(cap, n)
    # Node v_k has id k - 1. succ[l - 1][v] is v's successor row when
    # label[v], its toward_far, is l: v's row in the all-l path.
    paths = [build_path(PathLabeling(n, (l,) * (n - 2))).port_map for l in (1, 2)]
    by_degree = {d: port_sequence(agent, d) for d in sorted({len(r) for r in paths[0]})}
    ports = [by_degree[len(row)] for row in paths[0]]
    lens = [len(seq) for seq in ports]
    succ = [[_successors(row, seq) for row, seq in zip(p, ports)] for p in paths]
    top = n - 1
    rows, label = [None] * n, [0] * n
    worst: tuple[int, tuple[int, ...]] | None = None  # (-steps, toward_far)
    unstopped = 0
    error: tuple[tuple[int, ...], Exception] | None = None
    # (j, label of j, visit counts, steps): a walk at j, its lowest node yet.
    stack = [(top, 1, [0] * top + [1], 0)]
    while stack:
        j, label_j, counts, steps = stack.pop()
        label[j] = label_j
        rows[j] = succ[label_j - 1][j]
        cur = j
        try:
            while steps < cap:
                cur = rows[cur][counts[cur] % lens[cur]]
                steps += 1
                counts[cur] += 1
                if cur < j:
                    break
        except Exception as e:
            # The agent raised for every labeling below this branch; the
            # enumeration raises it for the smallest raising labeling.
            first = (1,) * (j - 1) + tuple(label[j:top])
            if error is None or first < error[0]:
                error = (first, e)
            continue
        if cur >= j:
            unstopped += 1 << (j - 1)
        elif cur == 0:
            leaf = (-steps, tuple(label[1:top]))
            if worst is None or leaf < worst:
                worst = leaf
        else:
            stack.append((cur, 2, counts.copy(), steps))
            stack.append((cur, 1, counts, steps))
    if error is not None:
        raise error[1]
    if worst is None:
        return BruteForceResult(n=n, max_steps=None, labeling=None,
                                unstopped=unstopped)
    return BruteForceResult(n=n, max_steps=-worst[0],
                            labeling=PathLabeling(n, worst[1]),
                            unstopped=unstopped)


def brute_force_rows(agent: str, r: BruteForceResult) -> list[ReportRow]:
    """The worst-case row of one enumeration, checked against (n-1)^2.

    Labelings whose run never reached the target count as a pass: their
    cost is at least the cap.
    """
    bound = (r.n - 1) ** 2
    ok = (r.max_steps is not None and r.max_steps >= bound) or r.unstopped > 0
    measured = "" if r.max_steps is None else str(r.max_steps)
    return [ReportRow("bruteforce-path", agent, r.n, f"unstopped={r.unstopped}",
                      str(bound), measured, "pass" if ok else "fail")]


def path_bound_rows(r: PathBoundReport) -> list[ReportRow]:
    """The steps-to-target and entry-arc-count rows of one path check."""
    measured = "" if r.steps is None else str(r.steps)
    return [
        ReportRow("adversary-path", r.agent, r.n, "steps-to-target",
                  str(r.bound), measured, r.verdict),
        ReportRow("adversary-path", r.agent, r.n, "entry-arc-count",
                  str(r.arc_bound), str(r.arc_count), r.verdict),
    ]


def cubic_bound_rows(r: CubicBoundReport) -> list[ReportRow]:
    """The cover-time and v-star-visits rows of one cubic check."""
    measured = "" if r.cover is None else str(r.cover)
    return [
        ReportRow("adversary-cubic", r.agent, r.n, "cover-time",
                  str(r.bound), measured, r.verdict),
        ReportRow("adversary-cubic", r.agent, r.n,
                  f"v-star-visits;v_star={r.v_star}",
                  str(r.v_star_budget), str(r.v_star_visits),
                  "pass" if r.v_star_visits <= r.v_star_budget else "fail"),
    ]


def path_bound_sweep(agents: dict[str, PortFunction],
                     n_values: Iterable[int]) -> ExperimentReport:
    """verify_path_bound over a battery and a range of path sizes."""
    report = ExperimentReport("adversary-path", {"n": list(n_values)})
    for _, agent in sorted(agents.items()):
        for n in sorted(report.params["n"]):
            report.rows += path_bound_rows(verify_path_bound(agent, n))
    return report


def cubic_bound_sweep(agents: dict[str, PortFunction],
                      n_values: Iterable[int]) -> ExperimentReport:
    """verify_cubic_bound over a battery and a range of graph sizes."""
    report = ExperimentReport("adversary-cubic", {"n": list(n_values)})
    for _, agent in sorted(agents.items()):
        for n in sorted(report.params["n"]):
            report.rows += cubic_bound_rows(verify_cubic_bound(agent, n))
    return report


def rotor_upper_bound_sweep(cases: Sequence[tuple[int, int, int]],
                            factor: float = 2.0,
                            cap: int | None = None) -> ExperimentReport:
    """Empirical cover-time ceiling for the rotor-router on random graphs.

    Each case is (n, m, seed); the rotor-router runs from node 0 to full
    coverage and the row passes when cover time <= factor * m * diameter.
    The factor is a configured assumption, not a derived constant, and is
    echoed in the report. It must be an int or a float (not a bool), and
    factor * m * diameter must stay within the floats for every case.
    Failing to cover at all is a hard fail: the rotor-router covers every
    connected graph.
    """
    if (isinstance(factor, bool) or not isinstance(factor, (int, float))
            or not 0 < factor <= sys.float_info.max):
        raise InvalidLimitError(f"factor must be a positive finite number, got {factor!r}")
    report = ExperimentReport(
        "rotor-upper",
        {"factor": factor, "cases": [list(c) for c in sorted(cases)]},
    )
    rotor = RotorRouter()
    for n, m, seed in sorted(cases):
        g = random_connected_graph(n, m, seed)
        dia = diameter(g)
        bound = factor * m * dia
        if bound > sys.float_info.max:
            raise InvalidLimitError(f"factor * m * D must be finite, got {factor:g} * "
                                    f"{m * dia} for case {n},{m},{seed}")
        t = run(g, rotor, 0, "covered", cap=cap, record_moves=False)
        if t.covered_at is None:
            measured = ""
            verdict = "fail"
        else:
            measured = str(t.covered_at)
            verdict = "pass" if t.covered_at <= bound else "fail"
        report.rows.append(ReportRow(
            "rotor-upper", rotor.name, n,
            f"m={m};seed={seed};D={dia};factor={factor:g}",
            f"{bound:g}", measured, verdict))
    return report
