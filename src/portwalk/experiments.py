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
from itertools import accumulate
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
    """Successor row of one node for the row walk.

    Entry i is the neighbour in row behind port_d(i) = ports[(i - 1) % P],
    ports a port_sequence of period P. An iterator agent's sequence is
    read in order, the first time each index is asked for; a cycle is
    repeated (an agent may have a cycle at one degree and an iterator at
    the other).
    """

    def __init__(self, row: tuple, ports: Sequence[int]):
        self.row, self.ports, self.period = row, ports, len(ports)

    def __getitem__(self, i: int):
        return self.row[self.ports[(i - 1) % self.period] - 1]


def _row_walk(paths: list, by_degree: dict, label: list[int], cap: int):
    """The segment kernel that steps the walk, one _Row read per step.

    It serves every agent with an iterator among its port sequences, so
    an iterator is advanced once per index some walk reaches, and the
    first index that raises is reached in walk order. counts[v] is v's
    visit count.
    """
    succ = [[_Row(row, by_degree[len(row)]) for row in p] for p in paths]
    rows = [None] * len(label)

    def segment(j: int, counts: list[int], steps: int) -> int | None:
        rows[j] = succ[label[j] - 1][j]
        cur = j
        while steps < cap:
            cur = rows[cur][counts[cur]]
            steps += 1
            counts[cur] += 1
            if cur < j:
                return steps
        return None
    return segment


def _inward_exits(ports: tuple[int, ...], label: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Where a degree-2 cycle leaves an internal path node toward v_1.

    Under toward_far = label the inward port is the other one. pos holds
    the 1-based offsets j in one period P = len(ports) with port_2(j)
    inward, and pre[x] counts those among offsets 1..x, for x < P.
    """
    pos = tuple(j for j, p in enumerate(ports, 1) if p != label)
    pre = tuple(accumulate((p != label for p in ports[:-1]), initial=0))
    return pos, pre


def _exits_to_inward(e: int, r: int, period: int, pos: tuple[int, ...],
                     pre: tuple[int, ...]) -> int:
    """How many exits a node makes, after its first e, up to its r-th inward one.

    Its next exit has visit index e + 1, and e = q*P + s with s < P. The
    first s offsets of period q + 1 hold pre[s] inward exits, so the one
    wanted is the (pre[s] + r)-th from that period's start: whole periods
    a and entry b of pos, (a, b) = divmod(pre[s] + r - 1, len(pos)). So
    it has visit index e - s + a*P + pos[b]. pos must not be empty.
    """
    s = e % period
    a, b = divmod(pre[s] + r - 1, len(pos))
    return a * period + pos[b] - s


def _excursions(ports: tuple[int, ...], label: list[int], cap: int):
    """The segment kernel that adds the walk up level by level.

    For an agent whose port sequences are all cycles. From its first
    arrival at v_(j+1) (id j) to its first arrival at id j - 1, the walk
    leaves id j through r = 1 inward exit and some outward ones, each of
    which starts an excursion above j that ends when id j + 1 next exits
    inward. So id j + 1 owes as many inward exits as id j made outward
    ones, and so on up to v_n, whose one port always leads back. Level u,
    owing r inward exits, makes _exits_to_inward(counts[u], r, ...) exits
    in the segment; their sum is the segment's steps. counts[u] is u's exit
    count, read and written for the internal nodes only: the node a
    segment starts from has none yet.
    """
    period = len(ports)
    forms = [None] + [_inward_exits(ports, label) for label in (1, 2)]
    top = len(label) - 1

    def segment(j: int, counts: list[int], steps: int) -> int | None:
        room, r = cap - steps, 1
        for u in range(j, top):
            pos, pre = forms[label[u]]
            if not pos:
                return None  # u never exits inward: the walk never comes back
            made = _exits_to_inward(counts[u], r, period, pos, pre)
            counts[u] += made
            room -= made
            if room < 0:
                return None
            r = made - r  # u's outward exits, each an excursion above u
            if not r:
                return cap - room
        room -= r  # v_n's exits, all inward
        return None if room < 0 else cap - room
    return segment


def brute_force_path_worst_case(agent: PortFunction, n: int,
                                cap: int | None = None) -> BruteForceResult:
    """Try every one of the 2^(n-2) path labelings and keep the worst.

    Independent of the majority construction: the agent walks from v_n
    until it first visits v_1, with cap (default 4n^3) bounding each walk
    as in run(): a walk that arrives at step cap counts as reached.
    Refuses n > 14 where the enumeration stops being desk-scale.

    The labelings are enumerated depth-first on shared walk prefixes. A
    walk from v_n reaches v_i before any of v_(i-1)..v_1, so up to its
    first arrival at v_i it depends only on the labels of v_(i+1)..v_(n-1).
    There the search branches on v_i's label, and each branch runs one
    segment, to the first arrival at v_(i-1), from a copy of the walk
    state (a count per node). A segment that passes the cap counts all
    2^(i-2) labelings below it as unstopped at once. Among labelings of
    equal worst cost the result keeps the lexicographically smallest
    toward_far (the first in the order of itertools.product((1, 2), ...)).

    Two kernels run a segment. When every port sequence read is a cycle,
    _excursions adds it up in O(n) arithmetic with no step simulated.
    Otherwise _row_walk steps it on rows over build_path's rows of the
    all-1 and all-2 labelings, indexed by visit count (not run()'s
    iterators: copying itertools objects is deprecated since Python
    3.12). An iterator agent is then advanced once per index that some
    walk reaches, and if some walks raise, the error raised is that of
    the first such labeling in product order.
    """
    whole(n, "n", InvalidSizeError, 2, 14)
    cap = _cap(cap, n)
    # Node v_k has id k - 1; label[v] is v's toward_far.
    paths = [build_path(PathLabeling(n, (l,) * (n - 2))).port_map for l in (1, 2)]
    by_degree = {d: port_sequence(agent, d) for d in sorted({len(r) for r in paths[0]})}
    top = n - 1
    label = [0] * n
    if all(isinstance(seq, tuple) for seq in by_degree.values()):
        # at n = 2 no node has degree 2, and no level is ever evaluated
        segment = _excursions(by_degree.get(2, ()), label, cap)
    else:
        segment = _row_walk(paths, by_degree, label, cap)
    worst: tuple[int, tuple[int, ...]] | None = None  # (-steps, toward_far)
    unstopped = 0
    error: tuple[tuple[int, ...], Exception] | None = None
    # (j, label of j, counts, steps): a walk at its first arrival at j.
    stack = [(top, 1, [0] * top + [1], 0)]
    while stack:
        j, label[j], counts, steps = stack.pop()
        try:
            steps = segment(j, counts, steps)
        except Exception as e:
            # The agent raised for every labeling below this branch; the
            # enumeration raises it for the smallest raising labeling.
            first = (1,) * (j - 1) + tuple(label[j:top])
            if error is None or first < error[0]:
                error = (first, e)
            continue
        if steps is None:
            unstopped += 1 << (j - 1)
        elif j == 1:
            leaf = (-steps, tuple(label[1:top]))
            if worst is None or leaf < worst:
                worst = leaf
        else:
            stack.append((j - 1, 2, counts.copy(), steps))
            stack.append((j - 1, 1, counts, steps))
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
