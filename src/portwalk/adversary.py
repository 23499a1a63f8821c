"""Worst-case instance construction against a known oblivious agent.

Both constructions exploit the same fact: an oblivious agent's exits from
any degree-d node follow a fixed sequence port_d(1), port_d(2), ..., so an
adversary who knows that sequence can label ports to waste as many of
those exits as possible.

Path construction. On a path explored toward a target endpoint, each
internal node is labeled using the majority value of a prefix of the
agent's degree-2 exit sequence: the value occurring at least k times among
the first 2k-1 exits is placed on the arc pointing away from the target.
Before the node can send the walk inward k times it must send it outward
at least k times, which compounds along the path into a quadratic number
of steps: at least (n-1)^2 before the target is reached, with the arc out
of the start endpoint crossed at least n-1 times.
One running count of 1s among the exits labels every node, so building
the labeling costs O(n).

Clique construction. For a degree budget d, some port p appears at most
d-1 times among the agent's first d(d-1) exits at degree d (pigeonhole).
Build a d-clique with a pendant behind port p of every clique node, probe
the agent on it for d^2(d-1) steps, and pick a clique node v* visited at
most d(d-1) times (pigeonhole again). Replace v*'s pendant with a
majority-labeled path whose labeling includes v* as its last node, so the
path's last majority value is the port back to v*. The walk then reaches
the far end of that path only after entering it d times via the rare
port, which cannot happen within d^2(d-1) steps. Cover time is therefore
at least d^2(d-1) with d about a third of the node count, i.e. cubic.
"""

from __future__ import annotations

import json
from itertools import accumulate
from typing import NamedTuple, Sequence

from .agents import PortFunction, derive_port_function
from .errors import (
    HorizonExceededError,
    InvalidSizeError,
    InvalidVertexError,
    whole,
)
from .graphs import (
    PathLabeling,
    PortLabeledGraph,
    build_clique_pendant,
    build_path,
    replace_pendant_with_path,
    serialize,
)
from .simulate import SimulationTrace, _cap, _run, run, visit_count_upto


class AdversarialInstance(NamedTuple("AdversarialInstance", [
        ("graph", PortLabeledGraph), ("start", int), ("certified_bound", int),
        ("construction_log", dict)])):
    """The cubic construction's arena plus the certificate that comes with it.

    The certificate is that a walk from start covers the graph no earlier
    than step certified_bound, which must be an int of at least 1.
    construction_log records every choice made (rare port, replaced clique
    node, per-node majority values) so the construction can be replayed
    exactly.
    """

    __slots__ = ()

    def __new__(cls, graph: PortLabeledGraph, start: int, certified_bound: int,
                construction_log: dict):
        whole(certified_bound, "certified bound", InvalidSizeError, 1)
        return super().__new__(cls, graph, start, certified_bound, construction_log)


def worst_case_path_labeling(agent: PortFunction, n: int) -> PathLabeling:
    """Labeling of an n-node path that stalls this agent the longest.

    Internal node v_i (2 <= i <= n-1) points the majority value of the
    agent's first 2(i-1)-1 degree-2 exits away from the target endpoint
    v_1. Needs the degree-2 sequence up to index 2(n-2)-1; scripted agents
    that cannot answer that far raise HorizonExceededError.

    One O(n) pass: ones[j] counts the 1s among the first j+1 exits, so
    the majority of the first 2k-1 exits is 1 exactly when ones[2k-2] >= k.
    """
    whole(n, "n", InvalidSizeError, 2)
    prefix = derive_port_function(agent, 2, max(2 * (n - 2) - 1, 0))
    ones = list(accumulate(int(x == 1) for x in prefix))
    toward_far = tuple(1 if ones[2 * k - 2] >= k else 2 for k in range(1, n - 1))
    return PathLabeling(n, toward_far)


class PathBoundReport(NamedTuple):
    """Outcome of checking the quadratic path bound against one agent."""

    agent: str
    n: int
    bound: int
    arc_bound: int
    steps: int | None
    arc_count: int
    cap: int
    verdict: str  # "pass", "pass-vacuous", or "fail"

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


def verify_path_bound(agent: PortFunction, n: int,
                      cap: int | None = None) -> PathBoundReport:
    """Build the worst-case path and measure the agent against its bound.

    The walk starts at v_n (id n-1) and runs to its first visit of v_1
    (id 0). A run that reaches v_1 is measured against (n-1)^2 steps and
    n-1 crossings of the start arc; a run still going at the cap is a
    vacuous pass (the certificate only binds walks that finish). The
    default cap of 8(n-1)^2 + 8 is far above any finishing run a passing
    agent produces, while keeping non-finishing agents cheap to detect.
    """
    g = build_path(worst_case_path_labeling(agent, n))
    bound = (n - 1) ** 2
    if cap is None:
        cap = 8 * bound + 8
    trace = run(g, agent, n - 1, ("target", 0), cap=cap, record_moves=False)
    # v_n has one port, so its departures are the start arc's crossings.
    arc = visit_count_upto(trace, n - 1, trace.steps)
    if not trace.stopped:
        verdict = "pass-vacuous"
        steps = None
    else:
        steps = trace.steps
        ok = steps >= bound and arc >= n - 1
        verdict = "pass" if ok else "fail"
    return PathBoundReport(
        agent=agent.name,
        n=n,
        bound=bound,
        arc_bound=n - 1,
        steps=steps,
        arc_count=arc,
        cap=cap,
        verdict=verdict,
    )


def rare_port(agent: PortFunction, d: int) -> int:
    """Smallest port appearing at most d-1 times in the agent's first
    d(d-1) degree-d exits.

    Existence is guaranteed by counting: d(d-1) slots cannot give all d
    ports d or more occurrences.
    """
    whole(d, "d", InvalidSizeError, 2)
    counts = [0] * (d + 1)
    for p in derive_port_function(agent, d, d * (d - 1)):
        counts[p] += 1
    for p in range(1, d + 1):
        if counts[p] <= d - 1:
            return p
    raise RuntimeError("internal error: no rare port found, counting is broken")


def select_v_star(trace: SimulationTrace, clique_nodes: Sequence[int],
                  budget: int) -> int:
    """Smallest-id clique node occupied at most budget times during the probe.

    The probe run's occupancies before its last step sum to its step
    count, so some clique node must stay within budget; not finding one
    means the simulator itself is broken, which aborts loudly.
    """
    for v in sorted(clique_nodes):
        if visit_count_upto(trace, v, trace.steps) <= budget:
            return v
    raise RuntimeError(
        "internal error: every clique node exceeded its visit budget"
    )


def build_cubic_instance(agent: PortFunction, n: int,
                         start: int = 0) -> AdversarialInstance:
    """Assemble the n-node arena that forces a cubic cover time on this agent.

    Pipeline: d = n//3; find the rare degree-d port p; build the clique
    with pendants behind p; probe the agent on it from the start node for
    d^2(d-1) steps; pick the under-visited clique node v*; replace v*'s
    pendant with a path of d+1+(n mod 3) nodes labeled by the degree-2
    majority rule, reading v* as the path's last node so that the glued
    endpoint's majority value points back at v*. The certificate is cover
    time >= d^2(d-1).

    HorizonExceededError from any stage is re-raised naming the stage.
    """
    d = whole(n, "n", InvalidSizeError, 6) // 3
    whole(start, "start clique node", InvalidVertexError, 0, d - 1)

    steps_budget = d * d * (d - 1)
    path_len = n - 2 * d + 1  # d+1 plus the n mod 3 remainder
    stage = "rare-port"
    try:
        p = rare_port(agent, d)
        g1 = build_clique_pendant(d, p)
        stage = "probe-run"
        probe = run(g1, agent, start, ("steps", steps_budget), record_moves=False)
        v_star = select_v_star(probe, range(d), d * (d - 1))
        stage = "path-labeling"
        labeling = worst_case_path_labeling(agent, path_len + 1)  # v* is v_n
    except HorizonExceededError as e:
        raise HorizonExceededError(f"{stage} stage: {e}") from e
    graph = replace_pendant_with_path(g1, v_star, labeling)

    return AdversarialInstance(
        graph=graph,
        start=start,
        certified_bound=steps_budget,
        construction_log={
            "d": d,
            "p": p,
            "v_star": v_star,
            "path_len": path_len,
            "alpha": list(labeling.toward_far),
        },
    )


class CubicBoundReport(NamedTuple):
    """Outcome of checking the cubic cover bound against one agent."""

    agent: str
    n: int
    d: int
    bound: int
    cover: int | None
    v_star: int
    v_star_visits: int
    v_star_budget: int
    cap: int
    verdict: str  # "pass", "pass-vacuous", or "fail"
    instance: AdversarialInstance

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


def verify_cubic_bound(agent: PortFunction, n: int, cap: int | None = None,
                       start: int = 0) -> CubicBoundReport:
    """Build the cubic instance, run to coverage, and check the certificate.

    Passes when the cover time is at least d^2(d-1) or the walk never
    covers within the cap (default 4n^3). The replaced clique node is
    cross-checked: within the first d^2(d-1) steps it must be occupied at
    most d(d-1) times, and a violation fails the check even if the cover
    time looks fine, since it means the construction's accounting broke.
    One walk is read at step d^2(d-1), then continued to coverage.
    """
    inst = build_cubic_instance(agent, n, start)
    g = inst.graph
    d = inst.construction_log["d"]
    v_star = inst.construction_log["v_star"]
    bound = inst.certified_bound
    cap = _cap(cap, g.n)
    head = run(g, agent, start, ("steps", bound), record_moves=False)
    visits = visit_count_upto(head, v_star, head.steps)
    budget = d * (d - 1)
    cross_ok = visits <= budget
    cover = head.covered_at
    if cover is None and cap > head.steps:
        cover = _run(g, agent, start, "covered", cap, False, head).covered_at
    elif cover is not None and cover > cap:
        cover = None
    if not cross_ok:
        verdict = "fail"
    elif cover is None:
        verdict = "pass-vacuous"
    else:
        verdict = "pass" if cover >= bound else "fail"
    return CubicBoundReport(
        agent=agent.name,
        n=n,
        d=d,
        bound=bound,
        cover=cover,
        v_star=v_star,
        v_star_visits=visits,
        v_star_budget=budget,
        cap=cap,
        verdict=verdict,
        instance=inst,
    )


def export_instance(inst: AdversarialInstance) -> tuple[str, str]:
    """Serialize an instance: (graph document, sidecar document).

    The sidecar carries the start node, the certified bound, and the
    construction log entries needed for replay.
    """
    log = {k: inst.construction_log[k] for k in ("p", "v_star", "alpha")}
    sidecar = {"start": inst.start, "bound": inst.certified_bound, "log": log}
    return serialize(inst.graph), json.dumps(sidecar, separators=(",", ":")) + "\n"
