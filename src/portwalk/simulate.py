"""Deterministic execution of one oblivious agent on one port-labeled graph.

Time convention: the agent occupies its start node at the beginning of
step 0; the move with index k happens during step k and delivers the
agent to its next node at the beginning of step k+1. A node's visit index
(the i handed to the agent's port_d(i)) counts occupancies, so the start
node's first exit uses i = 1 and every later arrival bumps the index
before the next exit.

Stop conditions for run():
  "covered"        stop at the step of the first full coverage
  ("target", v)    stop at the first arrival at node v
  ("steps", k)     stop after exactly k moves
All runs are additionally bounded by a step cap; a run that hits the cap
without firing its stop condition is flagged not-stopped rather than
failed, since several bound checks are conditional on the walk finishing.

run() reads every agent through agents.port_sequence, once per degree of
the graph, before the first step. Each node gets a successor row over its
degree's sequence: row v lists the node reached from v on each visit
index, so a step costs two lookups, and a periodic agent's step makes no
call into the agent. Each row is rotated by one, so visit index c of a
period-P sequence reads entry c % P and the index is never negative: a
negative list index leaves CPython's specialized list subscript. A
node's row is built on its first visit (the start node's before the
first step), so a short walk on a large graph builds only the rows it
uses. A recorded walk also gives each visited node an exit row of
shared (node, port) tuples, one per arc, so recording a step appends an
8-byte pointer; export_trace joins the step rows in chunks.
_successors builds every row, for run() and for the path brute force
(experiments.brute_force_path_worst_case), which forks this walk and
takes the same step on rows it sets per labeling.
Nodes, the cap and step counts are checked once per call by errors.whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .agents import PortFunction, port_sequence
from .errors import InvalidArcError, InvalidLimitError, InvalidVertexError, whole
from .graphs import PortLabeledGraph


@dataclass
class SimulationTrace:
    """Complete record of one run.

    moves holds (node, outport) per step in order, or None when the run
    was taken in counters-only mode. Its tuples are shared: every crossing
    of one arc is the same object, so the list costs 8 bytes a step.
    first_visit[v] is the earliest step at which v is occupied (start
    node: 0, never visited: None). covered_at is the step of first full
    coverage, None if coverage was not reached. stopped records whether
    the stop condition fired before the cap.
    """

    graph: PortLabeledGraph
    start: int
    final: int
    steps: int
    moves: list[tuple[int, int]] | None
    first_visit: list[int | None]
    visit_counts: list[int]
    covered_at: int | None
    stopped: bool


def _moves(trace: SimulationTrace) -> list[tuple[int, int]]:
    if trace.moves is None:
        raise ValueError("trace was recorded in counters-only mode")
    return trace.moves


def _cap(cap, n: int) -> int:
    """cap, or 4*n^3 when it is None; InvalidLimitError unless an int >= 1."""
    return 4 * n * n * n if cap is None else whole(cap, "cap", InvalidLimitError, 1)


class _Row:
    """Successor or exit row of one node over a non-cycle port sequence.

    Entry i is the one behind port_d(i) = ports[i - 1], as in the rotated
    rows _successors builds for cycles; ports is read in order.
    """

    def __init__(self, row: tuple, ports: Sequence[int]):
        self.row, self.ports = row, ports

    def __getitem__(self, i: int):
        return self.row[self.ports[i - 1] - 1]


def _successors(row: tuple, ports: Sequence[int]) -> Sequence:
    """The entry of row behind each visit index's port, over one period.

    row is a node's neighbours (its successor row) or its _arcs (its exit
    row). Entry c % P is the one behind port_d(c), P = len(ports): the
    period is rotated by one, so visit index P reads entry 0 rather than
    -1, as a negative list index leaves CPython's specialized subscript.
    A list for a cycle (a tuple), a _Row otherwise. A function rather
    than a comprehension inside run(), where it would turn cur into a
    closure cell read on every step.
    """
    if isinstance(ports, tuple):
        return [row[q - 1] for q in ports[-1:] + ports[:-1]]
    return _Row(row, ports)


def _arcs(v: int, d: int) -> tuple[tuple[int, int], ...]:
    """The moves (v, 1) .. (v, d) out of node v, one tuple per port."""
    return tuple((v, p) for p in range(1, d + 1))


def run(g: PortLabeledGraph, agent: PortFunction, start: int,
        stop, cap: int | None = None, record_moves: bool = True) -> SimulationTrace:
    """Execute the agent from start until the stop condition or the cap.

    cap defaults to 4*n^3, a comfortable ceiling for any walk that is
    going to finish at all on the graphs this package builds. Set
    record_moves=False for long runs where only the aggregate counters
    matter; per-step analyses (outport sequences, arc crossings, visit
    counts over a partial window) then become unavailable. A start node
    of degree 0 (the one-node graph) takes no step.

    A walk that takes a step first reads port_sequence(agent, d) once per
    degree of the graph, so a bad cycle raises AgentViolationError before
    the first step. Where ports(d) is an iterator, it yields port_d(i) on
    the first visit with index i to a node of degree d.
    """
    n = g.n
    whole(start, "start node", InvalidVertexError, 0, n - 1)
    cap = _cap(cap, n)

    # The walk stops at its first arrival at target, or at the first visit
    # that leaves stop_unvisited nodes unvisited (-1 stands for neither).
    # A ("steps", k) run counts as stopped when it made exactly k moves.
    target, stop_unvisited, budget, limit = -1, -1, None, cap
    if stop == "covered":
        stop_unvisited = 0
    elif isinstance(stop, tuple) and len(stop) == 2 and stop[0] == "target":
        whole(stop[1], "target node", InvalidLimitError)
        target = whole(stop[1], "target node", InvalidVertexError, 0, n - 1)
    elif isinstance(stop, tuple) and len(stop) == 2 and stop[0] == "steps":
        budget = whole(stop[1], "step budget", InvalidLimitError, 0)
        limit = min(cap, budget)
    else:
        raise ValueError(f"unrecognized stop condition {stop!r}")

    port_map = g.port_map
    degs = [len(row) for row in port_map]
    visit_counts = [0] * n
    first_visit: list[int | None] = [None] * n
    moves: list[tuple[int, int]] | None = [] if record_moves else None

    cur = start
    visit_counts[cur] = 1
    first_visit[cur] = 0
    unvisited = n - 1
    covered_at: int | None = 0 if unvisited == 0 else None
    stopped = cur == target or unvisited == stop_unvisited
    if stopped or degs[cur] == 0:
        limit = 0

    # Every earlier occupancy of cur ended in an exit, so its visit index
    # is its occupancy count c. The rows are rotated by one, so the loop
    # reads port_d(c) = ports[(c - 1) mod P] at index c % P, never
    # negative: a negative index leaves CPython's specialized subscript.
    steps = 0
    if limit:
        by_degree = {d: port_sequence(agent, d) for d in set(degs) - {0}}
        ports = [by_degree.get(d, ()) for d in degs]  # degree 0 takes no step
        lens = [len(seq) for seq in ports]
        nexts: list[Sequence[int] | None] = [None] * n
        nexts[cur] = _successors(port_map[cur], ports[cur])
        if moves is not None:
            exits: list[Sequence[tuple[int, int]] | None] = [None] * n
            exits[cur] = _successors(_arcs(cur, degs[cur]), ports[cur])
        for steps in range(1, limit + 1):
            i = visit_counts[cur] % lens[cur]
            if moves is not None:
                moves.append(exits[cur][i])
            cur = nexts[cur][i]
            c = visit_counts[cur] + 1
            visit_counts[cur] = c
            if c == 1:
                first_visit[cur] = steps
                unvisited -= 1
                if unvisited == 0:
                    covered_at = steps
                if cur == target or unvisited == stop_unvisited:
                    stopped = True
                    break
                nexts[cur] = _successors(port_map[cur], ports[cur])
                if moves is not None:
                    exits[cur] = _successors(_arcs(cur, degs[cur]), ports[cur])

    if budget is not None:
        stopped = steps == budget

    return SimulationTrace(
        graph=g,
        start=start,
        final=cur,
        steps=steps,
        moves=moves,
        first_visit=first_visit,
        visit_counts=visit_counts,
        covered_at=covered_at,
        stopped=stopped,
    )


def arc_traversals(trace: SimulationTrace, u: int, v: int) -> int:
    """How many of the recorded moves crossed the arc u -> v."""
    g = trace.graph
    row = g.port_map[g.node(u)]
    if g.node(v) not in row:
        raise InvalidArcError(f"({u}, {v}) is not an arc of the graph")
    return _moves(trace).count((u, row.index(v) + 1))


def visit_count_upto(trace: SimulationTrace, v: int, step_limit: int) -> int:
    """Occupancies of v strictly before step_limit.

    The start occupancy counts at step 0, every arrival at its step.
    step_limit may not exceed the number of executed steps.
    """
    trace.graph.node(v)
    whole(step_limit, "step limit", InvalidLimitError, 0, trace.steps)
    if step_limit == trace.steps:
        # Every occupancy but the last ended in a move.
        return trace.visit_counts[v] - (trace.final == v)
    count = 0
    for node, _ in _moves(trace)[:step_limit]:
        if node == v:
            count += 1
    return count


def outports_taken(trace: SimulationTrace, v: int) -> list[int]:
    """Sequence of outports the run used when leaving v, in order."""
    trace.graph.node(v)
    return [p for node, p in _moves(trace) if node == v]


_CHUNK = 8192  # step rows formatted per join in export_trace


def export_trace(trace: SimulationTrace) -> str:
    """Column-separated trace document.

    One row per step (step,node,outport,next_node), then a summary block
    with covered_at and per-node first_visit / visit_counts. The step rows
    are joined _CHUNK at a time, so at most one chunk's row strings live.
    """
    g = trace.graph
    arcs = [[f"{v},{p},{w}" for p, w in enumerate(row, 1)]
            for v, row in enumerate(g.port_map)]
    moves = _moves(trace)
    lines = ["step,node,outport,next_node"]
    for s in range(0, len(moves), _CHUNK):
        lines.append("\n".join([f"{k},{arcs[node][p - 1]}"
                                for k, (node, p) in enumerate(moves[s:s + _CHUNK], s)]))
    lines.append("summary")
    covered = "none" if trace.covered_at is None else str(trace.covered_at)
    lines.append(f"covered_at,{covered}")
    lines.append("node,first_visit,visit_count")
    for v in range(g.n):
        fv = "none" if trace.first_visit[v] is None else str(trace.first_visit[v])
        lines.append(f"{v},{fv},{trace.visit_counts[v]}")
    lines.append("")
    return "\n".join(lines)
