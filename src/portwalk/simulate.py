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
the graph, before the first step; a cycle becomes one operator.itemgetter
that picks a row's successors in port order. Each visited node gets one
iterator, built on its first visit (the start node's before the first
step), so a short walk on a large graph builds only what it uses. The
k-th next() on it yields (k, w), w the node behind port_d(k): k comes
from a count(1), and a cycle's successors from itertools.cycle over the
picked row. So a step is one next() call on C-level iterators, a first
visit a few C calls and one caught _FirstVisit (the iterator every
unvisited node shares raises it), and a periodic agent's step makes no
call into the agent. A node's visit count is read from its count once,
after the walk. A recorded walk also zips in the node's shared (node,
port) tuples, one per arc, so recording a step appends an 8-byte
pointer; export_trace formats a chunk of per-arc row templates with one
%. The private _run continues a counters-only trace from its last step.
Nodes, the cap and step counts are checked once per call by errors.whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, cycle, repeat
from operator import itemgetter
from typing import Iterator, Sequence

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


def _arcs(v: int, d: int) -> tuple[tuple[int, int], ...]:
    """The moves (v, 1) .. (v, d) out of node v, one tuple per port."""
    return tuple(zip(repeat(v), range(1, d + 1)))


class _FirstVisit(Exception):
    """Raised on leaving a node whose first visit run() has not yet taken."""


class _Unvisited:
    """The iterator of every node not yet visited: next() raises _FirstVisit."""

    def __next__(self):
        raise _FirstVisit


_UNVISITED = _Unvisited()


def _in_order(row: tuple, ports: Sequence[int], c: int) -> Iterator:
    """row's entries behind port_d(c + 1), port_d(c + 2), ... of an iterator agent.

    Entry i is read from ports, a port_sequence, at the node's (i+1)-th
    departure, so the agent is advanced lazily and in order. A generator:
    it costs less per step than map over a Python-level __getitem__.
    """
    for i in count(c):
        yield row[ports[i] - 1]


def _departures(v: int, row: tuple, by_degree: dict, record: bool, c=0) -> tuple[count, Iterator]:
    """Node v's departure count and the iterator run() leaves v through.

    row is v's neighbours, by_degree maps each degree to its port_sequence
    or, for a cycle, an itemgetter picking a row's entries in its order,
    and c counts the departures v has already taken. The k-th next()
    yields (k, w), w the neighbour behind port_d(k), or (k, (v,
    port_d(k)), w) when record is set; k comes from the count, so
    next(count) - 1 is the number of departures taken. itertools.cycle
    repeats a cycle's picked entries, from entry c (mod its period) on.
    """
    pick, k = by_degree[len(row)], count(c + 1)
    if not isinstance(pick, itemgetter):
        rows = (_arcs(v, len(row)), row) if record else (row,)
        return k, zip(k, *[_in_order(r, pick, c) for r in rows])
    if record:
        return k, zip(k, cycle(pick(_arcs(v, len(row)))), cycle(pick(row)))
    t = pick(row)
    c %= len(t)
    return k, zip(k, cycle(t[c:] + t[:c] if c else t))


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
    return _run(g, agent, start, stop, cap, record_moves)


def _run(g: PortLabeledGraph, agent: PortFunction, start: int, stop, cap,
         record_moves: bool, head: SimulationTrace | None = None) -> SimulationTrace:
    """run(); given head, a counters-only trace of this walk, the walk taken on
    from head.steps (its stop must not fire earlier, and cap >= head.steps)."""
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
    moves: list[tuple[int, int]] | None = [] if record_moves else None
    departures: list[count | None] = [None] * n

    # A node's exits so far are its occupancies less the current one; read
    # as head.final, since naming cur in a comprehension makes it a slow cell.
    if head is None:
        cur, steps, first_visit, exits = start, 0, [None] * n, [(start, 0)]
        first_visit[cur] = 0
    else:
        cur, steps, first_visit = head.final, head.steps, head.first_visit[:]
        exits = [(v, k - (v == head.final)) for v, k in enumerate(head.visit_counts) if k]
    unvisited = first_visit.count(None)
    covered_at: int | None = None if unvisited else max(first_visit)
    stopped = cur == target or unvisited == stop_unvisited
    if stopped:
        limit = steps

    # Each move is one next() on cur's iterator; steps counts the moves
    # made. A node not yet visited holds _UNVISITED, so leaving it raises
    # _FirstVisit without moving, the handler takes the first visit and
    # the loop resumes at the move it did not make. An arrival on the last
    # move has no departure to raise, so it is checked after the loop.
    # A continued walk's counts live in its iterators, so it builds them even
    # to take no step. A one-entry cycle's itemgetter takes it twice: a tuple.
    if port_map[cur] and (limit > steps or head is not None):
        by_degree = {d: port_sequence(agent, d) for d in {len(row) for row in port_map} - {0}}
        for d, p in by_degree.items():
            if isinstance(p, tuple):
                by_degree[d] = itemgetter(*[q - 1 for q in (p * 2 if len(p) == 1 else p)])
        its: list[Iterator] = [_UNVISITED] * n
        for v, c in exits:
            departures[v], its[v] = _departures(v, port_map[v], by_degree, record_moves, c)
        while True:
            try:
                if not record_moves:
                    for steps in range(steps, limit):
                        _, cur = next(its[cur])
                else:
                    append = moves.append
                    for steps in range(steps, limit):
                        _, move, cur = next(its[cur])
                        append(move)
                steps = limit
                if its[cur] is _UNVISITED:
                    raise _FirstVisit
                break
            except _FirstVisit:
                first_visit[cur] = steps
                unvisited -= 1
                if unvisited == 0:
                    covered_at = steps
                if cur == target or unvisited == stop_unvisited:
                    stopped = True
                    break
                departures[cur], its[cur] = _departures(cur, port_map[cur], by_degree, record_moves)

    if budget is not None:
        stopped = steps == budget

    # A node's occupancies are its departures, plus the final one.
    visit_counts = [0 if k is None else next(k) - 1 for k in departures]
    visit_counts[cur] += 1
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
    return sum(node == v for node, _ in _moves(trace)[:step_limit])


def outports_taken(trace: SimulationTrace, v: int) -> list[int]:
    """Sequence of outports the run used when leaving v, in order."""
    trace.graph.node(v)
    return [p for node, p in _moves(trace) if node == v]


_CHUNK = 8192  # step rows formatted per join in export_trace


def export_trace(trace: SimulationTrace) -> str:
    """Column-separated trace document.

    One row per step (step,node,outport,next_node), then a summary block
    with covered_at and per-node first_visit / visit_counts. Each arc's
    row is a template "%d,v,p,w" built once per call; a chunk of _CHUNK
    moves is its templates joined, then formatted by one % with its step
    numbers, so at most one chunk's row strings live.
    """
    g = trace.graph
    arcs = [[f"%d,{v},{p},{w}" for p, w in enumerate(row, 1)]
            for v, row in enumerate(g.port_map)]
    moves = _moves(trace)
    lines = ["step,node,outport,next_node"]
    for s in range(0, len(moves), _CHUNK):
        chunk = moves[s:s + _CHUNK]
        lines.append("\n".join([arcs[v][p - 1] for v, p in chunk])
                     % tuple(range(s, s + len(chunk))))
    lines.append("summary")
    covered = "none" if trace.covered_at is None else str(trace.covered_at)
    lines.append(f"covered_at,{covered}")
    lines.append("node,first_visit,visit_count")
    for v in range(g.n):
        fv = "none" if trace.first_visit[v] is None else str(trace.first_visit[v])
        lines.append(f"{v},{fv},{trace.visit_counts[v]}")
    lines.append("")
    return "\n".join(lines)
