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
step), so a short walk on a large graph builds only what it uses. It
yields the nodes behind port_d(1), port_d(2), ... and nothing else: for
a cycle it runs over a tuple block of the picked successors, whole
periods of them, so a step is one next() on a tuple iterator and makes
no call into the agent. The moves are counted down by an
itertools.repeat, so a step makes no int either; the step number is
read from its length_hint only at a first visit. A spent block and an
unvisited node (all share one empty iterator) both raise StopIteration,
and one handler refills the block, doubled up to _BLOCK entries, or
takes the first visit; the move that raised is made after the handler. A
node's departures are the entries handed to it less its iterator's
length_hint, read once after the walk. A recorded walk's blocks hold
(template, w) pairs, template the arc's trace row "%d,v,p,w" waiting for
its step number, built once per arc of a visited node; recording a step
appends a pointer to that shared str, and export_trace formats a chunk of
them with one %. The trace's moves reads the (node, port) tuples back
from the graph, one per arc. The private _run continues a
counters-only trace from its last step: it copies the walk's state, which
is cur, steps, first_visit and each node's exit count, and builds a
node's iterator at that count when the walk first leaves it.
Nodes, the cap and step counts are checked once per call by errors.whole.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import count, repeat
from operator import itemgetter, length_hint, sub
from sys import maxsize
from typing import Iterator, NamedTuple

from .agents import PortFunction, _Ports, port_sequence
from .errors import InvalidArcError, InvalidLimitError, InvalidVertexError, whole
from .graphs import PortLabeledGraph


class SimulationTrace(NamedTuple):
    """Complete record of one run.

    moves holds (node, outport) per step in order, or None when the run
    was taken in counters-only mode. It is a read-only sequence over the
    walk's row templates, one shared str per arc, so it costs 8 bytes a
    step; it yields one shared tuple per arc and compares equal to the
    list of them.
    first_visit[v] is the earliest step at which v is occupied (start
    node: 0, never visited: None). covered_at is the step of first full
    coverage, None if coverage was not reached. stopped records whether
    the stop condition fired before the cap.
    """

    graph: PortLabeledGraph
    start: int
    final: int
    steps: int
    moves: Sequence[tuple[int, int]] | None
    first_visit: list[int | None]
    visit_counts: list[int]
    covered_at: int | None
    stopped: bool


def _arcs(v: int, row: tuple) -> tuple[tuple[str, int], ...]:
    """The steps (template, w) out of node v, one per port p of its row;
    template is the step's trace row "%d,v,p,w", less its step number."""
    return tuple(zip(map(f"%%d,{v},%d,%d".__mod__, enumerate(row, 1)), row))


class _Moves(Sequence):
    """A recorded walk's (node, outport) per step, over its row templates.

    rows is the walk's one shared template per step, so len() is its
    length. The first other read maps every arc's template, formatted from
    g's port_map by _arcs, to one (node, port) tuple; no row is parsed.
    """

    def __init__(self, g: PortLabeledGraph, rows: list[str]):
        self.rows, self._port_map, self._arc = rows, g.port_map, None

    def _arc_of(self):
        if self._arc is None:
            self._arc = {t: (v, p) for v, row in enumerate(self._port_map)
                         for p, (t, _) in enumerate(_arcs(v, row), 1)}
        return self._arc.__getitem__

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(self._arc_of(), self.rows[k]))
        return self._arc_of()(self.rows[k])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return map(self._arc_of(), self.rows)

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, _Moves) else other)

    def __repr__(self) -> str:
        return repr(list(self))


def _moves(trace: SimulationTrace) -> _Moves:
    if trace.moves is None:
        raise ValueError("trace was recorded in counters-only mode")
    return trace.moves


def _cap(cap, n: int) -> int:
    """cap, or 4*n^3 when it is None; InvalidLimitError unless an int >= 1."""
    return 4 * n * n * n if cap is None else whole(cap, "cap", InvalidLimitError, 1)


_UNVISITED = iter(())  # every unvisited node's iterator: next() raises StopIteration
_BLOCK = 256  # the entries a refilled block grows to at most, unless one period is longer


def _in_order(row: tuple, ports: _Ports, c: int, taken: list, v: int) -> Iterator:
    """row's entries behind port_d(c + 1), port_d(c + 2), ... of an iterator agent.

    Entry i is read from ports, the degree's agents._Ports, at the node's
    (i+1)-th departure, so the agent is advanced lazily and in order;
    taken[v] becomes i + 1 as it is handed out. An entry another node has
    read already is taken from ports.read, and only an entry past its end
    calls ports' Python-level __getitem__, which reads it or raises the
    agent's error. A generator: it costs less per step than map.
    """
    read = ports.read
    for i in count(c):
        taken[v] = i + 1
        yield row[(read[i] if i < len(read) else ports[i]) - 1]


def _departures(v: int, row: tuple, by_degree: dict, record: bool, taken: list):
    """(taken, block, iterator): how node v is left after its c = taken[v] departures.

    row is v's neighbours, by_degree maps each degree to its port_sequence
    or, for a cycle, an itemgetter picking a row's entries in its order.
    The iterator yields w, the neighbour behind port_d(c + 1), then
    port_d(c + 2), ..., or _arcs' (template, w) when record is set. For a
    cycle it runs over block, the picked entries rotated to c, so one
    period; taken counts the entries handed to v so far, c + len(block),
    and taken less the iterator's length_hint is v's departures. An
    iterator agent's _in_order has no block and keeps taken[v] itself.
    """
    c = taken[v]
    if record:
        row = _arcs(v, row)
    pick = by_degree[len(row)]
    if not isinstance(pick, itemgetter):
        return c, None, _in_order(row, pick, c, taken, v)
    block = pick(row)
    r = c % len(block)
    if r:
        block = block[r:] + block[:r]
    return c + len(block), block, iter(block)


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
    # that leaves stop_unvisited nodes unvisited, or after budget moves
    # (-1 stands for none of them), and by limit moves in any case. No walk
    # makes sys.maxsize moves, the most a C-level countdown holds, so a
    # larger cap is clamped to it.
    target, stop_unvisited, budget, limit = -1, -1, -1, min(cap, maxsize)
    if stop == "covered":
        stop_unvisited = 0
    elif isinstance(stop, tuple) and len(stop) == 2 and stop[0] == "target":
        whole(stop[1], "target node", InvalidLimitError)
        target = whole(stop[1], "target node", InvalidVertexError, 0, n - 1)
    elif isinstance(stop, tuple) and len(stop) == 2 and stop[0] == "steps":
        budget = whole(stop[1], "step budget", InvalidLimitError, 0)
        limit = min(limit, budget)
    else:
        raise ValueError(f"unrecognized stop condition {stop!r}")

    # The walk's state is cur, steps, first_visit and taken, the entries
    # handed to each node. A continued walk's taken starts at the head's
    # exits, its occupancies less the current one, and each node gets its
    # iterator when the walk first leaves it, at taken[v].
    port_map = g.port_map
    rows: list[str] = []
    its = [_UNVISITED] * n
    if head is None:
        cur, steps, first_visit, taken = start, 0, [None] * n, [0] * n
        first_visit[cur] = 0
    else:
        cur, steps, first_visit = head.final, head.steps, head.first_visit[:]
        taken = head.visit_counts[:]
        taken[cur] -= 1
    unvisited = first_visit.count(None)
    if cur == target or unvisited == stop_unvisited:
        limit = steps

    # Each move is one next() on cur's iterator, counted down by left, a
    # C-level repeat of the moves not yet made, so no step makes an int.
    # Every StopIteration comes from a move whose count left has already
    # taken. The handler gives cur an iterator, and that move is made after
    # it, outside the handler, so left is never rebuilt and an agent's
    # error carries no StopIteration context. A node with no iterator yet
    # holds _UNVISITED: the handler takes its first visit, if it is one, at
    # step limit - length_hint(left) - 1, and builds its iterator. Any
    # other node has spent its block: it gets the same block again,
    # doubled while that keeps it within _BLOCK entries, a whole number of
    # periods, so no rotation is needed. No block or _in_order iterator is
    # empty, so that move cannot raise StopIteration. When left runs out,
    # steps is limit; an arrival on the last move has no departure to
    # raise, so its first visit is taken after the loop. A one-entry
    # cycle's itemgetter takes it twice: a tuple.
    if port_map[cur] and limit > steps:
        by_degree = {d: port_sequence(agent, d) for d in {len(row) for row in port_map} - {0}}
        for d, p in by_degree.items():
            if isinstance(p, tuple):
                by_degree[d] = itemgetter(*[q - 1 for q in (p * 2 if len(p) == 1 else p)])
        blocks: list[tuple | None] = [None] * n
        taken[cur], blocks[cur], its[cur] = _departures(cur, port_map[cur], by_degree,
                                                        record_moves, taken)
        left = repeat(None, limit - steps)
        while True:
            try:
                if not record_moves:
                    for _ in left:
                        cur = next(its[cur])
                else:
                    append = rows.append
                    for _ in left:
                        row, cur = next(its[cur])
                        append(row)
                steps = limit
                if first_visit[cur] is None:
                    first_visit[cur] = steps
                    unvisited -= 1
                break
            except StopIteration:
                if its[cur] is not _UNVISITED:
                    block = blocks[cur]
                    if 2 * len(block) <= _BLOCK:
                        blocks[cur] = block = block * 2
                    taken[cur] += len(block)
                    its[cur] = iter(block)
                else:
                    if first_visit[cur] is None:
                        first_visit[cur] = steps = limit - length_hint(left) - 1
                        unvisited -= 1
                        if cur == target or unvisited == stop_unvisited:
                            break
                    taken[cur], blocks[cur], its[cur] = _departures(cur, port_map[cur], by_degree,
                                                                    record_moves, taken)
            if record_moves:
                row, cur = next(its[cur])
                append(row)
            else:
                cur = next(its[cur])

    # A node's occupancies are its departures, plus the final one.
    visit_counts = list(map(sub, taken, map(length_hint, its)))
    visit_counts[cur] += 1
    return SimulationTrace(
        graph=g,
        start=start,
        final=cur,
        steps=steps,
        moves=_Moves(g, rows) if record_moves else None,
        first_visit=first_visit,
        visit_counts=visit_counts,
        covered_at=None if unvisited else max(first_visit),
        stopped=steps == budget or cur == target or unvisited == stop_unvisited,
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
    with covered_at and per-node first_visit / visit_counts. The walk
    recorded each step's row as its arc's template "%d,v,p,w"; a chunk of
    _CHUNK of them is joined, then formatted by one % with its step
    numbers, so at most one chunk's row strings live.
    """
    g = trace.graph
    rows = _moves(trace).rows
    lines = ["step,node,outport,next_node"]
    for s in range(0, len(rows), _CHUNK):
        chunk = rows[s:s + _CHUNK]
        lines.append("\n".join(chunk) % tuple(range(s, s + len(chunk))))
    lines.append("summary")
    covered = "none" if trace.covered_at is None else str(trace.covered_at)
    lines.append(f"covered_at,{covered}")
    lines.append("node,first_visit,visit_count")
    for v in range(g.n):
        fv = "none" if trace.first_visit[v] is None else str(trace.first_visit[v])
        lines.append(f"{v},{fv},{trace.visit_counts[v]}")
    lines.append("")
    return "\n".join(lines)
