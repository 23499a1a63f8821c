"""Reference computations the benchmark checks portwalk's outputs against.

Nothing here imports portwalk. The walker, the graph checks, the path
builder and the trace checker are written from the model's definitions
(README "File formats" and the paper's constructions), so a fault in
`portwalk.simulate` or `portwalk.graphs` cannot hide itself by also being
in the check.

An agent is given as a builtin battery name or as a dict of per-degree
port tables repeated cyclically. Every such agent is periodic per degree:
the port taken on visit i to a degree-d node is table[(i - 1) mod P].
That is what makes the walker's state-repeat test exact: the full state
of a walk is the current node plus each node's visit count modulo its
period, so a repeated state proves the walk is periodic from there on.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import product

PATTERNS = {"always-1": (1,), "alternating-2": (2, 1), "biased-112": (1, 1, 2)}
BATTERY = ("rotor-router",) + tuple(PATTERNS)


def period_table(agent, d: int) -> tuple[int, ...]:
    """Ports taken on visits 1..P to a degree-d node, one full period."""
    if d == 1:
        return (1,)
    if agent == "rotor-router":
        return tuple(range(1, d + 1))
    if isinstance(agent, str):
        return tuple((e - 1) % d + 1 for e in PATTERNS[agent])
    return tuple(agent[d])


@dataclass(frozen=True)
class Walk:
    """Outcome of one reference walk.

    reached is the step at which the stop condition first held (target
    arrival, or coverage when no target was given). repeat is (first step,
    period) of a full state that recurred before that, which proves the
    condition never holds. watch_visits counts occupancies of the
    watched node in steps 0 .. horizon-1.
    """

    steps: int
    reached: int | None
    repeat: tuple[int, int] | None
    watch_visits: int


def walk(ports, start: int, agent, limit: int, target: int | None = None,
         watch: int | None = None, horizon: int = 0) -> Walk:
    """Walk until the stop condition holds, a state repeats or `limit`
    steps have gone by (then reached and repeat are both None), and on to
    `horizon` steps in any case.

    Brent-style detection: the state is saved at steps 1, 2, 4, 8, ...
    and `diffs` counts the nodes whose visit residue differs from the
    saved copy, updated in O(1) per step, so equality is exact without
    hashing.
    """
    n = len(ports)
    by_degree: dict[int, tuple[int, ...]] = {}
    tables = []
    for row in ports:
        d = len(row)
        if d not in by_degree:
            by_degree[d] = period_table(agent, d)
        tables.append(by_degree[d])
    period = [len(t) for t in tables]
    res = [0] * n
    seen = bytearray(n)
    seen[start] = 1
    left = n - 1
    cur = start
    steps = 0
    done = (cur == target) if target is not None else left == 0
    reached = 0 if done else None
    repeat = None
    saved, saved_cur, saved_step, diffs, power = res[:], cur, 0, 0, 1
    count = 0
    while (reached is None and repeat is None and steps < limit) or steps < horizon:
        if cur == watch and steps < horizon:
            count += 1
        r = res[cur]
        r2 = r + 1
        if r2 == period[cur]:
            r2 = 0
        s = saved[cur]
        diffs += (r2 != s) - (r != s)
        res[cur] = r2
        cur = ports[cur][tables[cur][r] - 1]
        steps += 1
        if reached is None and repeat is None:
            if not seen[cur]:
                seen[cur] = 1
                left -= 1
                if cur == target or (target is None and left == 0):
                    reached = steps
                    continue
            if diffs == 0 and cur == saved_cur:
                repeat = (saved_step, steps - saved_step)
        if steps == power:
            saved, saved_cur, saved_step, diffs = res[:], cur, steps, 0
            power <<= 1
    return Walk(steps, reached, repeat, count)


def graph_problems(ports, n: int | None = None) -> list[str]:
    """Why `ports` is not a connected, simple, port-symmetric graph ([] if it is)."""
    size = len(ports)
    if n is not None and size != n:
        return [f"{size} rows for n={n}"]
    if size == 0:
        return ["no nodes"]
    out = []
    for v, row in enumerate(ports):
        if not row and size > 1:
            out.append(f"node {v} is isolated")
        if len(set(row)) != len(row):
            out.append(f"node {v} lists a neighbour twice")
        for w in row:
            if type(w) is not int or not 0 <= w < size:
                out.append(f"node {v} has neighbour {w!r} out of range")
            elif w == v:
                out.append(f"node {v} has a self-loop")
            elif ports[w].count(v) != 1:
                out.append(f"edge {v}-{w} is not listed once at {w}")
    if not out and None in bfs(ports, 0):
        out.append("graph is disconnected")
    return out


def bfs(ports, start: int) -> list[int | None]:
    dist: list[int | None] = [None] * len(ports)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in ports[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def diameter(ports) -> int:
    return max(max(bfs(ports, v)) for v in range(len(ports)))


def path_ports(n: int, toward_far) -> list[list[int]]:
    """Path v_1 .. v_n with v_k at id k-1; internal v_i sends port
    toward_far[i-2] to v_{i+1} and the other port to v_{i-1}."""
    if n == 2:
        return [[1], [0]]
    rows = [[1]] + [[0, 0] for _ in range(n - 2)] + [[n - 2]]
    for i in range(2, n):
        away = toward_far[i - 2]
        rows[i - 1][away - 1] = i
        rows[i - 1][2 - away] = i - 2
    return rows


def majority_labeling(agent, n: int) -> tuple[int, ...]:
    """The paper's path labeling: v_i points the value taken at least i-1
    times among the agent's first 2(i-1)-1 degree-2 exits away from v_1."""
    table = period_table(agent, 2)
    seq = [table[k % len(table)] for k in range(max(2 * (n - 2) - 1, 0))]
    return tuple(1 if seq[:2 * i - 3].count(1) >= i - 1 else 2
                 for i in range(2, n))


@dataclass(frozen=True)
class PathWorstCase:
    max_steps: int | None
    labeling: tuple[int, ...] | None
    unstopped: int


def path_worst_case(agent, n: int, cap: int) -> PathWorstCase:
    """Every labeling of the n-node path in lexicographic order, walking
    from v_n to v_1; a walk that does not arrive within cap steps counts
    as unstopped."""
    best = labeling = None
    unstopped = 0
    for bits in product((1, 2), repeat=n - 2):
        reached = walk(path_ports(n, bits), n - 1, agent, cap, target=0).reached
        if reached is None:
            unstopped += 1
        elif best is None or reached > best:
            best, labeling = reached, bits
    return PathWorstCase(best, labeling, unstopped)


def parse_graph_doc(text: str) -> list[list[int]]:
    doc = json.loads(text)
    if not isinstance(doc, dict) or set(doc) != {"n", "ports"}:
        raise ValueError("graph document needs exactly the fields n and ports")
    if len(doc["ports"]) != doc["n"]:
        raise ValueError("ports has the wrong number of rows")
    return doc["ports"]


def trace_problems(text: str, ports, agent, start: int,
                   length: int | None = None) -> list[str]:
    """Check an exported trace of a run stopped at coverage.

    Every row must chain from the previous one, leave through the port the
    agent's own rule gives for that node's visit index, and arrive where
    the graph's ports say. The rows must end exactly at coverage, and
    number `length` when that is given. The summary must match what the
    rows imply.
    """
    lines = text.split("\n")
    if lines[0] != "step,node,outport,next_node":
        return ["missing trace header"]
    n = len(ports)
    tables = [period_table(agent, len(row)) for row in ports]
    departures = [0] * n
    first = [None] * n
    count = [0] * n
    first[start] = 0
    count[start] = 1
    left = n - 1
    covered = 0 if left == 0 else None
    cur = start
    k = 0
    for k, line in enumerate(lines[1:], start=1):
        if line == "summary":
            break
        step, node, port, nxt = map(int, line.split(","))
        if step != k - 1 or node != cur:
            return [f"row {k - 1} does not chain: {line}"]
        table = tables[node]
        if port != table[departures[node] % len(table)]:
            return [f"row {k - 1}: port {port} breaks the agent's rule at node {node}"]
        departures[node] += 1
        if nxt != ports[node][port - 1]:
            return [f"row {k - 1}: next_node {nxt} is not port {port} of node {node}"]
        cur = nxt
        count[cur] += 1
        if first[cur] is None:
            first[cur] = k
            left -= 1
            if left == 0:
                covered = k
    else:
        return ["missing summary block"]
    rows = k - 1
    out = []
    if covered != rows:
        out.append(f"{rows} rows but coverage at step {covered}")
    if length is not None and rows != length:
        out.append(f"{rows} rows, expected {length}")
    tail = lines[k + 1:]
    fmt = lambda x: "none" if x is None else str(x)  # noqa: E731
    expected = [f"covered_at,{fmt(covered)}", "node,first_visit,visit_count"]
    expected += [f"{v},{fmt(first[v])},{count[v]}" for v in range(n)] + [""]
    for i in range(max(len(tail), len(expected))):
        got = tail[i] if i < len(tail) else None
        want = expected[i] if i < len(expected) else None
        if got != want:
            out.append(f"summary line {i} is {got!r}, expected {want!r}")
            break
    return out


def report_rows(csv_text: str) -> dict[tuple[str, int, str], tuple[str, str, str]]:
    """Report CSV as {(agent, n, param): (bound, measured, verdict)}, plus
    the aggregate verdict under key ("aggregate", 0, "")."""
    lines = csv_text.rstrip("\n").split("\n")
    if lines[0] != "experiment,agent,n,param,bound,measured,verdict":
        raise ValueError("missing report header")
    out = {}
    for line in lines[1:]:
        exp, agent, n, param, bound, measured, verdict = line.split(",")
        if exp == "aggregate":
            out[("aggregate", 0, "")] = ("", "", verdict)
        else:
            out[(agent, int(n), param)] = (bound, measured, verdict)
    return out
