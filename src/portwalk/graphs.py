"""Anonymous port-labeled graphs: data model, builders, validation, I/O.

A port-labeled graph is a connected simple undirected graph where every
node of degree d labels its incident edges 1..d. Node ids (0-based) exist
only for the harness; agents walking the graph never observe them.

The builders here produce the arenas the rest of the package runs on:
plain paths with chosen internal labelings, a clique with one pendant
hanging off each clique node, that same graph with one pendant replaced
by a path, and seeded random connected graphs. Sizes, ports and nodes
are checked by errors.whole; validate and deserialize run in O(n + m).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from itertools import chain
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    GraphParseError,
    GraphSemanticError,
    InvalidPortError,
    InvalidSizeError,
    InvalidVertexError,
    is_whole,
    whole,
)


class PortLabeledGraph(NamedTuple):
    """Immutable port-labeled graph.

    port_map[v] is an ordered tuple of neighbor ids; the neighbor at index
    p-1 is reached by leaving v through port p. Degree of v is simply
    len(port_map[v]).
    """

    n: int
    port_map: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.port_map) // 2

    def node(self, v: int) -> int:
        """v itself if it is a node id (an int, not a bool, in 0..n-1);
        else raises InvalidVertexError."""
        return whole(v, "node", InvalidVertexError, 0, self.n - 1)

    def degree(self, v: int) -> int:
        return len(self.port_map[self.node(v)])

    def neighbor(self, v: int, port: int) -> int:
        """Node reached by leaving v through the given 1-based port."""
        row = self.port_map[self.node(v)]
        if not is_whole(port, 1, len(row)):
            raise InvalidPortError(f"node {v} has no port {port} (degree {len(row)})")
        return row[port - 1]

    def port_to(self, u: int, v: int) -> int:
        """Port at u whose edge leads to v (unique in a simple graph)."""
        row = self.port_map[self.node(u)]
        if self.node(v) not in row:
            raise InvalidVertexError(f"{v} is not a neighbor of {u}")
        return row.index(v) + 1


def _as_graph(n: int, rows: Iterable[Sequence[int]]) -> PortLabeledGraph:
    return PortLabeledGraph(n, tuple(tuple(row) for row in rows))


class PathLabeling(NamedTuple("PathLabeling", [("n", int), ("toward_far", tuple[int, ...])])):
    """Port choices for the internal nodes of an n-node path.

    The path's nodes are v_1 .. v_n with v_1 the far (target) endpoint.
    toward_far[i-2] is the port label (1 or 2) that node v_i assigns to
    the arc pointing away from v_1, i.e. toward v_{i+1}, for each internal
    node v_i with 2 <= i <= n-1. Endpoints have a single forced port.
    toward_far is made a tuple and checked on construction.
    """

    __slots__ = ()

    def __new__(cls, n: int, toward_far: Iterable[int]):
        whole(n, "n", InvalidSizeError, 2)
        toward_far = tuple(toward_far)
        if len(toward_far) != n - 2:
            raise InvalidSizeError(
                f"labeling for {n} nodes needs {n - 2} entries, got {len(toward_far)}"
            )
        for e in toward_far:
            whole(e, "toward_far entry", InvalidPortError, 1, 2)
        return super().__new__(cls, n, toward_far)


def build_path(labeling: PathLabeling) -> PortLabeledGraph:
    """Build the path v_1 - v_2 - ... - v_n with the given internal labeling.

    Node v_k gets id k-1, so id 0 is the far endpoint v_1 and id n-1 is
    v_n. Endpoints have degree 1 with single port 1; internal node v_i
    routes port toward_far[i-2] to v_{i+1} and the other port to v_{i-1}.
    """
    n = labeling.n
    rows = [[i, i - 2] if away == 1 else [i - 2, i]  # v_i: v_(i+1) is id i, v_(i-1) id i - 2
            for i, away in enumerate(labeling.toward_far, 2)]
    return _as_graph(n, [[1], *rows, [n - 2]])


def build_clique_pendant(d: int, p: int) -> PortLabeledGraph:
    """Clique on d nodes with one pendant attached to each clique node.

    Clique nodes get ids 0..d-1 and all have degree d; the pendant of
    clique node k gets id d+k. At every clique node the port leading to
    its pendant is p; the remaining ports 1..d minus p go to the clique
    neighbors in increasing id order. Pendants have a single port 1.
    """
    whole(d, "clique degree", InvalidSizeError, 2)
    whole(p, "pendant port", InvalidPortError, 1, d)
    rows = [[j for j in range(d) if j != k] for k in range(d)]
    for k, row in enumerate(rows):
        row.insert(p - 1, d + k)
    return _as_graph(2 * d, rows + [[k] for k in range(d)])


def replace_pendant_with_path(g1: PortLabeledGraph, v_star: int,
                              labeling: PathLabeling) -> PortLabeledGraph:
    """Swap the pendant of one clique node for a path.

    g1 must be a clique-with-pendants graph (see build_clique_pendant)
    and v_star one of its clique nodes. The labeling describes the path
    including v_star itself as its last node v_n: v_star's pendant is
    removed and v_{n-1} .. v_1 take its place, so v_star's old pendant
    port leads to the entry endpoint v_{n-1}, whose labeled port toward
    v_n leads back to v_star, and v_1 is the far target.

    Ids: clique nodes keep 0..d-1; surviving pendants shift down past the
    removed one; v_{n-1} .. v_1 take the last labeling.n - 1 ids in that
    order, from the entry endpoint to the far target.
    """
    d = g1.n // 2
    if g1.n != 2 * d or d < 2:
        raise InvalidVertexError("graph is not a clique-with-pendants instance")
    if g1.degree(whole(v_star, "v_star", InvalidVertexError, 0, d - 1)) != d:
        raise InvalidVertexError(f"{v_star} is not a clique node")
    removed = d + v_star
    if g1.degree(removed) != 1 or g1.port_map[removed][0] != v_star:
        raise InvalidVertexError(f"{v_star} has no pendant to replace")
    last = labeling.n - 1  # build_path's id for v_n, which is v_star here
    if last < d + 1:
        raise InvalidSizeError(
            f"replacement path needs at least {d + 1} nodes besides v_star, got {last}"
        )

    rows = [[w if w < removed else w - 1 for w in row]
            for v, row in enumerate(g1.port_map) if v != removed]
    entry = 2 * d - 1
    rows[v_star][g1.port_to(v_star, removed) - 1] = entry
    # build_path gives v_k id k-1; glued in, v_k (k < n) gets entry + last - k.
    ids = [entry + last - 1 - j for j in range(last)] + [v_star]
    path = build_path(labeling).port_map
    rows += [[ids[w] for w in path[j]] for j in reversed(range(last))]
    return _as_graph(entry + last, rows)


def random_connected_graph(n: int, m: int, seed: int) -> PortLabeledGraph:
    """Seeded random connected simple graph with random port orders.

    A random spanning tree guarantees connectivity, then extra edges are
    drawn uniformly from the remaining non-edges; finally each node's
    neighbor ordering (its port assignment) is shuffled. Deterministic
    for a fixed (n, m, seed). An edge {a < b} is kept as the int a*n + b,
    whose order is that of the pair (a, b).
    """
    whole(n, "n", InvalidSizeError, 1)
    whole(m, "m", InvalidSizeError, n - 1, n * (n - 1) // 2)
    rng = Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges: set[int] = set()
    for idx in range(1, n):
        a, b = order[idx], order[rng.randrange(idx)]
        edges.add(a * n + b if a < b else b * n + a)
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add(a * n + b if a < b else b * n + a)
    adj: list[list[int]] = [[] for _ in range(n)]
    for key in sorted(edges):
        a, b = divmod(key, n)
        adj[a].append(b)
        adj[b].append(a)
    for row in adj:
        rng.shuffle(row)
    return _as_graph(n, adj)


def relabel(g: PortLabeledGraph, perm: Sequence[int]) -> PortLabeledGraph:
    """Apply a node-id permutation; perm[v] is v's new id. Ports move along.

    Raises InvalidVertexError unless every entry is an int (not a bool)
    and perm holds each of 0..n-1 once.
    """
    for p in perm:
        whole(p, "perm entry", InvalidVertexError)
    if sorted(perm) != list(range(g.n)):
        raise InvalidVertexError("perm is not a permutation of node ids")
    rows: list[tuple[int, ...]] = [()] * g.n
    for v in range(g.n):
        rows[perm[v]] = tuple(perm[w] for w in g.port_map[v])
    return PortLabeledGraph(g.n, tuple(rows))


def bfs_distances(g: PortLabeledGraph, start: int) -> list[int | None]:
    """Hop distances from start; None marks unreachable nodes."""
    dist: list[int | None] = [None] * g.n
    dist[g.node(start)] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g.port_map[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def diameter(g: PortLabeledGraph) -> int:
    """Exact diameter by breadth-first search from every node at once.

    After r rounds, ball[v] is a Python-int bitset of the nodes within r
    hops of v. Each round ORs every live ball with its neighbors' balls
    from the previous round, so it adds exactly one hop; a node leaves the
    live list once its ball holds all n nodes, and D is the number of
    rounds until none is live. A live ball that stops growing is a whole
    component short of n nodes, so the graph is disconnected. Cost: O(D*m)
    ORs of n-bit ints, holding two lists of n n-bit ints (about n^2/4
    bytes); with D near n, as on a long path, that is no faster than n
    separate searches.
    """
    full = (1 << g.n) - 1
    ball = [1 << v for v in range(g.n)]
    live = [v for v in range(g.n) if ball[v] != full]
    rounds = 0
    while live:
        grown = ball[:]
        still = []
        for v in live:
            b = ball[v]
            for w in g.port_map[v]:
                b |= ball[w]
            if b == ball[v]:
                raise InvalidVertexError("graph is disconnected")
            grown[v] = b
            if b != full:
                still.append(v)
        ball, live = grown, still
        rounds += 1
    return rounds


def validate(g: PortLabeledGraph) -> list[str]:
    """Check every structural invariant; return [] when the graph is sound.

    Violations are returned as human-readable strings naming the node or
    edge and the invariant broken; they are data, not exceptions. One
    C-level pass checks that every entry is an int in range; each row is
    then checked by its set for repeats and self-loops. The per-entry loop
    that builds the messages runs on every row when that pass fails, and
    otherwise only on a row whose set check fails.
    """
    out: list[str] = []
    if g.n < 1:
        return [f"node count {g.n} is not positive"]
    if len(g.port_map) != g.n:
        return [f"port_map has {len(g.port_map)} rows for {g.n} nodes"]
    flat = [*chain.from_iterable(g.port_map)]
    ints = (set(map(type, flat)) <= {int}
            and (not flat or 0 <= min(flat) and max(flat) <= g.n - 1))
    neighbors: list[set[int]] = []
    for v, row in enumerate(g.port_map):
        seen = set(row) if ints else set()  # an unhashable entry fails the type check
        if not ints or len(seen) != len(row) or v in seen:
            seen.clear()
            for p, w in enumerate(row, start=1):
                if not is_whole(w, 0, g.n - 1):
                    out.append(f"node {v} port {p}: neighbor {w!r} out of range")
                    continue
                if w == v:
                    out.append(f"node {v} port {p}: self-loop")
                    continue
                if w in seen:
                    out.append(f"node {v}: neighbor {w} listed twice (parallel edge)")
                seen.add(w)
        neighbors.append(seen)
    if out:
        return out
    for v, row in enumerate(g.port_map):
        for w in row:
            if v not in neighbors[w]:  # no parallel edges: w lists v once or never
                out.append(f"edge {v}-{w}: {w} lists {v} 0 times (asymmetry)")
    if out:
        return out
    if any(x is None for x in bfs_distances(g, 0)):
        out.append("graph is disconnected")
    return out


def serialize(g: PortLabeledGraph) -> str:
    """Graph document: {"n": ..., "ports": [[neighbors in port order], ...]}."""
    doc = {"n": g.n, "ports": [list(row) for row in g.port_map]}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _reject_duplicate_keys(pairs):
    counts = Counter(k for k, _ in pairs)
    for k, _ in pairs:
        if counts[k] > 1:
            raise GraphParseError(f"duplicate field '{k}'")
    return dict(pairs)


def deserialize(text: str) -> PortLabeledGraph:
    """Parse a graph document and validate it.

    Malformed text raises GraphParseError with a location or field name;
    a well-formed document describing a broken graph raises
    GraphSemanticError listing the violations.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as e:
        raise GraphParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise GraphParseError("document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise GraphParseError("top level is not an object")
    missing = {"n", "ports"} - set(doc)
    if missing:
        raise GraphParseError(f"missing field '{sorted(missing)[0]}'")
    extra = set(doc) - {"n", "ports"}
    if extra:
        raise GraphParseError(f"unknown field '{sorted(extra)[0]}'")
    n = doc["n"]
    ports = doc["ports"]
    whole(n, "field 'n'", GraphParseError)
    if not isinstance(ports, list) or not all(isinstance(r, list) for r in ports):
        raise GraphParseError("field 'ports' must be a list of lists")
    if not set(map(type, chain.from_iterable(ports))) <= {int}:
        for v, row in enumerate(ports):
            for w in row:
                if not is_whole(w):
                    raise GraphParseError(f"field 'ports' row {v}: non-integer entry")
    if len(ports) != n:
        raise GraphSemanticError(f"'ports' has {len(ports)} rows for n={n}")
    g = _as_graph(n, ports)
    violations = validate(g)
    if violations:
        raise GraphSemanticError("; ".join(violations))
    return g
