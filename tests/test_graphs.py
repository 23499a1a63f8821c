"""Graph model: builders, invariants, validation, serialization."""

import hashlib
import json
import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_modules import load
from portwalk.adversary import build_cubic_instance
from portwalk.agents import RotorRouter
from portwalk.errors import (
    GraphParseError,
    GraphSemanticError,
    InvalidPortError,
    InvalidSizeError,
    InvalidVertexError,
)
from portwalk.graphs import (
    PathLabeling,
    PortLabeledGraph,
    bfs_distances,
    build_clique_pendant,
    build_path,
    deserialize,
    diameter,
    random_connected_graph,
    relabel,
    replace_pendant_with_path,
    serialize,
    validate,
)

ORACLES = load("oracles")


def graph_cases():
    yield build_path(PathLabeling(2, ()))
    yield build_path(PathLabeling(5, (1, 2, 1)))
    yield build_clique_pendant(2, 2)
    yield build_clique_pendant(6, 1)
    yield replace_pendant_with_path(build_clique_pendant(6, 1), 0,
                                    PathLabeling(8, (1,) * 5 + (2,)))
    yield random_connected_graph(9, 14, seed=3)


def diameter_cases():
    """Trees, complete graphs and graphs in between for n = 1..60, random path
    labelings, clique-pendants and the rotor-router's cubic instances."""
    rng = Random(7)
    for n in range(1, 61):
        full = n * (n - 1) // 2
        for m in sorted({n - 1, rng.randint(n - 1, full), full}):
            yield random_connected_graph(n, m, rng.randrange(2 ** 31))
    for n in range(2, 40):
        yield build_path(PathLabeling(n, tuple(rng.choice((1, 2)) for _ in range(n - 2))))
    for d in range(2, 15):
        yield build_clique_pendant(d, rng.randint(1, d))
    for n in (18, 30, 90, 180):
        yield build_cubic_instance(RotorRouter(), n).graph


class TestPathLabeling:
    def test_length_must_match(self):
        for entries in [(1,), (1, 2, 1)]:
            with pytest.raises(InvalidSizeError):
                PathLabeling(4, entries)

    def test_entries_must_be_ports(self):
        for n, entries in [(4, (1, 3)), (3, (1.0,)), (3, (True,))]:
            with pytest.raises(InvalidPortError):
                PathLabeling(n, entries)

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            PathLabeling(1, ())


class TestBuildPath:
    def test_two_nodes(self):
        g = build_path(PathLabeling(2, ()))
        assert g.port_map == ((1,), (0,))

    def test_three_nodes(self):
        # v_2 routes port 1 to v_3 and port 2 to v_1
        g = build_path(PathLabeling(3, (1,)))
        assert g.port_map == ((1,), (2, 0), (1,))

    def test_four_nodes(self):
        g = build_path(PathLabeling(4, (1, 2)))
        assert g.port_map == ((1,), (2, 0), (1, 3), (2,))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 11])
    def test_degree_sum(self, n):
        g = build_path(PathLabeling(n, (1,) * (n - 2)))
        assert sum(g.degree(v) for v in range(n)) == 2 * (n - 1)
        assert validate(g) == []

    def test_diameter(self):
        assert diameter(build_path(PathLabeling(6, (1,) * 4))) == 5


class TestBuildCliquePendant:
    def test_minimal(self):
        # K_2 with its two pendants degenerates to a 4-node path
        g = build_clique_pendant(2, 2)
        assert g.port_map == ((1, 2), (0, 3), (0,), (1,))

    def test_degrees(self):
        d = 6
        g = build_clique_pendant(d, 1)
        assert g.n == 2 * d
        assert all(g.degree(v) == d for v in range(d))
        assert all(g.degree(v) == 1 for v in range(d, 2 * d))
        assert validate(g) == []

    def test_pendant_behind_rare_port(self):
        d, p = 5, 3
        g = build_clique_pendant(d, p)
        for k in range(d):
            assert g.neighbor(k, p) == d + k

    def test_other_ports_in_id_order(self):
        g = build_clique_pendant(4, 2)
        # node 0: ports 1,3,4 go to clique neighbors 1,2,3 in order
        assert g.port_map[0] == (1, 4, 2, 3)

    def test_port_out_of_range(self):
        for p in (4, True, 2.0):
            with pytest.raises(InvalidPortError):
                build_clique_pendant(3, p)

    def test_degree_too_small(self):
        with pytest.raises(InvalidSizeError):
            build_clique_pendant(1, 1)


class TestReplacePendantWithPath:
    def test_small_caterpillar(self):
        g1 = build_clique_pendant(2, 1)
        g = replace_pendant_with_path(g1, 0, PathLabeling(4, (1, 2)))
        assert g.n == 2 * 2 - 1 + 3
        assert validate(g) == []
        # glued endpoint keeps port 1 into the path, back port 2
        assert g.port_map[3] == (4, 0)

    def test_node_count_and_degrees(self):
        d = 6
        g1 = build_clique_pendant(d, 1)
        g = replace_pendant_with_path(g1, 2, PathLabeling(8, (1,) * 5 + (2,)))
        assert g.n == 2 * d - 1 + 7 == 18
        assert all(g.degree(v) == d for v in range(d))
        assert validate(g) == []

    def test_replaced_port_leads_to_path(self):
        d, p = 4, 3
        g1 = build_clique_pendant(d, p)
        g = replace_pendant_with_path(g1, 1, PathLabeling(6, (2, 1, 2, 2)))
        entry = 2 * d - 1
        assert g.neighbor(1, p) == entry
        assert g.degree(entry) == 2
        # far target is the last id, degree 1
        assert g.degree(g.n - 1) == 1

    def test_surviving_pendants_keep_owners(self):
        d = 4
        g1 = build_clique_pendant(d, 1)
        v_star = 1
        g = replace_pendant_with_path(g1, v_star, PathLabeling(6, (1, 1, 1, 2)))
        # pendants of clique nodes 0,2,3 shift to ids 4,5,6
        assert g.port_map[4] == (0,)
        assert g.port_map[5] == (2,)
        assert g.port_map[6] == (3,)

    def test_back_port_orientation(self):
        g1 = build_clique_pendant(2, 1)
        g = replace_pendant_with_path(g1, 0, PathLabeling(4, (1, 1)))
        assert g.port_map[3] == (0, 4)

    def test_path_too_short(self):
        g1 = build_clique_pendant(3, 1)
        with pytest.raises(InvalidSizeError):
            replace_pendant_with_path(g1, 0, PathLabeling(4, (1, 2)))

    def test_not_a_clique_node(self):
        g1 = build_clique_pendant(3, 1)
        with pytest.raises(InvalidVertexError):
            replace_pendant_with_path(g1, 4, PathLabeling(5, (1, 1, 2)))
        with pytest.raises(InvalidVertexError):
            replace_pendant_with_path(g1, 9, PathLabeling(5, (1, 1, 2)))
        # the right size for a clique-with-pendants graph, but node 0 is a path end
        with pytest.raises(InvalidVertexError, match="^0 is not a clique node$"):
            replace_pendant_with_path(build_path(PathLabeling(4, (1, 1))), 0,
                                      PathLabeling(5, (1, 1, 2)))

    @pytest.mark.parametrize("v_star", [1.0, True, None, "0"], ids=repr)
    def test_non_integer_v_star(self, v_star):
        g1 = build_clique_pendant(3, 1)
        with pytest.raises(InvalidVertexError):
            replace_pendant_with_path(g1, v_star, PathLabeling(5, (1, 1, 2)))

    def test_not_an_instance(self):
        g1 = build_path(PathLabeling(3, (1,)))
        with pytest.raises(InvalidVertexError, match="not a clique-with-pendants instance"):
            replace_pendant_with_path(g1, 0, PathLabeling(5, (1, 1, 2)))

    def test_pendant_of_another_node(self):
        # id 3 is the pendant of clique node 1 once two pendants swap ids
        g1 = relabel(build_clique_pendant(3, 1), [0, 1, 2, 4, 3, 5])
        with pytest.raises(InvalidVertexError, match="^0 has no pendant to replace$"):
            replace_pendant_with_path(g1, 0, PathLabeling(5, (1, 1, 2)))


class TestAccessors:
    @pytest.mark.parametrize("port", [0, 3, True, 1.0, None], ids=repr)
    def test_neighbor_rejects_bad_port(self, port):
        with pytest.raises(InvalidPortError, match="^node 1 has no port"):
            build_path(PathLabeling(3, (1,))).neighbor(1, port)

    def test_port_to_non_neighbor(self):
        with pytest.raises(InvalidVertexError, match="^2 is not a neighbor of 0$"):
            build_path(PathLabeling(3, (1,))).port_to(0, 2)

    @pytest.mark.parametrize("v, message", [
        (-1, "^node must be in 0..3, got -1$"),
        (4, "^node must be in 0..3, got 4$"),
        (9, "^node must be in 0..3, got 9$"),
        (True, "^node must be an integer, got True$"),
        (1.0, "^node must be an integer, got 1.0$"),
    ], ids=repr)
    def test_readers_reject_bad_nodes(self, v, message):
        # a negative index would read node 3's row, and True node 1's
        g = build_path(PathLabeling(4, (1, 1)))
        readers = [lambda: g.degree(v), lambda: g.neighbor(v, 1),
                   lambda: g.port_to(v, 1), lambda: g.port_to(2, v),
                   lambda: bfs_distances(g, v)]
        for read in readers:
            with pytest.raises(InvalidVertexError, match=message):
                read()

    def test_readers_accept_every_node(self):
        g = build_path(PathLabeling(4, (1, 1)))
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
        assert [g.neighbor(v, 1) for v in range(4)] == [1, 2, 3, 2]
        assert g.port_to(3, 2) == 1 and g.port_to(1, 0) == 2
        assert bfs_distances(g, 3) == [3, 2, 1, 0]


class TestRandomConnectedGraph:
    def test_single_edge_forced(self):
        g = random_connected_graph(2, 1, seed=123)
        assert g.port_map == ((1,), (0,))

    def test_spanning_tree(self):
        g = random_connected_graph(5, 4, seed=7)
        assert g.m == 4
        assert validate(g) == []

    def test_too_many_edges(self):
        with pytest.raises(InvalidSizeError):
            random_connected_graph(3, 4, seed=0)

    def test_too_few_edges(self):
        with pytest.raises(InvalidSizeError):
            random_connected_graph(5, 3, seed=0)

    def test_deterministic(self):
        assert random_connected_graph(8, 12, seed=42) == \
            random_connected_graph(8, 12, seed=42)

    def test_documents_golden(self):
        # SHA-256 of serialize() over one node, spanning trees, complete
        # graphs and the cli-trace sizes (m = 2n). A faster generator must
        # draw the same numbers in the same order and keep these bytes.
        cases = [(1, 0, s) for s in (0, 1, 2)]
        cases += [(n, n - 1, s) for n in (2, 3, 17, 200) for s in (0, 5)]
        cases += [(n, n * (n - 1) // 2, s) for n in (2, 3, 9, 40) for s in (0, 5)]
        cases += [(n, 2 * n, s) for n in (800, 1600, 2500) for s in (0, 1, 2 ** 31 - 1)]
        h = hashlib.sha256()
        for n, m, seed in cases:
            h.update(serialize(random_connected_graph(n, m, seed)).encode())
        assert h.hexdigest() == (
            "360636866fb42f9fd3acae205306373565f005f6fff8a89181dae916c2422897")

    @given(st.integers(2, 20), st.data())
    @settings(max_examples=60, deadline=None)
    def test_always_valid(self, n, data):
        max_m = n * (n - 1) // 2
        m = data.draw(st.integers(n - 1, max_m))
        seed = data.draw(st.integers(0, 10 ** 6))
        g = random_connected_graph(n, m, seed)
        assert g.n == n
        assert g.m == m
        assert validate(g) == []


class TestValidate:
    def test_accepts_builders(self):
        for g in graph_cases():
            assert validate(g) == []

    def test_parallel_edge(self):
        g = PortLabeledGraph(3, ((1, 1), (0, 0, 2), (1,)))
        assert any("parallel" in v for v in validate(g))

    def test_self_loop(self):
        g = PortLabeledGraph(2, ((0,), (0,)))
        assert any("self-loop" in v for v in validate(g))

    def test_asymmetry(self):
        g = PortLabeledGraph(3, ((1,), (2,), (1,)))
        assert any("asymmetry" in v for v in validate(g))

    def test_disconnected(self):
        g = PortLabeledGraph(4, ((1,), (0,), (3,), (2,)))
        assert any("disconnected" in v for v in validate(g))

    def test_neighbor_out_of_range(self):
        g = PortLabeledGraph(2, ((5,), (0,)))
        assert any("out of range" in v for v in validate(g))

    def test_bool_neighbor(self):
        g = PortLabeledGraph(2, ((True,), (0,)))
        assert validate(g) == ["node 0 port 1: neighbor True out of range"]

    def test_asymmetry_strings(self):
        assert validate(PortLabeledGraph(3, ((1,), (2,), (1,)))) == [
            "edge 0-1: 1 lists 0 0 times (asymmetry)"]
        assert validate(PortLabeledGraph(4, ((1, 2, 3), (0,), (1,), (0, 2)))) == [
            "edge 0-2: 2 lists 0 0 times (asymmetry)",
            "edge 2-1: 1 lists 2 0 times (asymmetry)",
            "edge 3-2: 2 lists 3 0 times (asymmetry)",
        ]

    def test_no_nodes(self):
        assert validate(PortLabeledGraph(0, ())) == ["node count 0 is not positive"]

    def test_row_count(self):
        assert validate(PortLabeledGraph(2, ((1,),))) == ["port_map has 1 rows for 2 nodes"]


def validate_per_entry(n, rows):
    """validate as one check per entry, the loop that writes its messages."""
    out = []
    if n < 1:
        return [f"node count {n} is not positive"]
    if len(rows) != n:
        return [f"port_map has {len(rows)} rows for {n} nodes"]
    neighbors = []
    for v, row in enumerate(rows):
        seen = set()
        neighbors.append(seen)
        for p, w in enumerate(row, start=1):
            if not (isinstance(w, int) and not isinstance(w, bool) and 0 <= w <= n - 1):
                out.append(f"node {v} port {p}: neighbor {w!r} out of range")
                continue
            if w == v:
                out.append(f"node {v} port {p}: self-loop")
                continue
            if w in seen:
                out.append(f"node {v}: neighbor {w} listed twice (parallel edge)")
            seen.add(w)
    if out:
        return out
    for v, row in enumerate(rows):
        for w in row:
            if v not in neighbors[w]:
                out.append(f"edge {v}-{w}: {w} lists {v} 0 times (asymmetry)")
    if out:
        return out
    reached, queue = {0}, [0]
    for v in queue:
        for w in rows[v]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    return [] if len(reached) == n else ["graph is disconnected"]


def deserialize_per_entry(n, rows):
    """The error deserialize raises on {"n": n, "ports": rows}, checked entry
    by entry, as (type, message); None for a sound document."""
    for v, row in enumerate(rows):
        for w in row:
            if not isinstance(w, int) or isinstance(w, bool):
                return GraphParseError, f"field 'ports' row {v}: non-integer entry"
    if len(rows) != n:
        return GraphSemanticError, f"'ports' has {len(rows)} rows for n={n}"
    problems = validate_per_entry(n, rows)
    return (GraphSemanticError, "; ".join(problems)) if problems else None


CORRUPTIONS = ("bool", "float", "negative", "past_n", "self_loop", "repeat", "one_sided",
               "drop", "list")


@st.composite
def corrupted_port_maps(draw):
    """A random connected graph's rows, perhaps beside a second component,
    with up to three entries replaced, inserted or dropped."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(n - 1, n * (n - 1) // 2))
    rows = [list(r) for r in random_connected_graph(n, m, draw(st.integers(0, 999))).port_map]
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        other = random_connected_graph(k, k - 1, draw(st.integers(0, 999)))
        rows += [[w + n for w in r] for r in other.port_map]
    size = len(rows)
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.integers(0, size - 1))
        row = rows[v]
        kind = draw(st.sampled_from(CORRUPTIONS))
        if kind == "drop":
            if row:
                del row[draw(st.integers(0, len(row) - 1))]
            continue
        if kind == "bool":
            value = draw(st.booleans())
        elif kind == "float":
            value = float(draw(st.integers(0, size - 1)))
        elif kind == "negative":
            value = draw(st.integers(-3, -1))
        elif kind == "past_n":
            value = draw(st.integers(size, size + 2))
        elif kind == "self_loop":
            value = v
        elif kind == "repeat":
            value = draw(st.sampled_from(row)) if row else v
        elif kind == "one_sided":
            value = draw(st.integers(0, size - 1))
        else:
            value = draw(st.lists(st.integers(0, size), max_size=2))
        i = draw(st.integers(0, len(row)))
        if i < len(row) and draw(st.booleans()):
            row[i] = value
        else:
            row.insert(i, value)
    return rows


class TestValidateMatchesPerEntryReference:
    """The set-based checks give the per-entry loop's messages, in order."""

    @given(corrupted_port_maps())
    @settings(max_examples=200, deadline=None)
    def test_validate(self, rows):
        g = PortLabeledGraph(len(rows), tuple(map(tuple, rows)))
        assert validate(g) == validate_per_entry(len(rows), rows)

    @given(corrupted_port_maps(), st.integers(-1, 1))
    @settings(max_examples=200, deadline=None)
    def test_deserialize(self, rows, extra):
        n = len(rows) + extra
        try:
            deserialize(json.dumps({"n": n, "ports": rows}))
            got = None
        except (GraphParseError, GraphSemanticError) as e:
            got = type(e), str(e)
        assert got == deserialize_per_entry(n, rows)

    @pytest.mark.parametrize("rows, message", [
        ((([1],), (0,)), "node 0 port 1: neighbor [1] out of range"),
        (((1, [0]), (0,)), "node 0 port 2: neighbor [0] out of range"),
        (((1,), ([],)), "node 1 port 1: neighbor [] out of range"),
    ])
    def test_list_entry_is_out_of_range(self, rows, message):
        assert validate(PortLabeledGraph(2, rows)) == [message]


class TestRelabel:
    def test_identity(self):
        g = build_clique_pendant(3, 2)
        assert relabel(g, list(range(g.n))) == g

    def test_permuted_is_valid(self):
        g = build_clique_pendant(3, 2)
        h = relabel(g, [3, 0, 5, 1, 4, 2])
        assert validate(h) == []
        assert sorted(h.degree(v) for v in range(h.n)) == \
            sorted(g.degree(v) for v in range(g.n))

    def test_bad_permutation(self):
        g = build_path(PathLabeling(3, (1,)))
        with pytest.raises(InvalidVertexError):
            relabel(g, [0, 0, 1])

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 3], [-1, 0, 1]], ids=repr)
    def test_non_permutation_message(self, perm):
        g = build_path(PathLabeling(3, (1,)))
        with pytest.raises(InvalidVertexError,
                           match="^perm is not a permutation of node ids$"):
            relabel(g, perm)

    @pytest.mark.parametrize("perm", [[True, False, 2], [0.0, 1.0, 2.0], [0, 1, None]],
                             ids=repr)
    def test_non_int_entries_rejected(self, perm):
        g = build_path(PathLabeling(3, (1,)))
        with pytest.raises(InvalidVertexError, match="^perm entry must be an integer, got "):
            relabel(g, perm)


class TestBfs:
    def test_distances_on_path(self):
        g = build_path(PathLabeling(4, (1, 1)))
        assert bfs_distances(g, 0) == [0, 1, 2, 3]

    def test_diameter_clique_pendant(self):
        assert diameter(build_clique_pendant(4, 1)) == 3

    def test_diameter_matches_bfs_from_every_node(self):
        for g in diameter_cases():
            ports = ORACLES.parse_graph_doc(serialize(g))
            assert diameter(g) == ORACLES.diameter(ports), (g.n, g.m)
            for s in range(g.n):
                assert bfs_distances(g, s) == ORACLES.bfs(ports, s), (g.n, g.m, s)

    def test_diameter_one_node(self):
        assert diameter(PortLabeledGraph(1, ((),))) == 0

    @pytest.mark.parametrize("rows", [
        ((1,), (0,), (3,), (2,)),  # two disjoint edges
        ((), (2,), (1,)),          # an isolated node beside an edge
    ])
    def test_diameter_disconnected(self, rows):
        g = PortLabeledGraph(len(rows), rows)
        with pytest.raises(InvalidVertexError, match="^graph is disconnected$"):
            diameter(g)
        for s in range(g.n):  # unreachable nodes read None
            dist = bfs_distances(g, s)
            assert None in dist and dist == ORACLES.bfs([list(row) for row in rows], s)


class TestSerialization:
    def test_round_trip_all_builders(self):
        for g in graph_cases():
            assert deserialize(serialize(g)) == g

    def test_document_shape(self):
        g = build_path(PathLabeling(2, ()))
        assert serialize(g) == '{"n":2,"ports":[[1],[0]]}\n'

    def test_empty_document(self):
        with pytest.raises(GraphParseError):
            deserialize("")

    def test_missing_field(self):
        with pytest.raises(GraphParseError, match="ports"):
            deserialize('{"n":2}')

    def test_unknown_field(self):
        with pytest.raises(GraphParseError, match="extra"):
            deserialize('{"n":2,"ports":[[1],[0]],"extra":1}')

    def test_duplicate_field(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            deserialize('{"n":2,"n":2,"ports":[[1],[0]]}')

    def test_first_duplicated_field_named(self):
        with pytest.raises(GraphParseError, match="^duplicate field 'a'$"):
            deserialize('{"a":1,"b":2,"b":3,"a":4}')

    def test_many_fields_rejected_quickly(self):
        # 20,000 unknown fields took 7 s when each key was counted in a list
        fields = ",".join(f'"f{i}":0' for i in range(20_000))
        start = time.perf_counter()
        with pytest.raises(GraphParseError, match="^unknown field 'f0'$"):
            deserialize('{"n":2,"ports":[[1],[0]],' + fields + "}")
        assert time.perf_counter() - start < 2.0

    def test_dense_round_trip_quickly(self):
        # K_600 took 3.9 s when validate counted each arc's reverse in a row
        n = 600
        g = PortLabeledGraph(n, tuple(tuple(w for w in range(n) if w != v)
                                      for v in range(n)))
        text = serialize(g)
        start = time.perf_counter()
        assert deserialize(text) == g
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("text, message", [
        ("[]", "^top level is not an object$"),
        ('{"n":"2","ports":[[1],[0]]}', "^field 'n' must be an integer, got '2'$"),
        ('{"n":2.0,"ports":[[1],[0]]}', "^field 'n' must be an integer, got 2.0$"),
        ('{"n":true,"ports":[[1],[0]]}', "^field 'n' must be an integer, got True$"),
        ('{"n":1,"ports":[1]}', "^field 'ports' must be a list of lists$"),
        ('{"n":1,"ports":{}}', "^field 'ports' must be a list of lists$"),
    ])
    def test_malformed_document(self, text, message):
        with pytest.raises(GraphParseError, match=message):
            deserialize(text)

    def test_non_integer_entry(self):
        with pytest.raises(GraphParseError):
            deserialize('{"n":2,"ports":[["a"],[0]]}')

    def test_semantic_self_loop(self):
        with pytest.raises(GraphSemanticError):
            deserialize('{"n":2,"ports":[[1],[1]]}')

    def test_semantic_out_of_range(self):
        with pytest.raises(GraphSemanticError):
            deserialize('{"n":2,"ports":[[2],[0]]}')

    def test_semantic_row_count(self):
        with pytest.raises(GraphSemanticError):
            deserialize('{"n":3,"ports":[[1],[0]]}')

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, n, data):
        m = data.draw(st.integers(n - 1, n * (n - 1) // 2))
        seed = data.draw(st.integers(0, 10 ** 6))
        g = random_connected_graph(n, m, seed)
        assert deserialize(serialize(g)) == g
