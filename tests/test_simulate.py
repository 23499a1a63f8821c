"""Engine semantics: stepping, stop conditions, trace statistics.

Expected step counts and move lists in this module were derived by hand
from the visit-counting convention (start node occupied at step 0, first
exit uses visit index 1) before the engine existed.
"""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_modules import load
from portwalk.adversary import worst_case_path_labeling
from portwalk.agents import (
    CyclicAgent,
    PortFunction,
    RotorRouter,
    ScriptedPortFunction,
    WhiteboardAgent,
    port_sequence,
    whiteboard_rotor_router,
)
from portwalk.errors import (
    AgentViolationError,
    HorizonExceededError,
    InvalidArcError,
    InvalidLimitError,
    InvalidVertexError,
)
from portwalk.experiments import _Row, battery
from portwalk.graphs import (
    PathLabeling,
    build_clique_pendant,
    build_path,
    deserialize,
    random_connected_graph,
    relabel,
)
from portwalk.simulate import (
    _arcs,
    arc_traversals,
    export_trace,
    outports_taken,
    run,
    visit_count_upto,
)

ROTOR = RotorRouter()
BATTERY = [
    RotorRouter(),
    CyclicAgent((1,), name="always-1"),
    CyclicAgent((2, 1), name="alternating-2"),
    CyclicAgent((1, 1, 2), name="biased-112"),
]


ORACLES = load("oracles")


def path3():
    return build_path(PathLabeling(3, (1,)))


def path4():
    """v_4 - v_3 - v_2 - v_1 as nodes 3 - 2 - 1 - 0, every label 1.

    The rotor-router from node 3 moves 3 2 3 2 1 2 3 2 1 0: first visits
    at steps 1 (node 2), 4 (node 1) and 9 (node 0, full coverage).
    """
    return build_path(PathLabeling(4, (1, 1)))


class TestStep:
    def test_forced_move_on_edge(self):
        g = build_path(PathLabeling(2, ()))
        t = run(g, ROTOR, 0, ("steps", 1))
        assert t.final == 1
        assert t.steps == 1
        assert t.moves == [(0, 1)]
        assert t.visit_counts == [1, 1]

    def test_first_step_from_far_end(self):
        t = run(path3(), ROTOR, 2, ("steps", 1))
        assert t.final == 1

    def test_horizon_propagates(self):
        g = path3()
        agent = ScriptedPortFunction({2: [1]}, "fail")
        # out of v_3, v_2's one scripted exit back to v_3, out of v_3 again
        assert run(g, agent, 2, ("steps", 3)).moves == [(2, 1), (1, 1), (2, 1)]
        for record in (True, False):
            t = run(g, agent, 2, ("steps", 3), record_moves=record)
            assert (t.final, t.visit_counts) == (1, [0, 2, 2])
            # second visit to v_2 is beyond the table
            with pytest.raises(HorizonExceededError,
                               match="^degree-2 table has 1 entries, visit 2 requested$") as e:
                run(g, agent, 2, ("steps", 4), record_moves=record)
            assert type(e.value) is HorizonExceededError

    def test_bad_start(self):
        with pytest.raises(InvalidVertexError):
            run(path3(), ROTOR, 5, ("steps", 1))


class TestRun:
    def test_two_node_cover(self):
        g = build_path(PathLabeling(2, ()))
        t = run(g, ROTOR, 1, "covered")
        assert t.covered_at == 1
        assert t.stopped
        assert t.moves == [(1, 1)]

    def test_three_node_target(self):
        t = run(path3(), ROTOR, 2, ("target", 0))
        assert t.stopped
        assert t.steps == 4
        assert t.moves == [(2, 1), (1, 1), (2, 1), (1, 2)]
        assert t.first_visit == [4, 1, 0]

    def test_ping_pong_never_stops(self):
        agent = ScriptedPortFunction({2: [1]}, "cycle")
        t = run(path3(), agent, 2, ("target", 0), cap=100)
        assert not t.stopped
        assert t.steps == 100
        assert t.first_visit[0] is None

    def test_steps_stop(self):
        t = run(path3(), ROTOR, 2, ("steps", 3))
        assert t.stopped
        assert t.steps == 3

    def test_steps_stop_capped(self):
        t = run(path3(), ROTOR, 2, ("steps", 50), cap=10)
        assert not t.stopped
        assert t.steps == 10

    def test_start_is_target(self):
        for record in (True, False):
            t = run(path3(), ROTOR, 0, ("target", 0), record_moves=record)
            assert t.stopped
            assert t.steps == 0
            assert (t.final, t.covered_at) == (0, None)
            assert (t.first_visit, t.visit_counts) == ([0, None, None], [1, 0, 0])

    def test_bad_stop(self):
        with pytest.raises(ValueError):
            run(path3(), ROTOR, 0, "everywhere")

    @pytest.mark.parametrize("stop, cap", [
        (("steps", 3), 0),
        (("steps", 3), True),
        (("steps", 3), 5.0),
        (("steps", -1), None),
        (("steps", 2.5), None),
        (("steps", True), None),
        (("target", True), None),
        (("target", 0.0), None),
    ])
    def test_bad_limits(self, stop, cap):
        with pytest.raises(InvalidLimitError):
            run(path3(), ROTOR, 2, stop, cap=cap)

    @pytest.mark.parametrize("start, stop", [
        (-1, "covered"), (3, "covered"), (True, "covered"), (1.0, "covered"),
        (None, "covered"), (0, ("target", -1)), (0, ("target", 3)),
    ])
    def test_bad_nodes(self, start, stop):
        with pytest.raises(InvalidVertexError):
            run(path3(), ROTOR, start, stop)

    @pytest.mark.parametrize("port", [1.0, None, "1", True])
    def test_non_integer_port(self, port):
        agent = PortFunction()
        agent.ports = lambda d: itertools.repeat(port)
        with pytest.raises(AgentViolationError, match=f"port {port!r}"):
            run(path3(), agent, 0, "covered")

    def test_agent_type_error_propagates(self):
        def ports(d):
            yield None + 1
        agent = PortFunction()
        agent.ports = ports
        with pytest.raises(TypeError):
            run(path3(), agent, 0, "covered")

    def test_degree_zero_start_takes_no_step(self):
        g = deserialize('{"n": 1, "ports": [[]]}')
        t = run(g, ROTOR, 0, ("steps", 3))
        assert t.steps == 0
        assert t.moves == []
        assert not t.stopped
        assert t.covered_at == 0
        for stop, record in itertools.product(["covered", ("steps", 5), ("target", 0)],
                                              (True, False)):
            t = run(g, ROTOR, 0, stop, record_moves=record)
            assert (t.steps, t.final, t.covered_at) == (0, 0, 0)
            assert t.stopped == (stop[0] != "steps")
            assert (t.first_visit, t.visit_counts) == ([0], [1])

    def test_covered_at_is_max_first_visit(self):
        g = random_connected_graph(10, 20, seed=9)
        t = run(g, ROTOR, 0, "covered")
        assert t.covered_at == max(t.first_visit)

    def test_replay_determinism(self):
        g = random_connected_graph(12, 18, seed=4)
        a = run(g, ROTOR, 3, "covered")
        b = run(g, ROTOR, 3, "covered")
        assert a == b


class TestFirstVisitDetection:
    """A first visit is taken when the walk next tries to leave the node,
    so an arrival on the walk's last move is caught after the loop.
    TestRun and TestStep cover start == target, a degree-0 start and a
    fail script past its table in both modes."""

    @pytest.mark.parametrize("record", [True, False])
    def test_new_node_on_the_cap(self, record):
        t = run(path4(), ROTOR, 3, "covered", cap=4, record_moves=record)
        assert (t.steps, t.final, t.stopped, t.covered_at) == (4, 1, False, None)
        assert t.first_visit == [None, 4, 1, 0]
        assert t.visit_counts == [0, 1, 2, 2]

    @pytest.mark.parametrize("record", [True, False])
    def test_steps_stop_on_a_new_node(self, record):
        t = run(path4(), ROTOR, 3, ("steps", 4), record_moves=record)
        assert (t.steps, t.final, t.stopped, t.covered_at) == (4, 1, True, None)
        assert t.first_visit == [None, 4, 1, 0]
        assert t.visit_counts == [0, 1, 2, 2]

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("target, cap", [(1, 4), (0, 9)])
    def test_target_on_the_cap(self, target, cap, record):
        t = run(path4(), ROTOR, 3, ("target", target), cap=cap, record_moves=record)
        assert (t.steps, t.final, t.stopped) == (cap, target, True)
        assert t.first_visit[target] == cap
        short = run(path4(), ROTOR, 3, ("target", target), cap=cap - 1, record_moves=record)
        assert (short.steps, short.stopped, short.first_visit[target]) == (cap - 1, False, None)

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("stop, cap", [("covered", 9), (("steps", 9), None), (("steps", 9), 9)])
    def test_coverage_on_the_last_step(self, stop, cap, record):
        t = run(path4(), ROTOR, 3, stop, cap=cap, record_moves=record)
        assert (t.steps, t.final, t.stopped, t.covered_at) == (9, 0, True, 9)
        assert t.first_visit == [9, 4, 1, 0]
        assert t.visit_counts == [1, 2, 4, 3]

    @pytest.mark.parametrize("record", [True, False])
    def test_zero_steps(self, record):
        t = run(path4(), ROTOR, 3, ("steps", 0), record_moves=record)
        assert (t.steps, t.final, t.stopped, t.covered_at) == (0, 3, True, None)
        assert t.first_visit == [None, None, None, 0]
        assert t.visit_counts == [0, 0, 0, 1]

    @pytest.mark.parametrize("record", [True, False])
    def test_missing_table_raises_on_a_new_nodes_first_exit(self, record):
        agent = ScriptedPortFunction({}, "fail")
        assert run(path4(), agent, 3, ("steps", 1), record_moves=record).final == 2
        with pytest.raises(HorizonExceededError, match="^no table for degree 2$") as e:
            run(path4(), agent, 3, ("steps", 2), record_moves=record)
        assert type(e.value) is HorizonExceededError

    @pytest.mark.parametrize("record", [True, False])
    def test_agent_violation_propagates(self, record):
        # port_d(2) leaves state 2, which needs 2 bits: node 3's second exit
        agent = WhiteboardAgent(transition=lambda s, d: (s + 1, 1), memory_bits=1)
        assert run(path4(), agent, 3, ("steps", 2), record_moves=record).final == 3
        with pytest.raises(AgentViolationError,
                           match="^node state 2 needs more than 1 bits at degree 1$") as e:
            run(path4(), agent, 3, ("steps", 3), record_moves=record)
        assert type(e.value) is AgentViolationError


class TestEngineMatchesOracle:
    """run() against bench/oracles.walk, a walker that shares no code with it."""

    @given(
        st.tuples(st.integers(2, 9), st.integers(0, 10 ** 6)).flatmap(lambda t: st.tuples(
            st.just(t[0]), st.integers(t[0] - 1, t[0] * (t[0] - 1) // 2), st.just(t[1]))),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_walk(self, params, data):
        n, m, seed = params
        g = random_connected_graph(n, m, seed)
        ports = [list(row) for row in g.port_map]
        tables = {d: st.lists(st.integers(1, d), min_size=1, max_size=5)
                  for d in {len(row) for row in ports} - {1}}
        spec = data.draw(st.one_of(st.sampled_from(ORACLES.BATTERY),
                                   st.fixed_dictionaries(tables)))
        agent = battery()[spec] if isinstance(spec, str) else ScriptedPortFunction(spec)
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.one_of(
            st.just("covered"),
            st.tuples(st.just("target"), st.integers(0, n - 1)),
            st.tuples(st.just("steps"), st.integers(0, 300)),
        ))
        cap = data.draw(st.integers(1, 300))
        t = run(g, agent, start, stop, cap=cap, record_moves=data.draw(st.booleans()))

        if stop == "covered" or stop[0] == "target":
            target = None if stop == "covered" else stop[1]
            w = ORACLES.walk(ports, start, spec, cap, target=target)
            assert t.stopped == (w.reached is not None)
            assert t.steps == (cap if w.reached is None else w.reached)
        else:
            assert t.steps == min(stop[1], cap)
            assert t.stopped == (stop[1] <= cap)
        # Within the steps run() took: coverage, first visits, occupancies.
        assert t.covered_at == ORACLES.walk(ports, start, spec, t.steps).reached
        for v in range(n):
            w = ORACLES.walk(ports, start, spec, t.steps, target=v, watch=v, horizon=t.steps)
            assert t.first_visit[v] == w.reached
            assert t.visit_counts[v] == w.watch_visits + (v == t.final)


class TestCoverTime:
    def test_passthrough(self):
        g = build_path(PathLabeling(2, ()))
        assert run(g, ROTOR, 1, "covered").covered_at == 1

    def test_none_when_not_covered(self):
        agent = ScriptedPortFunction({2: [1]}, "cycle")
        t = run(path3(), agent, 2, ("target", 0), cap=50)
        assert t.covered_at is None

    def test_worst_path_labeling_for_rotor(self):
        # enumerated separately: the worst 4-node labeling costs 9 steps
        from portwalk.experiments import brute_force_path_worst_case
        result = brute_force_path_worst_case(ROTOR, 4)
        assert result.max_steps == 9
        g = build_path(result.labeling)
        assert run(g, ROTOR, 3, "covered").covered_at == 9


class TestArcTraversals:
    def test_hand_counted(self):
        t = run(path3(), ROTOR, 2, ("target", 0))
        assert arc_traversals(t, 2, 1) == 2
        assert arc_traversals(t, 1, 2) == 1
        assert arc_traversals(t, 1, 0) == 1
        assert arc_traversals(t, 0, 1) == 0

    def test_unused_arc_is_zero(self):
        g = build_path(PathLabeling(2, ()))
        t = run(g, ROTOR, 1, "covered")
        assert arc_traversals(t, 0, 1) == 0

    def test_non_adjacent_rejected(self):
        t = run(path3(), ROTOR, 2, ("target", 0))
        with pytest.raises(InvalidArcError):
            arc_traversals(t, 0, 2)

    def test_counters_only_rejected(self):
        t = run(path3(), ROTOR, 2, ("target", 0), record_moves=False)
        with pytest.raises(ValueError):
            arc_traversals(t, 2, 1)


class TestVisitCountUpto:
    def test_start_counts_at_step_zero(self):
        t = run(path3(), ROTOR, 2, ("target", 0))
        assert visit_count_upto(t, 2, 1) == 1

    def test_hand_counted(self):
        t = run(path3(), ROTOR, 2, ("target", 0))
        assert visit_count_upto(t, 1, 4) == 2
        assert visit_count_upto(t, 2, 4) == 2
        assert visit_count_upto(t, 0, 4) == 0

    def test_limit_beyond_trace(self):
        t = run(path3(), ROTOR, 2, ("target", 0))
        with pytest.raises(InvalidLimitError):
            visit_count_upto(t, 0, 10 ** 9)

    def test_counters_only_full_window(self):
        # both trace kinds answer a full window with the departures that
        # the recorded moves show
        for seed in range(11, 16):
            g = random_connected_graph(9, 13, seed=seed)
            for agent in battery().values():
                for stop in (("steps", 60), "covered"):
                    full = run(g, agent, 0, stop, cap=500)
                    lean = run(g, agent, 0, stop, cap=500, record_moves=False)
                    assert lean.moves is None
                    for v in range(g.n):
                        departures = sum(1 for node, _ in full.moves if node == v)
                        assert visit_count_upto(lean, v, lean.steps) == departures
                        assert visit_count_upto(full, v, full.steps) == departures

    @pytest.mark.parametrize("limit", [True, 2.5, "3", None])
    def test_non_integer_limit_rejected(self, limit):
        t = run(path3(), ROTOR, 2, ("target", 0))
        with pytest.raises(InvalidLimitError):
            visit_count_upto(t, 0, limit)

    def test_counters_only_partial_window_rejected(self):
        g = path3()
        lean = run(g, ROTOR, 2, ("steps", 10), record_moves=False)
        with pytest.raises(ValueError):
            visit_count_upto(lean, 0, 5)


def path4_trace(record_moves):
    g = build_path(PathLabeling(4, (1, 1)))
    return run(g, ROTOR, 3, ("steps", 10), record_moves=record_moves)


BAD_NODES = [-1, 4, 9, True, False, 1.0, None, "1"]
MODES = pytest.mark.parametrize("record", [True, False], ids=["moves", "counters"])


class TestReaderNodes:
    """Every trace reader rejects a node that is not an int in 0..n-1,
    rather than reading another node's entry through Python indexing."""

    def test_good_nodes_answer(self):
        # the answers that -1 used to read, or miss, for node 3
        t = path4_trace(True)
        assert visit_count_upto(t, 3, 10) == 3
        assert visit_count_upto(t, 3, 5) == 2
        assert arc_traversals(t, 3, 2) == 3
        assert outports_taken(t, 3) == [1, 1, 1]

    @MODES
    @pytest.mark.parametrize("v", BAD_NODES, ids=repr)
    def test_visit_count_full_window(self, v, record):
        with pytest.raises(InvalidVertexError):
            visit_count_upto(path4_trace(record), v, 10)

    @pytest.mark.parametrize("v", BAD_NODES, ids=repr)
    def test_visit_count_partial_window(self, v):
        with pytest.raises(InvalidVertexError):
            visit_count_upto(path4_trace(True), v, 5)

    @MODES
    @pytest.mark.parametrize("v", BAD_NODES, ids=repr)
    def test_outports_taken(self, v, record):
        with pytest.raises(InvalidVertexError):
            outports_taken(path4_trace(record), v)

    @MODES
    @pytest.mark.parametrize("u, v", [
        (-1, 2), (9, 0), (True, 0), (1.0, 0), (None, 0),
        (3, -1), (0, 9), (0, True), (0, 1.0), (0, None),
    ], ids=repr)
    def test_arc_traversals(self, u, v, record):
        with pytest.raises(InvalidVertexError):
            arc_traversals(path4_trace(record), u, v)


graph_params = st.tuples(
    st.integers(2, 18), st.integers(0, 10 ** 6)
).flatmap(lambda t: st.tuples(
    st.just(t[0]),
    st.integers(t[0] - 1, t[0] * (t[0] - 1) // 2),
    st.just(t[1]),
))


class TestTraceInvariants:
    @given(graph_params, st.sampled_from(range(len(BATTERY))))
    @settings(max_examples=60, deadline=None)
    def test_conservation(self, params, agent_idx):
        n, m, seed = params
        g = random_connected_graph(n, m, seed)
        t = run(g, BATTERY[agent_idx], seed % n, ("steps", 200))
        assert sum(t.visit_counts) == t.steps + 1
        arcs = [(u, v) for u in range(n) for v in g.port_map[u]]
        assert sum(arc_traversals(t, u, v) for u, v in arcs) == t.steps
        assert len(t.moves) == t.steps

    @given(graph_params, st.sampled_from(range(len(BATTERY))))
    @settings(max_examples=60, deadline=None)
    def test_outport_sequences_follow_agent(self, params, agent_idx):
        n, m, seed = params
        agent = BATTERY[agent_idx]
        g = random_connected_graph(n, m, seed)
        t = run(g, agent, 0, ("steps", 200))
        for v in range(n):
            taken = outports_taken(t, v)
            d = g.degree(v)
            assert taken == [agent.outport(d, i) for i in range(1, len(taken) + 1)]

    @given(graph_params, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_anonymity_under_relabeling(self, params, rng):
        n, m, seed = params
        g = random_connected_graph(n, m, seed)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        t_g = run(g, ROTOR, 0, ("steps", 150))
        t_h = run(h, ROTOR, perm[0], ("steps", 150))
        assert t_h.moves == [(perm[v], p) for v, p in t_g.moves]
        assert t_h.final == perm[t_g.final]
        for v in range(n):
            assert t_h.first_visit[perm[v]] == t_g.first_visit[v]
            assert t_h.visit_counts[perm[v]] == t_g.visit_counts[v]
        assert t_h.covered_at == t_g.covered_at

    @given(st.integers(2, 10), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_rotor_fairness(self, d, seed):
        # after every d consecutive visits to a node, each port was used once
        g = build_clique_pendant(d, 1 + seed % d)
        t = run(g, ROTOR, seed % g.n, ("steps", 30 * d))
        for v in range(g.n):
            taken = outports_taken(t, v)
            deg = g.degree(v)
            for blk in range(len(taken) // deg):
                window = taken[blk * deg:(blk + 1) * deg]
                assert sorted(window) == list(range(1, deg + 1))


class CallBased(PortFunction):
    """Yields the agent's outport(d, 1), outport(d, 2), ... as an iterator, so
    run() reads it through a lazy port sequence."""

    def __init__(self, agent):
        self.agent = agent
        self.name = agent.name

    def ports(self, d):
        return map(self.ask, itertools.repeat(d), itertools.count(1))

    def ask(self, d, i):
        return self.agent.outport(d, i)


def outcome(g, agent, start, stop, cap, record_moves):
    try:
        t = run(g, agent, start, stop, cap=cap, record_moves=record_moves)
    except Exception as e:
        return type(e), str(e)
    return (t.steps, t.final, t.moves, t.first_visit, t.visit_counts,
            t.covered_at, t.stopped)


def scripts():
    """Cycle scripts with a table at some of the degrees 1..8."""
    tables = {d: st.lists(st.integers(1, d), min_size=1, max_size=6) for d in range(1, 9)}
    return st.fixed_dictionaries({}, optional=tables).map(
        lambda t: ScriptedPortFunction(t, "cycle"))


class TestCompiledLoop:
    @given(
        graph_params,
        st.one_of(
            st.sampled_from(BATTERY),
            st.lists(st.integers(1, 20), min_size=1, max_size=6).map(CyclicAgent),
            scripts(),
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_call_based_loop(self, params, agent, data):
        n, m, seed = params
        g = random_connected_graph(n, m, seed)
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.one_of(
            st.just("covered"),
            st.tuples(st.just("target"), st.integers(0, n - 1)),
            st.tuples(st.just("steps"), st.integers(0, 3000)),
        ))
        cap = data.draw(st.one_of(st.none(), st.integers(1, 3000)))
        record = data.draw(st.booleans())
        assert (outcome(g, agent, start, stop, cap, record)
                == outcome(g, CallBased(agent), start, stop, cap, record))

    def test_short_walk_builds_only_visited_rows(self):
        # Rows for all 2,000 nodes of a 5,000-entry cycle would hold 10^7
        # successor entries (about 80 MB) for a 10-step walk.
        g = build_path(PathLabeling(2000, (1, 2) * 999))
        agent = ScriptedPortFunction({2: [2, 1, 1, 2] * 1250}, "cycle")
        tracemalloc.start()
        try:
            t = run(g, agent, 1999, ("steps", 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        assert (outcome(g, agent, 1999, ("steps", 10), None, True)
                == outcome(g, CallBased(agent), 1999, ("steps", 10), None, True))
        assert t.steps == 10

    def test_recorded_walk_shares_one_tuple_per_arc(self):
        # The rotor-router's worst 500-node path takes (n-1)^2 = 249,001
        # moves. A fresh (node, port) tuple per move cost about 64 B a step
        # (a 15 MB peak) and a row string per step in export_trace about
        # 5x the document; the bounds below leave a 2x and a 1.5x margin
        # over the shared per-arc tuples and the chunked export.
        g = build_path(worst_case_path_labeling(ROTOR, 500))
        tracemalloc.start()
        try:
            t = run(g, ROTOR, 499, ("target", 0))
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            doc = export_trace(t)
            export_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert t.steps == 499 ** 2
        assert len({id(m) for m in t.moves}) <= 2 * g.m
        assert run_peak <= 16 * t.steps  # the moves list's pointers are 8 B a step
        assert export_peak <= 3 * len(doc)  # the chunks and the joined document are 2x

    @pytest.mark.parametrize("bad", [
        lambda d: (0,), lambda d: (d + 1,), lambda d: (1.0,), lambda d: (True,),
        lambda d: (1, 0), lambda d: 0, lambda d: d + 1, lambda d: 1.0, lambda d: True,
        lambda d: (),
    ], ids=["(0,)", "(d+1,)", "(1.0,)", "(True,)", "(1,0)", "0", "d+1", "1.0", "True", "()"])
    def test_bad_cycle_rejected(self, bad):
        class BadCycle(RotorRouter):
            def ports(self, d):
                return bad(d)
        with pytest.raises(AgentViolationError):
            run(path3(), BadCycle(), 2, ("steps", 2))


class TestRowLayout:
    """The brute force's row walk reads _Row entry c at visit count c."""

    def test_iterator_rows_read_in_order(self):
        table = [2, 3, 1, 1, 2]
        seq = port_sequence(ScriptedPortFunction({3: table}, "fail"), 3)
        row = (10, 11, 12)
        nexts, exits = _Row(row, seq), _Row(_arcs(7, 3), seq)
        for c, port in enumerate(table, 1):
            assert nexts[c] == row[port - 1]
            assert exits[c] == (7, port)
            assert seq.read == table[:c]  # no read-ahead
        with pytest.raises(HorizonExceededError):
            nexts[len(table) + 1]


class Counting(CallBased):
    """CallBased that records every (d, i) it is advanced to."""

    def __init__(self, agent):
        super().__init__(agent)
        self.calls = []

    def ask(self, d, i):
        self.calls.append((d, i))
        return self.agent.outport(d, i)


class TestLazyPorts:
    """An agent whose ports(d) is an iterator is advanced lazily."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("agent", BATTERY + [whiteboard_rotor_router()],
                             ids=lambda a: a.name)
    def test_outport_asked_once_per_index(self, agent, seed):
        g = random_connected_graph(40, 80, seed)
        counting = Counting(agent)
        t = run(g, counting, 0, "covered", cap=3000)
        # degree d is asked exactly 1..k, k the most exits of one node of degree d
        most: dict[int, int] = {}
        for v in range(g.n):
            d = g.degree(v)
            most[d] = max(most.get(d, 0), len(outports_taken(t, v)))
        want = [(d, i) for d in sorted(most) for i in range(1, most[d] + 1)]
        assert sorted(counting.calls) == want
        assert len(counting.calls) <= t.steps

    @pytest.mark.parametrize("lazy, bad", [(1, 2), (2, 1)])
    def test_bad_cycle_beside_none_rejected_before_first_step(self, lazy, bad):
        class Mixed(Counting):
            def ports(self, d):
                return super().ports(d) if d == lazy else (d + 1,)
        agent = Mixed(ROTOR)
        with pytest.raises(AgentViolationError, match=f"port {bad + 1} at degree {bad}"):
            run(path3(), agent, 2, ("steps", 2))
        assert agent.calls == []


class TestExport:
    def test_golden_three_node_trace(self):
        t = run(path3(), ROTOR, 2, ("target", 0))
        assert export_trace(t) == (
            "step,node,outport,next_node\n"
            "0,2,1,1\n"
            "1,1,1,2\n"
            "2,2,1,1\n"
            "3,1,2,0\n"
            "summary\n"
            "covered_at,4\n"
            "node,first_visit,visit_count\n"
            "0,4,1\n"
            "1,1,2\n"
            "2,0,2\n"
        )

    def test_uncovered_summary(self):
        agent = ScriptedPortFunction({2: [1]}, "cycle")
        t = run(path3(), agent, 2, ("target", 0), cap=4)
        text = export_trace(t)
        assert "covered_at,none" in text
        assert "0,none,0" in text

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rows_at_multi_digit_ports(self, seed):
        g = random_connected_graph(60, 600, seed)
        for agent in battery().values():
            t = run(g, agent, 0, ("steps", 2000))
            lines = export_trace(t).split("\n")
            assert lines[1:lines.index("summary")] == [
                f"{k},{v},{p},{g.port_map[v][p - 1]}" for k, (v, p) in enumerate(t.moves)]
        assert max(p for _, p in run(g, ROTOR, 0, ("steps", 2000)).moves) >= 10

    @pytest.mark.parametrize("agent", [ROTOR, whiteboard_rotor_router()],
                             ids=["cycle", "iterator"])
    @pytest.mark.parametrize("steps", [0, 1, 8191, 8192, 8193, 16385])
    def test_chunk_boundaries(self, steps, agent):
        g = random_connected_graph(30, 70, seed=5)
        t = run(g, agent, 0, ("steps", steps))
        assert t.steps == steps
        assert export_trace(t) == one_row_at_a_time(t)

    def test_counters_only_rejected(self):
        t = run(path3(), ROTOR, 2, ("steps", 5), record_moves=False)
        with pytest.raises(ValueError):
            export_trace(t)


def one_row_at_a_time(t):
    """Reference for export_trace: every line formatted and ended on its own."""
    g = t.graph
    out = ["step,node,outport,next_node\n"]
    for k, (v, p) in enumerate(t.moves):
        out.append(f"{k},{v},{p},{g.port_map[v][p - 1]}\n")
    out.append("summary\n")
    out.append(f"covered_at,{'none' if t.covered_at is None else t.covered_at}\n")
    out.append("node,first_visit,visit_count\n")
    for v in range(g.n):
        fv = t.first_visit[v]
        out.append(f"{v},{'none' if fv is None else fv},{t.visit_counts[v]}\n")
    return "".join(out)
