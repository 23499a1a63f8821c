"""Engine semantics: stepping, stop conditions, trace statistics.

Expected step counts and move lists in this module were derived by hand
from the visit-counting convention (start node occupied at step 0, first
exit uses visit index 1) before the engine existed.
"""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_modules import load
from portwalk.adversary import build_cubic_instance, worst_case_path_labeling
from portwalk.agents import (
    CyclicAgent,
    PortFunction,
    RotorRouter,
    ScriptedPortFunction,
    WhiteboardAgent,
    whiteboard_rotor_router,
)
from portwalk.errors import (
    AgentViolationError,
    HorizonExceededError,
    InvalidArcError,
    InvalidLimitError,
    InvalidVertexError,
)
from portwalk.experiments import battery
from portwalk.graphs import (
    PathLabeling,
    PortLabeledGraph,
    build_clique_pendant,
    build_path,
    deserialize,
    random_connected_graph,
    relabel,
    serialize,
)
from portwalk.simulate import (
    _BLOCK,
    _CHUNK,
    _run,
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
        assert e.value.__context__ is None  # not raised while the walk handled a StopIteration

    @pytest.mark.parametrize("record", [True, False])
    def test_agent_violation_propagates(self, record):
        # port_d(2) leaves state 2, which needs 2 bits: node 3's second exit
        agent = WhiteboardAgent(transition=lambda s, d: (s + 1, 1), memory_bits=1)
        assert run(path4(), agent, 3, ("steps", 2), record_moves=record).final == 3
        with pytest.raises(AgentViolationError,
                           match="^node state 2 needs more than 1 bits at degree 1$") as e:
            run(path4(), agent, 3, ("steps", 3), record_moves=record)
        assert type(e.value) is AgentViolationError


class TestCapsBeyondMachineSize:
    """A cap past sys.maxsize, which no walk reaches, runs the walk that the
    default cap runs."""

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("stop", ["covered", ("target", 0)])
    @pytest.mark.parametrize("cap", [2 ** 63, 10 ** 20])
    def test_same_trace_as_under_the_default_cap(self, cap, stop, record):
        # The rotor-router leaves nodes of its worst 200-node path more
        # than _BLOCK times on its 199^2 steps.
        g = build_path(worst_case_path_labeling(ROTOR, 200))
        t = run(g, ROTOR, 199, stop, cap=cap, record_moves=record)
        assert t == run(g, ROTOR, 199, stop, record_moves=record)
        assert (t.steps, t.stopped) == (199 ** 2, True) and max(t.visit_counts) > _BLOCK


graph_params = st.tuples(
    st.integers(2, 18), st.integers(0, 10 ** 6)
).flatmap(lambda t: st.tuples(
    st.just(t[0]),
    st.integers(t[0] - 1, t[0] * (t[0] - 1) // 2),
    st.just(t[1]),
))


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


def periodic_agents(degrees):
    """(spec, agent): an agent with a period at each of the degrees, and its
    bench/oracles spec. The battery, random cycle tables and folded
    patterns, each as its cycle or as an iterator (CallBased), and the
    whiteboard rotor-router."""
    tables = {d: st.lists(st.integers(1, d), min_size=1, max_size=6) for d in degrees}
    cycles = st.one_of(
        st.sampled_from(ORACLES.BATTERY).map(lambda s: (s, battery()[s])),
        st.fixed_dictionaries(tables).map(lambda t: (t, ScriptedPortFunction(t))),
        st.lists(st.integers(1, 20), min_size=1, max_size=6).map(lambda p: (
            {d: [(e - 1) % d + 1 for e in p] for d in degrees}, CyclicAgent(p))),
    )
    return st.one_of(cycles, cycles.map(lambda sa: (sa[0], CallBased(sa[1]))),
                     st.just(("rotor-router", whiteboard_rotor_router())))


class TestEngineMatchesOracle:
    """run() against bench/oracles, which shares no code with it."""

    @given(graph_params, st.data())
    @settings(max_examples=200, deadline=None)
    def test_walk(self, params, data):
        n, m, seed = params
        g = random_connected_graph(n, m, seed)
        spec, agent = data.draw(periodic_agents({len(row) for row in g.port_map}))
        stop = data.draw(st.one_of(
            st.just("covered"),
            st.tuples(st.just("target"), st.integers(0, n - 1)),
            st.tuples(st.just("steps"), st.integers(0, 3000)),
        ))
        assert_matches_oracle(g, spec, agent, data.draw(st.integers(0, n - 1)), stop,
                              data.draw(st.one_of(st.none(), st.integers(1, 3000))),
                              data.draw(st.booleans()))

    @pytest.mark.parametrize("d", range(2, 65))
    def test_one_entry_table_at_every_degree(self, d):
        # A one-entry cycle goes through the picker's one-index case.
        p = d // 2 + 1
        assert_matches_oracle(pendant_clique(d, d), {d: [p]}, ScriptedPortFunction({d: [p]}),
                              d % 3, "covered", 3 * d, d % 2 == 0)

    @given(st.integers(2, 64), st.integers(0, 10 ** 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_high_degrees(self, d, seed, data):
        # The generator above stops at n <= 18; scripted tables reach d = 64.
        g = pendant_clique(d, seed)
        spec = data.draw(st.one_of(
            st.sampled_from(ORACLES.BATTERY),
            st.fixed_dictionaries({d: st.lists(st.integers(1, d), min_size=1, max_size=2 * d)})))
        agent = battery()[spec] if isinstance(spec, str) else ScriptedPortFunction(spec)
        stop = data.draw(st.one_of(
            st.just("covered"),
            st.tuples(st.just("target"), st.integers(0, g.n - 1)),
            st.tuples(st.just("steps"), st.integers(0, 400)),
        ))
        assert_matches_oracle(g, spec, agent, data.draw(st.integers(0, g.n - 1)),
                              stop, data.draw(st.integers(1, 400)), data.draw(st.booleans()))


class TestRefills:
    """Walks long enough that nodes spend many blocks, against bench/oracles."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("period", [1, 2, 3, 7, _BLOCK + 45, "whiteboard"])
    def test_long_walk(self, period, seed):
        # n <= 6 and up to 5,000 steps: a node of period p spends blocks of
        # p, 2p, ... entries, then blocks near _BLOCK, several times over.
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed)
        if period == "whiteboard":
            spec, agent = "rotor-router", whiteboard_rotor_router()
        else:
            spec = {d: [rng.randint(1, d) for _ in range(period)]
                    for d in {len(row) for row in g.port_map} - {1}}
            agent = ScriptedPortFunction(spec, "cycle")
        t = assert_matches_oracle(g, spec, agent, rng.randrange(n),
                                  ("steps", rng.randint(4000, 5000)), 5000, seed % 2 == 0)
        assert max(t.visit_counts) > 2 * _BLOCK

    def test_blocks_stay_within_the_cap(self):
        # biased-112 never covers its n = 30 instance: it leaves three nodes
        # 27,000 to 43,200 times each in the 4n^3 steps. Blocks that kept
        # doubling would reach 2^15 entries (256 KB) at each of them.
        agent = CyclicAgent((1, 1, 2), name="biased-112")
        inst = build_cubic_instance(agent, 30)
        n = inst.graph.n
        tracemalloc.start()
        try:
            t = run(inst.graph, agent, inst.start, "covered", record_moves=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (t.steps, t.covered_at) == (4 * 30 ** 3, None)
        assert max(t.visit_counts) > 100 * _BLOCK
        assert peak < n * max(_BLOCK, 3) * 8


def refill_boundaries(p, limit):
    """The exit counts up to limit at which a node of period p spends a
    block in one walk: p, 3p, 7p, ..., then one block near _BLOCK apart."""
    out, size = [p], p
    while out[-1] <= limit:
        if 2 * size <= _BLOCK:
            size *= 2
        out.append(out[-1] + size)
    return out


def pendant_clique(d, seed):
    """A d-clique with a pendant at every clique node, each row's ports
    shuffled: 2d nodes of degrees d and 1."""
    rng = random.Random(seed)
    g = build_clique_pendant(d, rng.randint(1, d))
    return PortLabeledGraph(g.n, tuple(tuple(rng.sample(row, len(row))) for row in g.port_map))


def assert_matches_oracle(g, spec, agent, start, stop, cap, record):
    """run() against bench/oracles, given g as its document: steps and stop
    by oracles.walk; the moves, coverage, first visits and occupancies of
    every node by oracles.trace_problems on a recorded walk's export, or
    by one oracles.walk per node on a counters-only one."""
    ports = ORACLES.parse_graph_doc(serialize(g))
    t = run(g, agent, start, stop, cap=cap, record_moves=record)
    if cap is None:
        cap = 4 * g.n ** 3
    if stop == "covered" or stop[0] == "target":
        w = ORACLES.walk(ports, start, spec, cap, target=None if stop == "covered" else stop[1])
        assert (t.steps, t.stopped) == ((cap, False) if w.reached is None else (w.reached, True))
    else:
        assert (t.steps, t.stopped) == (min(stop[1], cap), stop[1] <= cap)
    if record:
        # The checker asks that a trace end at coverage, which a walk
        # stopped otherwise need not.
        off_cover = [] if t.covered_at == t.steps else [
            f"{t.steps} rows but coverage at step {t.covered_at}"]
        assert ORACLES.trace_problems(export_trace(t), ports, spec, start, t.steps) == off_cover
        return t
    assert t.covered_at == ORACLES.walk(ports, start, spec, t.steps).reached
    for v in range(g.n):
        w = ORACLES.walk(ports, start, spec, t.steps, target=v)
        if w.reached is not None:  # count v's occupancies over the whole walk
            w = ORACLES.walk(ports, start, spec, t.steps, target=v, watch=v, horizon=t.steps)
        assert (t.first_visit[v], t.visit_counts[v]) == (w.reached, w.watch_visits + (v == t.final))
    return t


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
        # both trace kinds answer a full window with the node's departures,
        # its occupancies before the last step
        for seed in range(11, 16):
            g = random_connected_graph(9, 13, seed=seed)
            ports = ORACLES.parse_graph_doc(serialize(g))
            for (spec, agent), stop, record in itertools.product(
                    battery().items(), (("steps", 60), "covered"), (True, False)):
                t = run(g, agent, 0, stop, cap=500, record_moves=record)
                assert (t.moves is None) != record
                for v in range(g.n):
                    w = ORACLES.walk(ports, 0, spec, t.steps, watch=v, horizon=t.steps)
                    assert visit_count_upto(t, v, t.steps) == w.watch_visits

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


class TestCompiledLoop:
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
        assert t.steps == 10
        assert_matches_oracle(g, agent.tables, agent, 1999, ("steps", 10), None, True)

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

    def test_moves_length_reads_no_move(self):
        # The benchmark's tracer reads len(trace.moves) inside the span it
        # times. A list of the 249,001 moves would be about 2 MB.
        t = run(build_path(worst_case_path_labeling(ROTOR, 500)), ROTOR, 499, ("target", 0))
        tracemalloc.start()
        try:
            assert len(t.moves) == t.steps == 499 ** 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024

    @pytest.mark.parametrize("agent", [ROTOR, whiteboard_rotor_router()],
                             ids=["cycle", "iterator"])
    def test_moves_is_a_read_only_sequence(self, agent):
        g = random_connected_graph(20, 40, seed=2)
        assert run(g, agent, 0, ("steps", 300), record_moves=False).moves is None
        moves = run(g, agent, 0, ("steps", 300)).moves
        listed = list(moves)
        assert moves == listed and listed == moves and moves != tuple(listed)
        assert moves != listed[:-1] and moves == run(g, agent, 0, ("steps", 300)).moves
        assert [moves[k] for k in (0, 17, -1)] == [listed[k] for k in (0, 17, -1)]
        assert moves[5:40:3] == listed[5:40:3]
        assert moves.count(listed[0]) == listed.count(listed[0])
        assert repr(moves) == repr(listed)
        with pytest.raises(AttributeError):
            moves.append((0, 1))

    def test_walk_state_is_no_closure_cell(self):
        # A comprehension in _run naming cur made it a cell on Python 3.11,
        # a cell load and store at every step: 3-4% slower capped walks.
        assert not {"cur", "steps", "its", "left"} & set(_run.__code__.co_cellvars)

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


class TestContinuation:
    """simulate._run taking a counters-only ("steps", k) trace on is one run()."""

    @given(
        st.tuples(st.integers(2, 9), st.integers(0, 10 ** 6)).flatmap(lambda t: st.tuples(
            st.just(t[0]), st.integers(t[0] - 1, t[0] * (t[0] - 1) // 2), st.just(t[1]))),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_continued_walk_equals_one_walk(self, params, data):
        n, m, seed = params
        g = random_connected_graph(n, m, seed)
        tables = {d: st.lists(st.integers(1, d), min_size=1, max_size=5)
                  for d in {len(row) for row in g.port_map}}
        agent = data.draw(st.one_of(
            st.sampled_from(BATTERY),
            st.fixed_dictionaries(tables).map(lambda t: ScriptedPortFunction(t, "cycle")),
            st.builds(whiteboard_rotor_router),
        ))
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.one_of(
            st.just("covered"),
            st.tuples(st.just("target"), st.integers(0, n - 1)),
            st.tuples(st.just("steps"), st.integers(0, 400)),
        ))
        cap = data.draw(st.one_of(st.none(), st.integers(1, 400)))
        one = run(g, agent, start, stop, cap=cap, record_moves=False)
        k = data.draw(st.integers(0, one.steps))
        head = run(g, agent, start, ("steps", k), cap=cap, record_moves=False)
        got = _run(g, agent, start, stop, cap, False, head)
        assert got.moves is None
        assert counters(got) == counters(one)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("period", [1, 2, 3, 7])
    def test_split_on_a_refill_boundary(self, period, seed):
        # Split where the head's last departure would spend one walk's block
        # exactly, and one step past that, where it took a fresh block.
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed)
        agent = ScriptedPortFunction(
            {d: [rng.randint(1, d) for _ in range(period)] for d in {len(r) for r in g.port_map}})
        start, steps = rng.randrange(n), 5000
        one = run(g, agent, start, ("steps", steps), cap=steps)
        # A one-entry cycle is picked twice, so its blocks hold two entries.
        boundaries = set(refill_boundaries(max(period, 2), steps))
        exits, splits = Counter(), set()
        for k, (v, _) in enumerate(one.moves):
            if exits[v] in boundaries:
                splits |= {k, k + 1}
            exits[v] += 1
        assert max(exits.values()) > 3 * _BLOCK
        assert len(splits) > 10
        for k in sorted(splits):
            head = run(g, agent, start, ("steps", k), cap=steps, record_moves=False)
            assert counters(_run(g, agent, start, ("steps", steps), steps, False, head)) \
                == counters(one)

    @pytest.mark.parametrize("stop, cap", [(("steps", 20), None), (("steps", 30), 20)],
                             ids=["budget", "cap"])
    def test_no_step_left_reads_no_ports(self, stop, cap):
        # A fresh zero-step run() reads no port sequence, and neither does
        # a continued walk whose stop leaves it no step.
        g = random_connected_graph(8, 14, seed=3)
        agent = ReadCounting()
        run(g, agent, 0, ("steps", 0))
        assert agent.reads == 0
        head = run(g, agent, 0, ("steps", 20), record_moves=False)
        assert agent.reads == len({len(row) for row in g.port_map}) > 1
        agent.reads = 0
        got = _run(g, agent, 0, stop, cap, False, head)
        assert agent.reads == 0
        assert got.stopped == (cap is None)  # ("steps", 30) stops at the cap unfired
        assert (got.steps, got.final, got.first_visit, got.visit_counts) \
            == (head.steps, head.final, head.first_visit, head.visit_counts)


class ReadCounting(RotorRouter):
    """The rotor-router, counting its ports() calls."""

    reads = 0

    def ports(self, d):
        self.reads += 1
        return super().ports(d)


def counters(t):
    return t.steps, t.final, t.covered_at, t.stopped, t.first_visit, t.visit_counts


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

    @given(st.integers(2, 30), st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_row_reference_and_oracle(self, n, data):
        m = data.draw(st.integers(n - 1, min(3 * n, n * (n - 1) // 2)))
        g = random_connected_graph(n, m, data.draw(st.integers(0, 2 ** 16)))
        spec, agent = data.draw(periodic_agents({len(row) for row in g.port_map}))
        stop = data.draw(st.one_of(st.just("covered"), st.tuples(st.just("steps"), st.one_of(
            st.integers(0, 3 * _CHUNK + 1),
            st.sampled_from([k * _CHUNK + e for k in (1, 2, 3) for e in (-1, 0, 1)])))))
        t = assert_matches_oracle(g, spec, agent, data.draw(st.integers(0, n - 1)), stop,
                                  3 * _CHUNK + 1, True)
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
