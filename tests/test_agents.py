"""Agent representations and the whiteboard-to-sequence reduction."""

import enum
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_modules import load
from portwalk.adversary import rare_port, worst_case_path_labeling
from portwalk.agents import (
    CyclicAgent,
    PortFunction,
    RotorRouter,
    ScriptedPortFunction,
    WhiteboardAgent,
    derive_port_function,
    load_agent_script,
    memory_lower_bound_check,
    port_sequence,
    whiteboard_rotor_router,
)
from portwalk.errors import (
    AgentViolationError,
    HorizonExceededError,
    InvalidLimitError,
    InvalidPortError,
    InvalidSizeError,
)
from portwalk.experiments import battery, brute_force_path_worst_case
from portwalk.graphs import PathLabeling, build_path, random_connected_graph, serialize
from portwalk.simulate import export_trace, run


ROTOR = RotorRouter()
ORACLES = load("oracles")


class TestRotorRouterPort:
    def test_single_port(self):
        assert ROTOR.outport(1, 7) == 1

    def test_cyclic_wrap(self):
        assert ROTOR.outport(3, 4) == 1

    def test_second_visit_degree_two(self):
        assert ROTOR.outport(2, 2) == 2

    @pytest.mark.parametrize("i", [0, -1, 1.5, True, None], ids=repr)
    def test_bad_visit_index(self, i):
        with pytest.raises(InvalidLimitError, match="^visit index must be"):
            ROTOR.outport(2, i)

    @given(st.integers(1, 16), st.integers(0, 30))
    def test_window_uses_each_port_once(self, d, offset):
        window = [ROTOR.outport(d, offset * d + j) for j in range(1, d + 1)]
        assert sorted(window) == list(range(1, d + 1))

    def test_class_matches_function(self):
        # the rotor-router is the cycling script of ports 1..d at every degree
        script = ScriptedPortFunction({d: range(1, d + 1) for d in range(1, 9)})
        for d in range(1, 9):
            for i in range(1, 4 * d):
                assert ROTOR.outport(d, i) == script.outport(d, i)


class TestCyclicAgent:
    def test_always_one(self):
        a = CyclicAgent((1,))
        assert [a.outport(4, i) for i in range(1, 5)] == [1, 1, 1, 1]

    def test_folds_into_degree(self):
        a = CyclicAgent((2, 1))
        assert [a.outport(1, i) for i in range(1, 4)] == [1, 1, 1]
        assert [a.outport(2, i) for i in range(1, 5)] == [2, 1, 2, 1]
        assert [a.outport(5, i) for i in range(1, 5)] == [2, 1, 2, 1]

    def test_rejects_bad_pattern(self):
        with pytest.raises(InvalidPortError):
            CyclicAgent(())
        with pytest.raises(InvalidPortError):
            CyclicAgent((1, 0))

    @pytest.mark.parametrize("pattern", [(1.5,), (True,), ("2",)])
    def test_rejects_non_int_entries(self, pattern):
        with pytest.raises(InvalidPortError):
            CyclicAgent(pattern)


class TestScripted:
    def test_cycle_matches_rotor(self):
        a = ScriptedPortFunction({2: [1, 2]}, "cycle")
        for i in range(1, 21):
            assert a.outport(2, i) == ROTOR.outport(2, i)

    def test_fail_beyond_horizon(self):
        a = ScriptedPortFunction({2: [1]}, "fail")
        assert a.outport(2, 1) == 1
        with pytest.raises(HorizonExceededError):
            a.outport(2, 2)

    def test_entry_out_of_range(self):
        with pytest.raises(InvalidPortError):
            ScriptedPortFunction({2: [3]})

    @pytest.mark.parametrize("tables", [
        {2: [1.9, 2.7]}, {2.9: [1, 2]}, {2: [True, 2]}, {2: ["2"]}, {True: [1]},
    ])
    def test_rejects_non_int_entries_and_degrees(self, tables):
        with pytest.raises(InvalidPortError):
            ScriptedPortFunction(tables)

    def test_missing_degree(self):
        a = ScriptedPortFunction({2: [1, 2]})
        with pytest.raises(HorizonExceededError):
            a.outport(3, 1)

    def test_degree_one_is_forced(self):
        a = ScriptedPortFunction({2: [1, 2]}, "fail")
        assert a.outport(1, 99) == 1

    def test_bad_extension(self):
        with pytest.raises(ValueError):
            ScriptedPortFunction({2: [1]}, "extend-forever")

    def test_load_script(self):
        a = load_agent_script('{"tables": {"2": [1, 2], "3": [3]}, '
                              '"extension": "fail"}')
        assert isinstance(a, ScriptedPortFunction)
        assert a.outport(3, 1) == 3
        with pytest.raises(HorizonExceededError):
            a.outport(3, 2)

    def test_load_script_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_agent_script('{"no_tables": 1}')

    @pytest.mark.parametrize("doc, field", [
        ('{"tables": {"2": [1]}, "extensoin": "fail"}', "extensoin"),
        ('{"tables": {"2": [1]}, "extension": "cycle", "name": "x"}', "name"),
    ])
    def test_load_script_rejects_unknown_field(self, doc, field):
        with pytest.raises(ValueError, match=f"^unknown field '{field}'$"):
            load_agent_script(doc)


class TestDerivePortFunction:
    def test_whiteboard_rotor_degree_two(self):
        assert derive_port_function(whiteboard_rotor_router(), 2, 4) == [1, 2, 1, 2]

    def test_constant_agent(self):
        a = WhiteboardAgent(transition=lambda s, d: (s, 1))
        assert derive_port_function(a, 3, 3) == [1, 1, 1]

    def test_port_out_of_range(self):
        a = WhiteboardAgent(transition=lambda s, d: (s, d + 1))
        with pytest.raises(AgentViolationError):
            derive_port_function(a, 3, 1)

    def test_bool_port_rejected(self):
        a = WhiteboardAgent(transition=lambda s, d: (s, True))
        with pytest.raises(AgentViolationError, match="port True"):
            derive_port_function(a, 3, 3)

    def test_state_budget_violation(self):
        a = WhiteboardAgent(transition=lambda s, d: (s + 1, 1), memory_bits=1)
        with pytest.raises(AgentViolationError):
            derive_port_function(a, 2, 5)

    @pytest.mark.parametrize("bits", [-1, lambda d: -1, 1.5, True],
                             ids=["-1", "callable -1", "1.5", "True"])
    def test_bad_memory_budget(self, bits):
        a = WhiteboardAgent(transition=lambda s, d: (s, 1), memory_bits=bits)
        with pytest.raises(AgentViolationError, match="memory budget .* at degree 1 "):
            run(build_path(PathLabeling(3, (1,))), a, 0, "covered")
        with pytest.raises(AgentViolationError, match="at degree 4 "):
            derive_port_function(a, 4, 1)

    def test_negative_state_rejected(self):
        a = WhiteboardAgent(transition=lambda s, d: (s - 1, 1))
        with pytest.raises(AgentViolationError):
            derive_port_function(a, 2, 3)

    def test_initial_and_final_states_checked(self):
        with pytest.raises(AgentViolationError, match="node state -1"):
            derive_port_function(WhiteboardAgent(lambda s, d: (0, 1), -1), 2, 1)
        a = WhiteboardAgent(transition=lambda s, d: (s + 1, 1), memory_bits=1)
        assert derive_port_function(a, 2, 1) == [1]
        with pytest.raises(AgentViolationError, match="node state 2 needs more"):
            derive_port_function(a, 2, 2)

    @pytest.mark.parametrize("initial, transition", [
        (False, lambda s, d: (False, 1)), (0, lambda s, d: (True, 1)),
    ], ids=["initial False", "returns True"])
    def test_bool_state_rejected(self, initial, transition):
        a = WhiteboardAgent(transition, initial_state=initial, memory_bits=0)
        with pytest.raises(AgentViolationError, match="is not a non-negative int"):
            derive_port_function(a, 2, 3)

    def test_no_read_ahead(self):
        # A 3-bit counter: port_d(k) leaves the node in state k, so reading
        # port_2(8) is the first read that overflows the budget.
        a = WhiteboardAgent(lambda s, d: (s + 1, 1 + s % d), memory_bits=3)
        assert derive_port_function(a, 2, 7) == [1, 2, 1, 2, 1, 2, 1]
        assert a.outport(2, 5) == 1
        g = build_path(PathLabeling(3, (1,)))
        assert run(g, a, 1, ("steps", 14)).stopped  # node 1 exits on visits 1..7
        with pytest.raises(AgentViolationError,
                           match="^node state 8 needs more than 3 bits at degree 2$"):
            run(g, a, 1, ("steps", 15))

    def test_reads_past_a_cycle(self):
        assert derive_port_function(ROTOR, 3, 7) == [1, 2, 3, 1, 2, 3, 1]
        assert derive_port_function(ROTOR, 3, 0) == []

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_checks_a_cycle(self, k):
        with pytest.raises(AgentViolationError, match="^agent returned port 0 at degree 2$"):
            derive_port_function(agent_with(lambda d: (0, 5)), 2, k)

    @pytest.mark.parametrize("k", [-1, 1.5, True, None], ids=repr)
    def test_bad_k(self, k):
        with pytest.raises(InvalidSizeError, match="^k must be"):
            derive_port_function(ROTOR, 2, k)

    def test_whiteboard_raises_at_the_same_index(self):
        # port_2(4) is the first bad port, and reading it runs four transitions
        calls = []

        def transition(s, d):
            calls.append(s)
            return s + 1, 1 if s < 3 else 9
        a = WhiteboardAgent(transition)
        assert derive_port_function(a, 2, 3) == [1, 1, 1]
        assert calls == [0, 1, 2]
        calls.clear()
        with pytest.raises(AgentViolationError, match="^agent returned port 9 at degree 2$"):
            derive_port_function(a, 2, 10)
        assert calls == [0, 1, 2, 3]

    def test_matches_rotor_everywhere(self):
        wb = whiteboard_rotor_router()
        for d in range(1, 17):
            got = derive_port_function(wb, d, 10 * d)
            want = [ROTOR.outport(d, i) for i in range(1, 10 * d + 1)]
            assert got == want

    def test_deterministic(self):
        wb = whiteboard_rotor_router()
        assert derive_port_function(wb, 5, 30) == derive_port_function(wb, 5, 30)

    def test_walk_matches_rotor(self):
        wb = whiteboard_rotor_router()
        assert wb.name == "whiteboard"
        # every query replays the transition from the initial state
        assert wb.outport(3, 7) == ROTOR.outport(3, 7)
        assert wb.outport(3, 2) == ROTOR.outport(3, 2)
        assert wb.outport(6, 1) == 1
        g = random_connected_graph(30, 60, 4)
        walk = export_trace(run(g, whiteboard_rotor_router(), 0, "covered"))
        ports = ORACLES.parse_graph_doc(serialize(g))
        assert ORACLES.trace_problems(walk, ports, "rotor-router", 0) == []

    @given(st.integers(2, 64), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_small_state_space_limits_distinct_ports(self, d, bits):
        # with fewer than d reachable states an agent cannot show d ports
        states = 1 << bits
        a = WhiteboardAgent(
            transition=lambda s, d_, n_states=states: ((s + 1) % n_states,
                                                       s % n_states + 1),
            memory_bits=bits,
        )
        if states >= d:
            return
        seq = derive_port_function(a, d, 10 * d)
        assert len(set(seq)) <= states < d


PERIODIC = [
    ROTOR,
    CyclicAgent((1,)),
    CyclicAgent((2, 1)),
    CyclicAgent((1, 1, 2)),
    CyclicAgent((7, 3, 12, 1, 5)),
    ScriptedPortFunction({1: [1], 2: [2, 1, 1], 5: [5, 1, 4, 2, 3], 12: [12, 1] * 3},
                         "cycle"),
]


class TestCycle:
    @pytest.mark.parametrize("agent", PERIODIC, ids=lambda a: a.name)
    def test_cycle_repeats_outport(self, agent):
        for d in range(1, 13):
            cyc = agent.ports(d)
            if not isinstance(cyc, tuple):  # a script with no table at d >= 2
                assert d > 1 and d not in agent.tables
                continue
            assert type(cyc) is tuple and cyc
            period = len(cyc)
            for i in range(1, 3 * period + 1):
                assert cyc[(i - 1) % period] == agent.outport(d, i)

    def test_script_without_degree_one_table(self):
        assert ScriptedPortFunction({2: [2]}).ports(1) == (1,)

    def test_not_periodic(self):
        fail = ScriptedPortFunction({1: [1], 2: [2, 1]}, "fail")
        for d in range(1, 13):
            assert not isinstance(fail.ports(d), tuple)
            assert not isinstance(whiteboard_rotor_router().ports(d), tuple)


class TestMemoryLowerBound:
    def test_one_bit_two_ports(self):
        assert memory_lower_bound_check(1, 2) is True

    def test_one_bit_three_ports(self):
        assert memory_lower_bound_check(1, 3) is False

    def test_zero_bits_single_port(self):
        assert memory_lower_bound_check(0, 1) is True

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            memory_lower_bound_check(-1, 2)
        with pytest.raises(ValueError):
            memory_lower_bound_check(1, 0)

    @pytest.mark.parametrize("bits, d", [
        (1.5, 2), (True, 2), (2, True), (1, 2.5), (None, 2), ("1", 2),
    ])
    def test_rejects_non_int_args(self, bits, d):
        with pytest.raises(ValueError):
            memory_lower_bound_check(bits, d)

    @given(st.integers(0, 12), st.integers(1, 2048))
    def test_agrees_with_powers(self, bits, d):
        assert memory_lower_bound_check(bits, d) == (2 ** bits >= d)

    @pytest.mark.parametrize("d", [1, 2, 3, 2 ** 40, 2 ** 40 + 1])
    def test_huge_budget_builds_no_huge_int(self, d):
        # 1 << 10**8 alone would take 12.5 MB
        tracemalloc.start()
        try:
            assert memory_lower_bound_check(10 ** 8, d) is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestStateBudget:
    @pytest.mark.parametrize("bits", range(6))
    def test_largest_state_within_budget(self, bits):
        # states 0..2^bits - 1 fit in bits bits; 2^bits is the first that does not
        top = (1 << bits) - 1
        a = WhiteboardAgent(lambda s, d: (s + 1, 1), initial_state=top, memory_bits=bits)
        assert derive_port_function(a, 2, 0) == []
        with pytest.raises(AgentViolationError,
                           match=f"^node state {top + 1} needs more than {bits} bits "):
            derive_port_function(a, 2, 1)

    def test_huge_budget_builds_no_huge_int(self):
        a = WhiteboardAgent(lambda s, d: (s * 2 + 1, 1), initial_state=1,
                            memory_bits=10 ** 8)
        tracemalloc.start()
        try:
            assert derive_port_function(a, 3, 50) == [1] * 50
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class Port(enum.IntEnum):
    ONE = 1
    TWO = 2


def test_int_subclasses_are_ints():
    # as run() and the graph builders already took them; bool is the exception
    assert CyclicAgent([Port.TWO]).ports(3) == (2,)
    assert ScriptedPortFunction({Port.TWO: [Port.ONE]}).ports(2) == (1,)
    assert memory_lower_bound_check(Port.ONE, Port.TWO) is True


def agent_with(ports):
    """A bare PortFunction whose ports(d) is the given function."""
    agent = PortFunction()
    agent.ports = ports
    return agent


def iterating(port):
    """An agent whose ports(d) is an iterator over port(d, 1), port(d, 2), ...."""
    return agent_with(lambda d: map(port, itertools.repeat(d), itertools.count(1)))


class Counting(PortFunction):
    """Yields the agent's port_d as an iterator and records every (d, i) it
    is advanced to."""

    def __init__(self, agent):
        self.agent = agent
        self.calls = []

    def ports(self, d):
        for i in itertools.count(1):
            self.calls.append((d, i))
            yield self.agent.outport(d, i)


# Each reader of port_d, with the degree whose port it reads first.
READERS = {
    "run": (1, lambda a: run(build_path(PathLabeling(3, (1,))), a, 0, "covered")),
    "brute-force": (1, lambda a: brute_force_path_worst_case(a, 4)),
    "path-labeling": (2, lambda a: worst_case_path_labeling(a, 4)),
    "rare-port": (3, lambda a: rare_port(a, 3)),
    "derive": (3, lambda a: derive_port_function(a, 3, 7)),
}
BAD_PORTS = {"1.0": lambda d: 1.0, "None": lambda d: None, "0": lambda d: 0,
             "True": lambda d: True, "d+1": lambda d: d + 1}


class TestOneReader:
    """Every reader checks ports through port_sequence, with one message."""

    @pytest.mark.parametrize("bad", BAD_PORTS.values(), ids=BAD_PORTS.keys())
    @pytest.mark.parametrize("form", ["outport", "cycle"])
    @pytest.mark.parametrize("reader", READERS, ids=READERS.keys())
    def test_bad_port_message(self, reader, form, bad):
        d, read = READERS[reader]
        if form == "outport":  # ports(d) is an iterator
            agent = iterating(lambda d_, i: bad(d_))
        else:
            agent = agent_with(lambda d_: (bad(d_),))
        with pytest.raises(AgentViolationError) as e:
            read(agent)
        assert str(e.value) == f"agent returned port {bad(d)!r} at degree {d}"

    @pytest.mark.parametrize("bad", BAD_PORTS.values(), ids=BAD_PORTS.keys())
    def test_whiteboard_bad_port_message(self, bad):
        a = WhiteboardAgent(transition=lambda s, d: (s, bad(d)))
        with pytest.raises(AgentViolationError) as e:
            derive_port_function(a, 3, 1)
        assert str(e.value) == f"agent returned port {bad(3)!r} at degree 3"

    @pytest.mark.parametrize("agent", battery().values(), ids=battery().keys())
    def test_constructions_ask_each_index_once(self, agent):
        for d in range(2, 8):
            counting = Counting(agent)
            rare_port(counting, d)
            assert counting.calls == [(d, i) for i in range(1, d * (d - 1) + 1)]
        for n in range(2, 12):
            counting = Counting(agent)
            worst_case_path_labeling(counting, n)
            assert counting.calls == [(2, i) for i in range(1, 2 * (n - 2))]

    @pytest.mark.parametrize("agent", battery().values(), ids=battery().keys())
    def test_constructions_read_the_cycle(self, agent):
        periodic = agent_with(agent.ports)
        for d in range(2, 8):
            assert rare_port(periodic, d) == rare_port(Counting(agent), d)
        for n in range(2, 12):
            assert (worst_case_path_labeling(periodic, n)
                    == worst_case_path_labeling(Counting(agent), n))

    def test_sequence_forms(self):
        assert port_sequence(ROTOR, 3) == (1, 2, 3)
        lazy = port_sequence(whiteboard_rotor_router(), 3)
        assert [lazy[i % len(lazy)] for i in range(7)] == [1, 2, 3, 1, 2, 3, 1]
        with pytest.raises(AgentViolationError, match="agent cycle at degree 2 is"):
            port_sequence(agent_with(lambda d: [1, 2]), 2)

    def test_iterator_error_is_kept(self):
        # The iterator is spent once it raises; every later read at or past
        # that index raises the same error again.
        def ports(d):
            yield 1
            raise HorizonExceededError("table ends")
        seq = port_sequence(agent_with(ports), 2)
        for i in (1, 2, 1):
            with pytest.raises(HorizonExceededError, match="table ends"):
                seq[i]
        assert seq[0] == 1
        short = port_sequence(agent_with(lambda d: iter((2,))), 2)
        assert short[0] == 2
        with pytest.raises(AgentViolationError, match="^agent returned port None at degree 2$"):
            short[1]
        # a fail script is read in order, one entry per index, never ahead
        table = [2, 3, 1, 1, 2]
        script = port_sequence(ScriptedPortFunction({3: table}, "fail"), 3)
        for c, port in enumerate(table, 1):
            assert script[c - 1] == port
            assert script.read == table[:c]
        for i in (len(table), len(table) + 1):
            with pytest.raises(HorizonExceededError, match="^degree-3 table has 5 entries"):
                script[i]
