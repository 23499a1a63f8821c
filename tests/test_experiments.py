"""Oracles, sweeps, and report plumbing."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_modules import load
from portwalk.adversary import (
    build_cubic_instance,
    rare_port,
    verify_path_bound,
    worst_case_path_labeling,
)
from portwalk.agents import (
    PortFunction,
    RotorRouter,
    ScriptedPortFunction,
    derive_port_function,
    memory_lower_bound_check,
    whiteboard_rotor_router,
)
from portwalk.errors import (
    AgentViolationError,
    HorizonExceededError,
    InvalidLimitError,
    InvalidSizeError,
)
from portwalk.experiments import (
    BruteForceResult,
    ExperimentReport,
    ReportRow,
    _exits_to_inward,
    _inward_exits,
    battery,
    brute_force_path_worst_case,
    brute_force_rows,
    cubic_bound_sweep,
    path_bound_sweep,
    rotor_upper_bound_sweep,
)
from portwalk.graphs import (
    PathLabeling,
    PortLabeledGraph,
    build_clique_pendant,
    build_path,
    diameter,
    random_connected_graph,
)
from portwalk.simulate import outports_taken, run

ROTOR = RotorRouter()
ORACLES = load("oracles")


class TestBattery:
    def test_members(self):
        agents = battery()
        assert set(agents) == {"rotor-router", "always-1", "alternating-2",
                               "biased-112"}
        for name, agent in agents.items():
            assert agent.name == name

    def test_battery_answers_all_degrees(self):
        for agent in battery().values():
            for d in (1, 2, 7, 30):
                for i in range(1, 2 * d + 1):
                    assert 1 <= agent.outport(d, i) <= d


class TestBruteForce:
    def test_trivial_edge(self):
        result = brute_force_path_worst_case(ROTOR, 2)
        assert result.max_steps == 1
        assert result.unstopped == 0

    def test_four_nodes(self):
        result = brute_force_path_worst_case(ROTOR, 4)
        assert result.max_steps == 9
        # the majority construction reaches the enumerated worst case
        assert verify_path_bound(ROTOR, 4).steps >= 9

    def test_refuses_large_n(self):
        with pytest.raises(InvalidSizeError):
            brute_force_path_worst_case(ROTOR, 15)

    def test_counts_unstopped_labelings(self):
        agents = battery()
        result = brute_force_path_worst_case(agents["always-1"], 4, cap=500)
        # only the all-inward labeling lets always-1 through, in n-1 steps
        assert result.max_steps == 3
        assert result.unstopped == 3

    def test_always_one_at_fourteen(self):
        # only the all-inward labeling lets always-1 through; every other
        # walk bounces on the first arc whose port 1 points away from v_1
        # until the 4n^3 cap
        result = brute_force_path_worst_case(battery()["always-1"], 14)
        assert result.max_steps == 13
        assert result.unstopped == 4095
        assert result.labeling == PathLabeling(14, (2,) * 12)

    @pytest.mark.parametrize("max_steps, unstopped, measured, verdict", [
        (9, 0, "9", "pass"),
        (8, 0, "8", "fail"),
        (3, 3, "3", "pass"),
        (None, 4, "", "pass"),
    ])
    def test_row_verdict(self, max_steps, unstopped, measured, verdict):
        r = BruteForceResult(n=4, max_steps=max_steps, labeling=None,
                             unstopped=unstopped)
        assert brute_force_rows("x", r) == [ReportRow(
            "bruteforce-path", "x", 4, f"unstopped={unstopped}", "9",
            measured, verdict)]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_oracle_vs_construction(self, n):
        for name, agent in battery().items():
            result = brute_force_path_worst_case(agent, n, cap=4 * n ** 3)
            check = verify_path_bound(agent, n)
            assert check.passed, f"{name} n={n}"
            if result.max_steps is not None and result.max_steps >= (n - 1) ** 2:
                assert check.verdict in ("pass", "pass-vacuous")
            if name == "rotor-router":
                assert result.max_steps == (n - 1) ** 2
                assert result.unstopped == 0


def reference_enumeration(agent, n, cap=None):
    """The enumeration as one walk per labeling, in itertools.product order."""
    best = best_labeling = None
    unstopped = 0
    for bits in itertools.product((1, 2), repeat=n - 2):
        labeling = PathLabeling(n, bits)
        t = run(build_path(labeling), agent, n - 1, ("target", 0), cap=cap,
                record_moves=False)
        if not t.stopped:
            unstopped += 1
        elif best is None or t.steps > best:
            best, best_labeling = t.steps, labeling
    return BruteForceResult(n=n, max_steps=best, labeling=best_labeling,
                            unstopped=unstopped)


def outcome(enumerate_labelings, agent, n, cap=None):
    try:
        return enumerate_labelings(agent, n, cap)
    except Exception as e:
        return type(e), str(e)


def script_tables():
    """Degree-1 and degree-2 tables of up to 9 entries; degree 1 optional."""
    return st.fixed_dictionaries(
        {2: st.lists(st.integers(1, 2), min_size=1, max_size=9)},
        optional={1: st.lists(st.just(1), min_size=1, max_size=9)})


class TestBruteForceMatchesReference:
    """The depth-first enumeration against one walk per labeling."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_battery(self, n):
        for agent in battery().values():
            assert brute_force_path_worst_case(agent, n) == reference_enumeration(agent, n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_caps_cut_walks(self, n):
        # caps at and between the steps where walks first reach new nodes;
        # at n = 2 the cap n-2 is 0, which both reject
        for agent in battery().values():
            for cap in (1, n - 2, n - 1, n, 3 * n):
                assert (outcome(brute_force_path_worst_case, agent, n, cap)
                        == outcome(reference_enumeration, agent, n, cap)), (agent.name, cap)

    @pytest.mark.parametrize("agent", [
        ScriptedPortFunction({2: [2, 1, 1, 2, 1, 2, 2]}, "cycle", name="cycle-2112122"),
        ScriptedPortFunction({1: [1, 1], 2: [2, 2, 1]}, "cycle", name="cycle-221"),
        whiteboard_rotor_router(),
    ], ids=lambda a: a.name)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_scripts_and_whiteboard(self, agent, n):
        assert brute_force_path_worst_case(agent, n) == reference_enumeration(agent, n)

    @pytest.mark.parametrize("tables, n", [
        ({2: [1, 2, 2, 1, 2]}, 6),
        # the first labeling that raises runs out of its degree-1 table;
        # labelings later in product order but earlier depth-first run
        # out of the degree-2 table
        ({1: [1, 1, 1, 1], 2: [2, 2, 2, 1, 2, 2, 1]}, 5),
        ({1: [1], 2: [2, 2, 1, 2, 2]}, 7),
    ])
    def test_fail_script_runs_out(self, tables, n):
        agent = ScriptedPortFunction(tables, "fail")
        finished = reference_enumeration(ScriptedPortFunction(tables, "cycle"), n)
        assert finished.max_steps is not None  # some labelings finish first
        want = outcome(reference_enumeration, agent, n)
        assert want[0] is HorizonExceededError
        assert outcome(brute_force_path_worst_case, agent, n) == want

    @given(script_tables(), st.sampled_from(["cycle", "fail"]), st.integers(2, 8),
           st.one_of(st.none(), st.integers(1, 80)))
    @settings(max_examples=120, deadline=None)
    def test_random_scripts(self, tables, extension, n, cap):
        agent = ScriptedPortFunction(tables, extension)
        assert (outcome(brute_force_path_worst_case, agent, n, cap)
                == outcome(reference_enumeration, agent, n, cap))

    @pytest.mark.parametrize("cap", [True, False, 0, -3, 2.0])
    def test_bad_cap(self, cap):
        with pytest.raises(InvalidLimitError):
            brute_force_path_worst_case(ROTOR, 5, cap=cap)
        assert (outcome(brute_force_path_worst_case, ROTOR, 5, cap)
                == outcome(reference_enumeration, ROTOR, 5, cap))


class TestBruteForceMatchesOracle:
    """The enumeration against oracles.path_worst_case, which walks every
    labeling on paths and with a walker of its own, sharing no code with
    portwalk."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_battery(self, n):
        for name, agent in battery().items():
            got = brute_force_path_worst_case(agent, n)
            want = ORACLES.path_worst_case(name, n, cap=4 * n ** 3)
            assert got.max_steps == want.max_steps, name
            assert got.unstopped == want.unstopped, name
            assert got.labeling == (None if want.labeling is None
                                    else PathLabeling(n, want.labeling)), name


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


class TestBruteForceReadsPortsOnce:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_outport_asked_once_per_index(self, n):
        for agent in [*battery().values(), whiteboard_rotor_router()]:
            counting = Counting(agent)
            assert (brute_force_path_worst_case(counting, n)
                    == reference_enumeration(agent, n))
            # degree d is asked exactly 1..k, k the most exits of one node of
            # degree d in any labeling's walk
            most = {1: 0, 2: 0}
            for bits in itertools.product((1, 2), repeat=n - 2):
                g = build_path(PathLabeling(n, bits))
                t = run(g, agent, n - 1, ("target", 0))
                for v in range(n):
                    d = g.degree(v)
                    most[d] = max(most[d], len(outports_taken(t, v)))
            want = [(d, i) for d in (1, 2) for i in range(1, most[d] + 1)]
            assert sorted(counting.calls) == want, agent.name

    @pytest.mark.parametrize("lazy, bad", [(1, 2), (2, 1)])
    def test_bad_cycle_beside_none_rejected(self, lazy, bad):
        class Mixed(Counting):
            def ports(self, d):
                return super().ports(d) if d == lazy else (d + 1,)
        agent = Mixed(ROTOR)
        with pytest.raises(AgentViolationError, match=f"port {bad + 1} at degree {bad}"):
            brute_force_path_worst_case(agent, 5)
        assert agent.calls == []


class AsIterator(PortFunction):
    """The agent's cycles handed out as iterators, so the brute force takes
    the row walk instead of the closed form."""

    def __init__(self, agent, degrees=(1, 2)):
        self.agent, self.degrees, self.name = agent, degrees, agent.name

    def ports(self, d):
        got = self.agent.ports(d)
        return itertools.cycle(got) if d in self.degrees else got


class TestKernelsAgree:
    """The closed form (every port sequence a cycle) against the row walk on
    the same tables, uncapped and at caps 1 (the first step only), n - 1
    (the shortest walk to v_1) and at and just below the exact worst case."""

    @staticmethod
    def caps(agent, n):
        worst = brute_force_path_worst_case(agent, n).max_steps
        extra = () if worst is None else (worst, worst - 1)
        return [None, 1, n - 1, *(c for c in extra if c >= 1)]

    def check(self, agent, n, walked):
        for cap in self.caps(agent, n):
            assert (outcome(brute_force_path_worst_case, agent, n, cap)
                    == outcome(brute_force_path_worst_case, walked, n, cap)), (agent.name, cap)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_battery(self, n):
        for agent in battery().values():
            self.check(agent, n, AsIterator(agent))

    @pytest.mark.parametrize("degrees", [(1,), (2,)])
    def test_mixed_agents(self, degrees):
        # one degree an iterator, the other a cycle: the row walk repeats the cycle
        agent = ScriptedPortFunction({2: [1, 2, 2, 1, 1]}, "cycle")
        for n in range(2, 9):
            mixed = AsIterator(agent, degrees)
            assert brute_force_path_worst_case(agent, n) == reference_enumeration(mixed, n)
            self.check(agent, n, mixed)

    @given(script_tables(), st.integers(2, 10))
    @settings(max_examples=80, deadline=None)
    def test_random_cycles(self, tables, n):
        agent = ScriptedPortFunction(tables, "cycle")
        self.check(agent, n, AsIterator(agent))

    @pytest.mark.parametrize("period", range(1, 6))
    def test_exits_to_inward_matches_scan(self, period):
        def scan(ports, label, e, r):
            """Exits after the first e, up to the r-th that leaves by the
            port other than label, read one by one."""
            made = 0
            while r:
                made += 1
                r -= ports[(e + made - 1) % period] != label
            return made

        for ports in itertools.product((1, 2), repeat=period):
            for label in (1, 2):
                pos, pre = _inward_exits(ports, label)
                assert len(pos) == sum(p != label for p in ports)
                if not pos:
                    continue
                for e in range(3 * period + 1):
                    for r in range(1, 2 * len(pos) + 2):
                        assert (_exits_to_inward(e, r, period, pos, pre)
                                == scan(ports, label, e, r)), (ports, label, e, r)


SIZED_CALLS = {
    "build_path": lambda: build_path(PathLabeling(3.0, (1,))),
    "path_labeling_true": lambda: PathLabeling(True, ()),
    "build_clique_pendant": lambda: build_clique_pendant(2.0, 1),
    "random_graph_n": lambda: random_connected_graph(3.0, 2, 0),
    "random_graph_m": lambda: random_connected_graph(3, 2.0, 0),
    "random_graph_true": lambda: random_connected_graph(True, 0, 0),
    "worst_case_path_labeling": lambda: worst_case_path_labeling(ROTOR, 4.0),
    "rare_port": lambda: rare_port(ROTOR, 2.0),
    "build_cubic_instance": lambda: build_cubic_instance(ROTOR, 6.0),
    "brute_force": lambda: brute_force_path_worst_case(ROTOR, 4.0),
    "derive_port_function": lambda: derive_port_function(ROTOR, 2, 3.0),
    "memory_bits": lambda: memory_lower_bound_check(1.5, 2),
}


@pytest.mark.parametrize("call", SIZED_CALLS.values(), ids=SIZED_CALLS.keys())
def test_non_integer_size_rejected(call):
    with pytest.raises(InvalidSizeError, match="must be an integer, got"):
        call()


class TestPathSweep:
    def test_small_sweep_passes(self):
        report = path_bound_sweep(battery(), range(2, 8))
        assert report.passed
        assert len(report.rows) == 4 * 6 * 2

    def test_rows_sorted_by_agent_then_n(self):
        report = path_bound_sweep(battery(), [5, 3])
        keys = [(r.agent, r.n) for r in report.rows]
        assert keys == sorted(keys)


class TestCubicSweep:
    def test_small_sweep_passes(self):
        report = cubic_bound_sweep(battery(), [6, 9])
        assert report.passed


class TestRotorUpperSweep:
    def test_single_edge(self):
        report = rotor_upper_bound_sweep([(2, 1, 0)])
        assert report.passed
        row = report.rows[0]
        assert row.measured == "1"
        assert float(row.bound) == 2.0  # 2 * m * D = 2 * 1 * 1

    def test_medium_graph(self):
        report = rotor_upper_bound_sweep([(50, 100, 1)])
        assert report.passed

    def test_star_graph_directly(self):
        # explicit 5-node star: rotor from the center covers within 2*m*D
        star = PortLabeledGraph(5, ((1, 2, 3, 4), (0,), (0,), (0,), (0,)))
        t = run(star, ROTOR, 0, "covered")
        assert t.covered_at is not None
        assert t.covered_at <= 2 * 4 * diameter(star)

    def test_non_covering_row_fails(self):
        report = rotor_upper_bound_sweep([(10, 15, 3)], cap=2)
        row = report.rows[0]
        assert (row.measured, row.verdict) == ("", "fail")
        assert report.aggregate == "fail"

    def test_tiny_factor_fails(self):
        report = rotor_upper_bound_sweep([(10, 15, 3)], factor=0.001)
        assert not report.passed
        assert report.aggregate == "fail"

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            rotor_upper_bound_sweep([(2, 1, 0)], factor=0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), True, "2", None, 2j,
                                        pytest.param(10 ** 400, id="int-past-floats")])
    def test_rejects_non_finite_factor(self, factor):
        with pytest.raises(InvalidLimitError, match="^factor must be a positive finite number"):
            rotor_upper_bound_sweep([(2, 1, 0)], factor=factor)

    @pytest.mark.parametrize("factor", [1e308, 10 ** 308], ids=["float", "int"])
    def test_rejects_factor_whose_bound_overflows(self, factor):
        # 5,6,1 has m * D = 18; 2,1,0 has m * D = 1 and stays finite
        assert rotor_upper_bound_sweep([(2, 1, 0)], factor=factor).passed
        with pytest.raises(InvalidLimitError, match=(
                r"^factor \* m \* D must be finite, got 1e\+308 \* 18 for case 5,6,1$")):
            rotor_upper_bound_sweep([(2, 1, 0), (5, 6, 1)], factor=factor)

    def test_rows_sorted_by_case(self):
        report = rotor_upper_bound_sweep([(9, 12, 5), (4, 4, 2), (9, 10, 1)])
        assert [(r.n, r.param) for r in report.rows] == sorted(
            (r.n, r.param) for r in report.rows)


class TestReports:
    def make_report(self):
        report = ExperimentReport("demo", {"n": 3})
        report.rows.append(ReportRow("demo", "a", 3, "x", "4", "5", "pass"))
        report.rows.append(ReportRow("demo", "b", 3, "y", "4", "", "pass-vacuous"))
        return report

    def test_aggregate_pass(self):
        assert self.make_report().aggregate == "pass"

    def test_aggregate_fail(self):
        report = self.make_report()
        report.rows.append(ReportRow("demo", "c", 3, "z", "4", "3", "fail"))
        assert report.aggregate == "fail"
        assert not report.passed

    def test_csv_columns(self):
        text = self.make_report().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "experiment,agent,n,param,bound,measured,verdict"
        assert lines[1] == "demo,a,3,x,4,5,pass"
        assert lines[-1].endswith("pass")

    def test_json_round_trip(self):
        import json
        doc = json.loads(self.make_report().to_json())
        assert doc["aggregate"] == "pass"
        assert doc["rows"][0]["agent"] == "a"

    def test_deterministic_bytes(self):
        a = rotor_upper_bound_sweep([(8, 10, 4), (6, 7, 2)])
        b = rotor_upper_bound_sweep([(8, 10, 4), (6, 7, 2)])
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()
