"""Oracles, sweeps, and report plumbing."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_modules import load
from lazy_agent import Lazy
from portwalk.adversary import (
    build_cubic_instance,
    rare_port,
    verify_path_bound,
    worst_case_path_labeling,
)
from portwalk.agents import (
    CyclicAgent,
    RotorRouter,
    ScriptedPortFunction,
    WhiteboardAgent,
    derive_port_function,
    memory_lower_bound_check,
    port_sequence,
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
from portwalk.simulate import run

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
                assert all(1 <= p <= d for p in derive_port_function(agent, d, 2 * d))


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
        (3, 1, "3", "pass"),
        (None, 4, "", "pass"),
    ])
    def test_row_verdict(self, max_steps, unstopped, measured, verdict):
        r = BruteForceResult(n=4, max_steps=max_steps, labeling=None,
                             unstopped=unstopped, cap=4 * 4 ** 3)
        assert brute_force_rows("x", r) == [ReportRow(
            "bruteforce-path", "x", 4, f"unstopped={unstopped}", "9",
            measured, verdict)]

    @pytest.mark.parametrize("max_steps, unstopped, cap, verdict", [
        # an unstopped walk takes more than cap steps: at least 9 under cap 8
        (None, 4, 8, "pass"),
        (3, 3, 7, "pass-vacuous"),
        (None, 4, 7, "pass-vacuous"),
        (3, 0, 7, "fail"),
    ])
    def test_row_verdict_under_small_cap(self, max_steps, unstopped, cap, verdict):
        r = BruteForceResult(n=4, max_steps=max_steps, labeling=None,
                             unstopped=unstopped, cap=cap)
        assert brute_force_rows("x", r)[0].verdict == verdict

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
                            unstopped=unstopped, cap=4 * n ** 3 if cap is None else cap)


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
    """The depth-first enumeration against one run() per labeling, for what
    bench/oracles cannot model: agents that raise (fail scripts, whiteboard
    agents over their budget) and bad caps."""

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
        # some labelings finish first
        assert ORACLES.path_worst_case(tables, n, 4 * n ** 3).max_steps is not None
        want = outcome(reference_enumeration, agent, n)
        assert want[0] is HorizonExceededError
        assert outcome(brute_force_path_worst_case, agent, n) == want

    @pytest.mark.parametrize("bits, first_n, degree", [
        (3, 6, 2),
        (lambda d: 2 if d == 1 else 3, 5, 1),
    ], ids=["3-bits", "2-bits-at-degree-1"])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_whiteboard_runs_out_of_memory(self, bits, first_n, degree, n):
        # the node state counts exits, so it outgrows its budget mid-enumeration
        agent = WhiteboardAgent(lambda s, d: (s + 1, 1 + s % d), memory_bits=bits)
        want = outcome(reference_enumeration, agent, n)
        if n >= first_n:
            assert want[0] is AgentViolationError
            assert want[1].endswith(f"bits at degree {degree}")
        else:
            assert isinstance(want, BruteForceResult)
        assert outcome(brute_force_path_worst_case, agent, n) == want

    @given(script_tables(), st.integers(2, 8), st.one_of(st.none(), st.integers(1, 80)))
    @settings(max_examples=60, deadline=None)
    def test_random_scripts(self, tables, n, cap):
        agent = ScriptedPortFunction(tables, "fail")
        assert (outcome(brute_force_path_worst_case, agent, n, cap)
                == outcome(reference_enumeration, agent, n, cap))

    @pytest.mark.parametrize("cap", [True, False, 0, -3, 2.0])
    def test_bad_cap(self, cap):
        with pytest.raises(InvalidLimitError):
            brute_force_path_worst_case(ROTOR, 5, cap=cap)
        assert (outcome(brute_force_path_worst_case, ROTOR, 5, cap)
                == outcome(reference_enumeration, ROTOR, 5, cap))


def path_agents(n):
    """(spec, agents): agents that all walk the path by the bench/oracles
    spec. The battery, three fixed and six random degree-2 cycles (some
    with a degree-1 table), each as its cycles and served lazily at degree
    1, 2 or both, drawn, so the brute force takes the row walk instead of
    the closed form, and the whiteboard rotor-router."""
    rng = random.Random(n)
    specs = [*ORACLES.BATTERY, {2: [2, 1, 1, 2, 1, 2, 2]}, {1: [1, 1], 2: [2, 2, 1]},
             {2: [1, 2, 2, 1, 1]}]
    for _ in range(6):
        spec = {2: [rng.randint(1, 2) for _ in range(rng.randint(1, 9))]}
        if rng.random() < 0.5:
            spec[1] = [1] * rng.randint(1, 9)
        specs.append(spec)
    for spec in specs:
        agent = battery()[spec] if isinstance(spec, str) else ScriptedPortFunction(spec)
        agents = [agent, Lazy(agent, cycles=rng.choice(((2,), (1,), ())))]
        if spec == "rotor-router":
            agents.append(whiteboard_rotor_router())
        yield spec, agents


def oracle_result(spec, n, cap=None):
    """oracles.path_worst_case, under the brute force's default cap 4n^3."""
    cap = 4 * n ** 3 if cap is None else cap
    w = ORACLES.path_worst_case(spec, n, cap)
    return BruteForceResult(n=n, max_steps=w.max_steps, unstopped=w.unstopped, cap=cap,
                            labeling=None if w.labeling is None else PathLabeling(n, w.labeling))


class TestBruteForceMatchesOracle:
    """The enumeration against oracles.path_worst_case, which walks every
    labeling on paths and with a walker of its own, sharing no code with
    portwalk. Both kernels take each agent: the closed form its cycles and
    the row walk its iterators. Uncapped, and at caps 1 (the first step
    only), n - 2 to n (around the shortest walk to v_1), 3n, and at and
    just below the exact worst case; at n = 2 the cap n - 2 is 0, which
    TestBruteForceMatchesReference.test_bad_cap rejects."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_battery(self, n):
        for spec, agents in path_agents(n):
            uncapped = oracle_result(spec, n)
            worst = uncapped.max_steps
            caps = [None, 1, n - 2, n - 1, n, 3 * n, *(() if worst is None else (worst, worst - 1))]
            for cap in dict.fromkeys(c for c in caps if c is None or c >= 1):
                # no walk arrives after the worst case and by the default cap
                want = (uncapped._replace(cap=cap or uncapped.cap) if cap in (None, worst)
                        else oracle_result(spec, n, cap))
                for agent in agents:
                    assert brute_force_path_worst_case(agent, n, cap) == want, (spec, cap)


class TestPathFromEveryStart:
    """Observed, not proved: from a start at distance m from the nearer end
    of an n-node path, the rotor-router's worst cover time over all
    labelings is (n-1)^2 - m^2, and every battery agent has a labeling on
    which it takes at least that long, or never covers."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_worst_cover_by_start(self, n):
        graphs = [build_path(PathLabeling(n, bits))
                  for bits in itertools.product((1, 2), repeat=n - 2)]
        for s in range(n):
            bound = (n - 1) ** 2 - min(s, n - 1 - s) ** 2
            assert max(run(g, ROTOR, s, "covered", record_moves=False).covered_at
                       for g in graphs) == bound, s
            for name, agent in battery().items():
                assert any(t.covered_at is None or t.covered_at >= bound for t in (
                    run(g, agent, s, "covered", cap=bound, record_moves=False)
                    for g in graphs)), (name, s)

class TestBruteForceReadsPortsOnce:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_outport_asked_once_per_index(self, n):
        cap = 4 * n ** 3
        for spec, agent in [*battery().items(), ("rotor-router", whiteboard_rotor_router())]:
            counting = Lazy(agent)
            assert brute_force_path_worst_case(counting, n) == oracle_result(spec, n)
            # degree d is asked exactly 1..k, k the most exits of one node of
            # degree d in any labeling's walk: its occupancies before the walk
            # arrives at v_1, or before the cap
            most = {1: 0, 2: 0}
            for bits in itertools.product((1, 2), repeat=n - 2):
                ports = ORACLES.path_ports(n, bits)
                steps = ORACLES.walk(ports, n - 1, spec, cap, target=0).reached or cap
                for v in range(1, n):
                    w = ORACLES.walk(ports, n - 1, spec, steps, watch=v, horizon=steps)
                    most[len(ports[v])] = max(most[len(ports[v])], w.watch_visits)
            want = [(d, i) for d in (1, 2) for i in range(1, most[d] + 1)]
            assert sorted(counting.calls) == want, spec

    @pytest.mark.parametrize("lazy, bad", [(1, 2), (2, 1)])
    def test_bad_cycle_beside_none_rejected(self, lazy, bad):
        class Mixed(Lazy):
            def ports(self, d):
                return super().ports(d) if d == lazy else (d + 1,)
        agent = Mixed(ROTOR)
        with pytest.raises(AgentViolationError, match=f"port {bad + 1} at degree {bad}"):
            brute_force_path_worst_case(agent, 5)
        assert agent.calls == []


class TestKernelsAgree:
    """The closed form's exit arithmetic against a scan of the exits."""

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
    "derive_port_function_degree": lambda: derive_port_function(ROTOR, 2.0, 2),
    "port_sequence_degree_true": lambda: port_sequence(ROTOR, True),
    "memory_bits": lambda: memory_lower_bound_check(1.5, 2),
}


@pytest.mark.parametrize("call", SIZED_CALLS.values(), ids=SIZED_CALLS.keys())
def test_non_integer_size_rejected(call):
    with pytest.raises(InvalidSizeError, match="must be an integer, got"):
        call()


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("read", [
    lambda d: derive_port_function(whiteboard_rotor_router(), d, 1),
    lambda d: port_sequence(CyclicAgent((1,)), d),
], ids=["derive_port_function", "port_sequence"])
def test_degree_below_one_rejected(read, d):
    with pytest.raises(InvalidSizeError, match=f"^degree must be at least 1, got {d}$"):
        read(d)


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
