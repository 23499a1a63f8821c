"""Worst-case constructions and their certificates."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_modules import load
from portwalk.adversary import (
    AdversarialInstance,
    CubicBoundReport,
    build_cubic_instance,
    export_instance,
    rare_port,
    select_v_star,
    verify_cubic_bound,
    verify_path_bound,
    worst_case_path_labeling,
)
from portwalk.agents import (
    CyclicAgent,
    PortFunction,
    RotorRouter,
    ScriptedPortFunction,
    whiteboard_rotor_router,
)
from portwalk.cli import main
from portwalk.errors import (
    AgentViolationError,
    HorizonExceededError,
    InvalidLimitError,
    InvalidSizeError,
    InvalidVertexError,
)
from portwalk.experiments import battery
from portwalk.graphs import (
    PathLabeling,
    build_clique_pendant,
    build_path,
    deserialize,
    random_connected_graph,
    validate,
)
from portwalk.simulate import (
    SimulationTrace,
    arc_traversals,
    export_trace,
    run,
    visit_count_upto,
)

ORACLES = load("oracles")

ROTOR = RotorRouter()
ALWAYS_1 = CyclicAgent((1,), name="always-1")
BATTERY = [
    ROTOR,
    ALWAYS_1,
    CyclicAgent((2, 1), name="alternating-2"),
    CyclicAgent((1, 1, 2), name="biased-112"),
]


class TestWorstCasePathLabeling:
    def test_rotor_three_nodes(self):
        assert worst_case_path_labeling(ROTOR, 3).toward_far == (1,)

    def test_rotor_four_nodes(self):
        # prefixes (1) and (1,2,1) both have majority 1
        assert worst_case_path_labeling(ROTOR, 4).toward_far == (1, 1)

    def test_two_nodes_empty(self):
        assert worst_case_path_labeling(ROTOR, 2).toward_far == ()

    def test_two_nodes_check_the_cycle(self):
        # n = 2 reads no degree-2 exit, but still checks the degree-2 cycle
        agent = PortFunction()
        agent.ports = lambda d: (0,)
        with pytest.raises(AgentViolationError, match="^agent returned port 0 at degree 2$"):
            worst_case_path_labeling(agent, 2)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_too_small(self, n):
        with pytest.raises(InvalidSizeError, match="^n must be at least 2"):
            worst_case_path_labeling(ROTOR, n)

    def test_short_script_runs_out(self):
        agent = ScriptedPortFunction({2: [1]}, "fail")
        with pytest.raises(HorizonExceededError):
            worst_case_path_labeling(agent, 4)

    def test_alternating_points_twos_outward(self):
        # degree-2 sequence 2,1,2,... has majority 2 in every odd prefix
        agent = CyclicAgent((2, 1))
        assert worst_case_path_labeling(agent, 5).toward_far == (2, 2, 2)


class TestVerifyPathBound:
    def test_rotor_three_nodes_measured(self):
        r = verify_path_bound(ROTOR, 3)
        assert r.verdict == "pass"
        assert r.steps == 4 and r.bound == 4
        assert r.arc_count == 2 and r.arc_bound == 2

    def test_rotor_ten_nodes_exact(self):
        r = verify_path_bound(ROTOR, 10)
        assert r.verdict == "pass"
        assert r.steps == 81

    def test_always_one_is_vacuous(self):
        r = verify_path_bound(ALWAYS_1, 3, cap=100)
        assert r.verdict == "pass-vacuous"
        assert r.steps is None
        assert r.passed

    def test_two_nodes(self):
        r = verify_path_bound(ROTOR, 2)
        assert r.verdict == "pass"
        assert r.steps == 1 and r.arc_count == 1

    @pytest.mark.parametrize("agent", BATTERY, ids=lambda a: a.name)
    def test_arc_count_is_recorded_crossings(self, agent):
        for n in range(2, 31):
            r = verify_path_bound(agent, n)
            g = build_path(worst_case_path_labeling(agent, n))
            t = run(g, agent, n - 1, ("target", 0), cap=r.cap)
            assert r.arc_count == arc_traversals(t, n - 1, n - 2)

    @pytest.mark.parametrize("n", [3, 7])
    @pytest.mark.parametrize("short, verdict", [(1, "fail"), (0, "pass")])
    def test_start_arc_crossing_rule(self, n, short, verdict, monkeypatch):
        # A finishing walk of (n-1)^2 steps passes only if it left v_n n-1
        # times. No agent's own walk crosses that arc fewer times, so the
        # walk is replaced by a trace that does.
        import portwalk.adversary as adversary

        def walk(g, agent, start, stop, cap, record_moves):
            visits = [1] * n
            visits[start] = n - 1 - short
            return SimulationTrace(g, start, 0, (n - 1) ** 2, None, [0] * n, visits,
                                   (n - 1) ** 2, True)
        monkeypatch.setattr(adversary, "run", walk)
        r = verify_path_bound(ROTOR, n)
        assert (r.steps, r.arc_count, r.verdict) == ((n - 1) ** 2, n - 1 - short, verdict)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("port", [1.0, None, "1", True])
    def test_non_integer_port(self, port, n):
        # n=2 has no internal node, so the walk itself meets the port.
        agent = PortFunction()
        agent.ports = lambda d: itertools.repeat(port)
        with pytest.raises(AgentViolationError, match=repr(port)):
            verify_path_bound(agent, n)


class TestRarePort:
    def test_rotor_degree_three(self):
        # first six degree-3 exits are 1,2,3,1,2,3: every port hits the cap
        assert rare_port(ROTOR, 3) == 1

    def test_skewed_script(self):
        agent = ScriptedPortFunction({2: [1, 1]}, "fail")
        assert rare_port(agent, 2) == 2

    def test_horizon_too_short(self):
        agent = ScriptedPortFunction({2: [1]}, "fail")
        with pytest.raises(HorizonExceededError):
            rare_port(agent, 2)

    def test_degree_too_small(self):
        with pytest.raises(InvalidSizeError):
            rare_port(ROTOR, 1)

    def test_never_used_port_is_rare(self):
        assert rare_port(ALWAYS_1, 4) == 2

    @pytest.mark.parametrize("port", [1.0, None, 0, 4])
    def test_bad_exit_rejected(self, port):
        agent = PortFunction()
        agent.ports = lambda d: itertools.repeat(port)
        with pytest.raises(AgentViolationError, match=f"agent returned port {port!r} at degree 3"):
            rare_port(agent, 3)


class TestSelectVStar:
    def test_rotor_small_probe(self):
        # hand-run: rotor on the 4-node instance visits node 0 twice in 4 steps
        g1 = build_clique_pendant(2, rare_port(ROTOR, 2))
        t = run(g1, ROTOR, 0, ("steps", 4))
        v = select_v_star(t, range(2), budget=2)
        assert v == 0
        assert visit_count_upto(t, 0, 4) == 2

    def test_smallest_id_wins(self):
        g1 = build_clique_pendant(3, 1)
        t = run(g1, ROTOR, 0, ("steps", 18))
        picked = select_v_star(t, range(3), budget=6)
        for v in range(picked):
            assert visit_count_upto(t, v, 18) > 6

    def test_generous_budget_picks_zero(self):
        g1 = build_clique_pendant(3, 1)
        t = run(g1, ROTOR, 1, ("steps", 10))
        assert select_v_star(t, range(3), budget=10) == 0


class TestBuildCubicInstance:
    def test_rotor_eighteen(self):
        inst = build_cubic_instance(ROTOR, 18)
        assert inst.graph.n == 18
        assert inst.certified_bound == 180
        assert inst.construction_log["d"] == 6
        assert inst.construction_log["p"] == 1
        assert inst.construction_log["path_len"] == 7
        assert len(inst.construction_log["alpha"]) == 6
        assert validate(inst.graph) == []

    def test_remainder_goes_into_path(self):
        inst = build_cubic_instance(ROTOR, 20)
        assert inst.graph.n == 20
        assert inst.construction_log["d"] == 6
        assert inst.construction_log["path_len"] == 9
        assert inst.certified_bound == 180

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            build_cubic_instance(ROTOR, 5)

    def test_start_must_be_clique_node(self):
        with pytest.raises(InvalidVertexError):
            build_cubic_instance(ROTOR, 18, start=7)

    @pytest.mark.parametrize("start, message", [
        (0.5, "an integer, got 0.5"), (True, "an integer, got True"),
        (6, "in 0..5, got 6"), (-1, "in 0..5, got -1"),
    ], ids=repr)
    def test_start_checked_against_the_clique(self, start, message):
        # not by the probe run, which named the probe graph's nodes 0..11
        with pytest.raises(InvalidVertexError, match=f"^start clique node must be {message}$"):
            build_cubic_instance(ROTOR, 18, start=start)

    def test_deterministic(self):
        assert build_cubic_instance(ROTOR, 21) == build_cubic_instance(ROTOR, 21)

    def test_structure_around_replaced_node(self):
        inst = build_cubic_instance(ROTOR, 18)
        g = inst.graph
        d = inst.construction_log["d"]
        p = inst.construction_log["p"]
        v_star = inst.construction_log["v_star"]
        entry = 2 * d - 1
        assert g.neighbor(v_star, p) == entry
        assert g.degree(entry) == 2
        assert g.degree(g.n - 1) == 1  # far target

    def test_stage_named_on_horizon_error(self):
        # enough degree-6 script for the rare port, nothing for degree 2
        tables = {6: [ROTOR.outport(6, i) for i in range(1, 31)], 1: [1]}
        agent = ScriptedPortFunction(tables, "fail")
        with pytest.raises(HorizonExceededError, match="stage"):
            build_cubic_instance(agent, 18)

    def test_path_labeling_stage_named(self):
        # the rare port and the probe run succeed; degree 2 runs out
        tables = {6: [ROTOR.outport(6, i) for i in range(1, 181)], 2: [1]}
        agent = ScriptedPortFunction(tables, "fail")
        with pytest.raises(HorizonExceededError, match="^path-labeling stage: "):
            build_cubic_instance(agent, 18)


class TestVerifyCubicBound:
    def test_rotor_eighteen(self):
        r = verify_cubic_bound(ROTOR, 18)
        assert r.cap == 4 * r.instance.graph.n ** 3
        assert r.verdict == "pass"
        assert r.cover is not None and r.cover >= 180
        assert r.v_star_visits <= r.v_star_budget == 30

    def test_rotor_thirty(self):
        r = verify_cubic_bound(ROTOR, 30)
        assert r.verdict == "pass"
        assert r.cover >= 900

    def test_rotor_cover_on_its_own_instance(self):
        # Observed, not proved: the rotor-router covers its own n = 3d
        # instance at step d^3 + d^2 + 3d - 1, the bound d^2 (d - 1) plus
        # 2d^2 + 3d - 1, so the bound is tight up to 1 + O(1/d).
        # test_matches_oracle referees the smallest n.
        for d in range(2, 51):
            assert verify_cubic_bound(ROTOR, 3 * d).cover == d ** 3 + d ** 2 + 3 * d - 1, d

    def test_cap_beyond_machine_size(self):
        # the continued walk, counted down from a cap past sys.maxsize
        r = verify_cubic_bound(ROTOR, 18, cap=10 ** 20)
        assert r.cap == 10 ** 20
        assert CubicBoundReport(**{**r._asdict(), "cap": 4 * r.instance.graph.n ** 3}) == (
            verify_cubic_bound(ROTOR, 18))

    def test_always_one_never_covers(self):
        r = verify_cubic_bound(ALWAYS_1, 18, cap=10_000)
        assert r.verdict == "pass-vacuous"
        assert r.cover is None
        assert r.passed

    @pytest.mark.parametrize("cap", [0, -3, True, 2.0])
    def test_bad_cap(self, cap):
        with pytest.raises(InvalidLimitError, match="^cap must be"):
            verify_cubic_bound(ROTOR, 18, cap=cap)

    def test_v_star_over_budget_fails(self, monkeypatch):
        # The probe run's accounting keeps a real replay within budget, so a
        # miscount is injected into the replay of the 18-node instance (the
        # probe graph has 12 nodes); the row fails whatever the cover time.
        import portwalk.adversary as adversary
        count = adversary.visit_count_upto
        monkeypatch.setattr(adversary, "visit_count_upto", lambda t, v, k: (
            count(t, v, k) + 100 * (t.graph.n == 18)))
        r = verify_cubic_bound(ROTOR, 18)
        assert r.cover is not None and r.cover >= r.bound
        assert r.v_star_visits > r.v_star_budget
        assert r.verdict == "fail" and not r.passed

    @pytest.mark.parametrize("n", [6, 9, 12, 15, 18, 21, 24])
    @pytest.mark.parametrize("agent", BATTERY, ids=lambda a: a.name)
    def test_matches_oracle(self, agent, n):
        # The cap below the bound keeps counting v* over all bound steps,
        # and a cover counts only when it is within the cap.
        inst = build_cubic_instance(agent, n)
        for cap in (None, 10_000, inst.certified_bound // 2):
            assert_cubic_matches_oracle(agent, agent.name, n, cap, inst)

    @given(st.integers(6, 30).flatmap(lambda n: st.tuples(
        st.just(n),
        st.fixed_dictionaries({d: st.one_of(
            st.lists(st.integers(1, d), min_size=1, max_size=2 * d),
            st.permutations(range(1, d + 1)).map(list))
            for d in (1, 2, n // 3)}),
        st.one_of(st.none(), st.integers(1, 4 * n ** 3)))))
    @settings(max_examples=100, deadline=None)
    def test_random_tables_match_oracle(self, params):
        # Capped head walks and continued walks. Most random tables never
        # cover; a permutation, each port once a period like the
        # rotor-router's, often does. A fail verdict is a counterexample.
        n, tables, cap = params
        agent = ScriptedPortFunction(tables, "cycle")
        inst = build_cubic_instance(agent, n)
        assert assert_cubic_matches_oracle(agent, tables, n, cap, inst).passed

    @pytest.mark.parametrize("bound", [268, 4_000])
    @pytest.mark.parametrize("agent", BATTERY, ids=lambda a: a.name)
    def test_stretched_bound(self, agent, bound, monkeypatch):
        # The rotor-router covers the 18-node instance at step 269. A bound
        # of 268 leaves the cover to the continued walk's first step, and
        # one of 4,000 puts it inside the walk read for v*'s count, where a
        # cap below it must still hide it.
        import portwalk.adversary as adversary
        build = adversary.build_cubic_instance
        monkeypatch.setattr(adversary, "build_cubic_instance", lambda *a: AdversarialInstance(
            **{**build(*a)._asdict(), "certified_bound": bound}))
        inst = adversary.build_cubic_instance(agent, 18)
        for cap in (None, 5, 268, 269, 3_999):
            assert_cubic_matches_oracle(agent, agent.name, 18, cap, inst)

    def test_one_walk_on_the_instance(self, monkeypatch):
        # The rotor-router at n = 180 covers at step 219,779; before the
        # walk was continued, a second run replayed its first 212,400 steps.
        import portwalk.adversary as adversary
        import portwalk.simulate as simulate
        walked, run_ = [], simulate._run

        def counting(g, agent, start, stop, cap, record_moves, head=None):
            t = run_(g, agent, start, stop, cap, record_moves, head)
            walked.append((g, t.steps - (0 if head is None else head.steps)))
            return t
        monkeypatch.setattr(simulate, "_run", counting)
        monkeypatch.setattr(adversary, "_run", counting)
        r = verify_cubic_bound(ROTOR, 180)
        assert (r.bound, r.cover, r.verdict) == (212_400, 219_779, "pass")
        assert sum(steps for g, steps in walked if g is r.instance.graph) == 219_779


def assert_cubic_matches_oracle(agent, spec, n, cap, inst):
    """verify_cubic_bound's cover and v* count against oracles.walk on inst,
    the instance it builds, spec being the agent's battery name or its
    per-degree cycle tables. The oracle walks on to the bound whatever the
    cap, so a cover past the cap is dropped here. Returns the report."""
    r = verify_cubic_bound(agent, n, cap=cap)
    w = ORACLES.walk([list(row) for row in inst.graph.port_map], inst.start, spec,
                     r.cap, watch=inst.construction_log["v_star"], horizon=inst.certified_bound)
    cover = w.reached if w.reached is not None and w.reached <= r.cap else None
    assert (r.cover, r.v_star_visits) == (cover, w.watch_visits)
    return r


def oracle_path_walk(agent, n, limit):
    """oracles.walk from v_n toward v_1 on the agent's majority-labeled path."""
    g = build_path(worst_case_path_labeling(agent, n))
    return ORACLES.walk([list(row) for row in g.port_map], n - 1, agent.name, limit, target=0)


class TestVacuousRows:
    """Which pass-vacuous verdicts the oracle proves never finish, and which
    only outlast their cap."""

    @pytest.mark.parametrize("n", [18, 21, 30])
    @pytest.mark.parametrize("agent", BATTERY, ids=lambda a: a.name)
    def test_cubic_vacuous_exactly_when_state_repeats(self, agent, n):
        # a repeated state of the periodic walk proves it never covers
        r = verify_cubic_bound(agent, n)
        inst = r.instance
        w = ORACLES.walk([list(row) for row in inst.graph.port_map], inst.start,
                         agent.name, 4 * n ** 3)
        assert (r.verdict == "pass-vacuous") == (w.repeat is not None)

    def test_always_one_path_repeats_with_period_two(self):
        for n in range(3, 61):
            r = verify_path_bound(ALWAYS_1, n)
            w = oracle_path_walk(ALWAYS_1, n, r.cap)
            assert r.verdict == "pass-vacuous", n
            assert w.reached is None and w.repeat[1] == 2, n

    @pytest.mark.parametrize("n", range(2, 17))
    def test_biased_112_path_finishes_past_the_cap(self, n):
        # Observed for n = 2..22, not proved: biased-112's walk on its own
        # majority path reaches v_1 after 2^(n+1) - 3n - 1 steps. Its rows
        # read pass-vacuous only because that outlasts the cap: from n = 5
        # under (n-1)^2 + 4n + 4, from n = 8 under the default 8(n-1)^2 + 8.
        agent = CyclicAgent((1, 1, 2), name="biased-112")
        steps = 2 ** (n + 1) - 3 * n - 1
        assert verify_path_bound(agent, n, cap=steps).steps == steps
        if n <= 12:
            assert oracle_path_walk(agent, n, steps).reached == steps
        short = verify_path_bound(agent, n, cap=(n - 1) ** 2 + 4 * n + 4)
        assert short.verdict == ("pass-vacuous" if n >= 5 else "pass")
        assert verify_path_bound(agent, n).verdict == ("pass-vacuous" if n >= 8 else "pass")


class TestPrefixEquivalence:
    """Moves made at clique/pendant nodes are the same with and without
    the grafted path, which is what makes the probe run's accounting
    transfer to the final instance."""

    @pytest.mark.parametrize("agent", BATTERY, ids=lambda a: a.name)
    def test_aligned_replay(self, agent):
        n = 18
        inst = build_cubic_instance(agent, n)
        d = inst.construction_log["d"]
        v_star = inst.construction_log["v_star"]
        removed = d + v_star
        budget_steps = inst.certified_bound

        g1 = build_clique_pendant(d, inst.construction_log["p"])
        t1 = run(g1, agent, 0, ("steps", budget_steps))

        tg = run(inst.graph, agent, 0, ("steps", 4 * budget_steps))
        role_of = {v: v for v in range(d)}
        for k in range(d):
            if k != v_star:
                old = d + k
                role_of[old if old < removed else old - 1] = old
        shared_old_ids = set(role_of.values())
        from_g = [(role_of[v], p) for v, p in tg.moves if v in role_of]
        from_g1 = [(v, p) for v, p in t1.moves if v in shared_old_ids]

        window = min(len(from_g1), len(from_g))
        assert window > 0
        assert from_g[:window] == from_g1[:window]

    def test_vstar_not_overvisited_in_final_graph(self):
        for agent in BATTERY:
            inst = build_cubic_instance(agent, 21)
            T = inst.certified_bound
            d = inst.construction_log["d"]
            t = run(inst.graph, agent, 0, ("steps", T))
            visits = visit_count_upto(t, inst.construction_log["v_star"], T)
            assert visits <= d * (d - 1)


def cyclic_tables(max_degree):
    """Random per-degree tables for a cycle-extended scripted agent."""
    return st.fixed_dictionaries({
        d: st.lists(st.integers(1, d), min_size=1, max_size=3 * d)
        for d in range(2, max_degree + 1)
    })


class TestUniversality:
    """The certificates hold for arbitrary deterministic agents, not just
    the fixed battery: whatever sequences an agent commits to, the
    instance built from those sequences defeats it."""

    @given(st.integers(2, 9), cyclic_tables(2))
    @settings(max_examples=60, deadline=None)
    def test_path_bound_for_random_agents(self, n, tables):
        agent = ScriptedPortFunction(tables, "cycle")
        r = verify_path_bound(agent, n)
        assert r.passed
        if r.verdict == "pass":
            assert r.steps >= (n - 1) ** 2
            assert r.arc_count >= n - 1

    @given(st.integers(6, 12), cyclic_tables(4))
    @settings(max_examples=40, deadline=None)
    def test_cubic_bound_for_random_agents(self, n, tables):
        agent = ScriptedPortFunction(tables, "cycle")
        r = verify_cubic_bound(agent, n)
        assert r.passed
        assert r.v_star_visits <= r.v_star_budget

    @given(cyclic_tables(2), st.integers(3, 300))
    @settings(max_examples=60, deadline=None)
    def test_labeling_matches_majority_rule(self, tables, n):
        agent = ScriptedPortFunction(tables, "cycle")
        assert_labeling_matches_oracle(agent, {2: tables[2]}, n)


def assert_labeling_matches_oracle(agent, spec, n):
    """worst_case_path_labeling against the oracle's labeling by the rule's
    definition, spec being the agent's battery name or {2: its degree-2
    period}."""
    want = ORACLES.majority_labeling(spec, n)
    assert worst_case_path_labeling(agent, n) == PathLabeling(n, want)


def assert_fail_script_labeling(table, n):
    """A fail script labels the path as its table's cycle would when the
    table holds the 2(n-2)-1 exits the labeling reads; else the labeling
    raises for the first visit past the table. Says which happened."""
    agent = ScriptedPortFunction({2: table}, "fail")
    if len(table) >= 2 * (n - 2) - 1:
        assert_labeling_matches_oracle(agent, {2: table}, n)
        return True
    with pytest.raises(HorizonExceededError, match=(
            f"^degree-2 table has {len(table)} entries, visit {len(table) + 1} requested$")):
        worst_case_path_labeling(agent, n)
    return False


class TestLabelingMatchesDefinition:
    """The one-pass labeling against oracles.majority_labeling, which counts
    each node's prefix on its own and imports nothing from portwalk."""

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=12), st.integers(2, 300))
    @settings(max_examples=60, deadline=None)
    def test_cyclic_patterns(self, pattern, n):
        period = [(e - 1) % 2 + 1 for e in pattern]  # entries fold into 1..2
        assert_labeling_matches_oracle(CyclicAgent(pattern), {2: period}, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 31, 32, 150, 299, 300])
    def test_battery_and_whiteboard_rotor(self, n):
        for name, agent in battery().items():
            assert_labeling_matches_oracle(agent, name, n)
        assert_labeling_matches_oracle(whiteboard_rotor_router(), "rotor-router", n)

    @given(st.lists(st.integers(1, 2), min_size=1, max_size=120), st.integers(2, 70))
    @settings(max_examples=80, deadline=None)
    def test_fail_scripts(self, table, n):
        assert_fail_script_labeling(table, n)

    @pytest.mark.parametrize("n", [4, 5, 17, 300])
    def test_fail_script_at_its_horizon(self, n):
        # exactly 2(n-2)-1 entries label the n-node path; one fewer cannot
        need = 2 * (n - 2) - 1
        table = [(3 * i) % 5 % 2 + 1 for i in range(need)]
        assert assert_fail_script_labeling(table, n)
        assert not assert_fail_script_labeling(table[:-1], n)


class TestInternalErrorPaths:
    def test_impossible_budget_aborts_loudly(self):
        g1 = build_clique_pendant(2, 1)
        t = run(g1, ROTOR, 0, ("steps", 4))
        with pytest.raises(RuntimeError, match="internal error"):
            select_v_star(t, range(2), budget=-1)


class TestExportInstance:
    def test_sidecar_shape(self):
        inst = build_cubic_instance(ROTOR, 18)
        graph_text, sidecar_text = export_instance(inst)
        assert deserialize(graph_text) == inst.graph
        sidecar = json.loads(sidecar_text)
        assert set(sidecar) == {"start", "bound", "log"}
        assert sidecar["start"] == 0
        assert sidecar["bound"] == 180
        assert set(sidecar["log"]) == {"p", "v_star", "alpha"}
        assert sidecar["log"]["alpha"] == inst.construction_log["alpha"]

    def test_battery_instances_golden(self):
        # SHA-256 of every exported battery instance, n = 6..59, agents in
        # name order, each graph document followed by its sidecar.
        h = hashlib.sha256()
        for _, agent in sorted(battery().items()):
            for n in range(6, 60):
                for text in export_instance(build_cubic_instance(agent, n)):
                    h.update(text.encode())
        assert h.hexdigest() == (
            "4388c660ee3548d1939502374b5a39e5f906658bd0db1db6272ea8c68a55b3c0")

    def test_traces_and_reports_golden(self, capsys):
        # SHA-256 of export_trace for seven agents on three seeded random
        # graphs under each stop condition (the failing script answers
        # every stop used), then of the rotor-upper, bruteforce-path and
        # adversary-path reports. A rewrite of the engine or of the report
        # path must keep these bytes.
        agents = [a for _, a in sorted(battery().items())] + [
            ScriptedPortFunction({d: [(3 * i) % d + 1 for i in range(5)]
                                  for d in range(2, 10)}, "cycle"),
            ScriptedPortFunction({d: [d - i % d for i in range(12)]
                                  for d in range(2, 10)}, "fail"),
            whiteboard_rotor_router(),
        ]
        h = hashlib.sha256()
        for n, m, seed in [(12, 20, 1), (20, 35, 2), (30, 60, 3)]:
            g = random_connected_graph(n, m, seed)
            for agent in agents:
                for stop in ("covered", ("steps", 3 * n), ("target", n // 2)):
                    h.update(export_trace(run(g, agent, 0, stop, cap=50 * n)).encode())
        commands = [["rotor-upper", "--case", "50,100,1", "--case", "30,40,2"]]
        for agent in sorted(battery()):
            commands.append(["bruteforce-path", "--agent", agent, "--n", "8"])
            for n in ("2", "10", "60"):
                for fmt in ("csv", "json"):
                    commands.append(["adversary-path", "--agent", agent, "--n", n,
                                     "--format", fmt])
        for argv in commands:
            main(argv)
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == (
            "9632742cf8f3d512d83e6a2bfa28faca0bba1a03bfc595264146032a763aaca8")
