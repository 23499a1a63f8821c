"""The benchmark's reference code: hand-worked cases, and corrupted outputs
it must reject. Run with `python3 -m pytest bench/test_bench_oracles.py`."""

import time

import pytest

import calibrate
import spans

from oracles import (
    graph_problems,
    majority_labeling,
    path_ports,
    path_worst_case,
    report_rows,
    trace_problems,
    walk,
)
from workloads import cubic_expectation, cubic_row_problems

# 3-node path v_1 - v_2 - v_3 (ids 0, 1, 2); v_2 sends port 1 away from v_1.
PATH3 = [[1], [2, 0], [1]]
# The rotor-router from v_3: 2 -> 1 -> 2 -> 1 -> 0, arriving at v_1 at step 4 = (3-1)^2.
PATH3_TRACE = """step,node,outport,next_node
0,2,1,1
1,1,1,2
2,2,1,1
3,1,2,0
summary
covered_at,4
node,first_visit,visit_count
0,4,1
1,1,2
2,0,2
"""


def test_path_ports_matches_the_hand_built_path():
    assert path_ports(3, (1,)) == PATH3
    assert path_ports(3, (2,)) == [[1], [0, 2], [1]]
    assert path_ports(2, ()) == [[1], [0]]


def test_rotor_router_on_three_node_path():
    w = walk(PATH3, 2, "rotor-router", 100, target=0)
    assert (w.steps, w.reached, w.repeat) == (4, 4, None)
    assert walk(path_ports(3, (2,)), 2, "rotor-router", 100, target=0).reached == 2
    assert walk(PATH3, 0, "rotor-router", 100).reached == 2  # coverage from v_1


def test_watch_counts_occupancies_before_the_horizon():
    # Positions at steps 0..4: 2, 1, 2, 1, 0.
    assert walk(PATH3, 2, "rotor-router", 100, target=0, watch=1, horizon=4).watch_visits == 2
    assert walk(PATH3, 2, "rotor-router", 100, target=0, watch=2, horizon=1).watch_visits == 1
    assert walk(PATH3, 2, "rotor-router", 100, target=0, watch=2, horizon=4).watch_visits == 2


def test_repeated_state_proves_the_walk_never_arrives():
    # always-1 on the 4-node path labeled (1, 1) bounces 3 -> 2 -> 3 forever.
    w = walk(path_ports(4, (1, 1)), 3, "always-1", 10 ** 6, target=0)
    assert w.reached is None and w.repeat == (2, 2) and w.steps == 4
    # Without the repeat test the same walk would run into the limit.
    assert walk(path_ports(4, (1, 1)), 3, "always-1", 3, target=0).repeat is None


def test_repeat_needs_the_whole_state_not_just_the_node():
    # The rotor-router revisits node 2 at step 2 with v_2's rotor moved on,
    # so no repeat may be declared before it arrives.
    w = walk(PATH3, 2, "rotor-router", 100, target=0)
    assert w.repeat is None and w.reached == 4


def test_majority_labeling_and_the_quadratic_path():
    assert majority_labeling("rotor-router", 5) == (1, 1, 1)
    assert majority_labeling("always-1", 4) == (1, 1)
    assert majority_labeling("alternating-2", 4) == (2, 2)
    for n in range(2, 12):
        ports = path_ports(n, majority_labeling("rotor-router", n))
        assert walk(ports, n - 1, "rotor-router", 4 * n ** 3, target=0).reached == (n - 1) ** 2


def test_enumerated_worst_case_of_the_rotor_router_is_quadratic():
    for n in range(2, 9):
        r = path_worst_case("rotor-router", n, cap=4 * n ** 3)
        assert (r.max_steps, r.unstopped) == ((n - 1) ** 2, 0)
    r = path_worst_case("always-1", 5, cap=500)
    assert r.unstopped == 7 and r.max_steps == 4 and r.labeling == (2, 2, 2)


def test_graph_problems():
    assert graph_problems(PATH3) == []
    assert graph_problems(PATH3, 4) != []
    assert "not listed once" in graph_problems([[1], [2], [1]])[0]
    assert "self-loop" in graph_problems([[0, 1], [0]])[0]
    assert "twice" in graph_problems([[1, 1], [0]])[0]
    assert "disconnected" in graph_problems([[1], [0], [3], [2]])[0]
    assert "out of range" in graph_problems([[5], [0]])[0]


def test_trace_checker_accepts_the_hand_worked_trace():
    assert trace_problems(PATH3_TRACE, PATH3, "rotor-router", 2, 4) == []
    assert trace_problems(PATH3_TRACE, PATH3, "rotor-router", 2, 5)


@pytest.mark.parametrize("old,new,why", [
    ("3,1,2,0", "3,1,2,2", "next_node"),            # next_node not what the ports say
    ("1,1,1,2", "1,1,2,0", "rule"),                 # outport breaks the rotor order
    ("2,2,1,1\n", "", "chain"),                     # a row missing breaks the chain
    ("covered_at,4", "covered_at,3", "summary"),    # cover time off by one
    ("\n1,1,2\n", "\n1,1,3\n", "summary"),          # visit count off by one
    ("0,4,1", "0,none,1", "summary"),               # first visit lost
])
def test_trace_checker_rejects_corruption(old, new, why):
    bad = PATH3_TRACE.replace(old, new, 1)
    problems = trace_problems(bad, PATH3, "rotor-router", 2)
    assert any(why in p for p in problems), problems


def test_trace_checker_rejects_a_trace_that_runs_past_coverage():
    longer = PATH3_TRACE.replace("summary", "4,0,1,1\nsummary")
    assert trace_problems(longer, PATH3, "rotor-router", 2)


def test_trace_checker_follows_scripted_tables():
    tables = {2: (2, 1)}  # v_2 first sends the walk toward v_1
    trace = ("step,node,outport,next_node\n0,2,1,1\n1,1,2,0\nsummary\ncovered_at,2\n"
             "node,first_visit,visit_count\n0,2,1\n1,1,1\n2,0,1\n")
    assert trace_problems(trace, PATH3, tables, 2) == []
    assert trace_problems(trace, PATH3, "rotor-router", 2)


def _cubic_rows(cover: str, visits: str, verdict="pass"):
    return report_rows(
        "experiment,agent,n,param,bound,measured,verdict\n"
        f"adversary-cubic,rotor-router,18,cover-time,180,{cover},{verdict}\n"
        f"adversary-cubic,rotor-router,18,v-star-visits;v_star=0,30,{visits},pass\n"
        "aggregate,,,,,,pass\n")


@pytest.fixture(scope="module")
def cubic18():
    from portwalk import RotorRouter, build_cubic_instance

    inst = build_cubic_instance(RotorRouter(), 18)
    ports = [list(r) for r in inst.graph.port_map]
    return cubic_expectation(ports, 18, "rotor-router", inst.start, inst.certified_bound,
                             inst.construction_log["v_star"])


def test_cubic_reference_agrees_with_the_program(cubic18):
    from portwalk import RotorRouter, verify_cubic_bound

    r = verify_cubic_bound(RotorRouter(), 18)
    assert (cubic18["cover"], cubic18["visits"], cubic18["v_star"]) == (
        r.cover, r.v_star_visits, r.v_star)
    assert cubic_row_problems(_cubic_rows(str(r.cover), str(r.v_star_visits)),
                              "rotor-router", 18, cubic18) == []


def test_cubic_check_rejects_cover_off_by_one_and_miscounted_v_star(cubic18):
    cover, visits = str(cubic18["cover"]), str(cubic18["visits"])
    assert cubic_row_problems(_cubic_rows(str(int(cover) + 1), visits),
                              "rotor-router", 18, cubic18)
    assert cubic_row_problems(_cubic_rows(str(int(cover) - 1), visits),
                              "rotor-router", 18, cubic18)
    assert cubic_row_problems(_cubic_rows(cover, str(int(visits) - 1)),
                              "rotor-router", 18, cubic18)
    assert cubic_row_problems(_cubic_rows("", visits, "pass-vacuous"),
                              "rotor-router", 18, cubic18)


def test_cubic_reference_proves_non_covering_agents_cycle():
    from portwalk import CyclicAgent, build_cubic_instance

    inst = build_cubic_instance(CyclicAgent((1,), name="always-1"), 18)
    ports = [list(r) for r in inst.graph.port_map]
    e = cubic_expectation(ports, 18, "always-1", inst.start, inst.certified_bound,
                          inst.construction_log["v_star"])
    assert e["problems"] == [] and e["cover"] is None and e["repeat"] is not None
    assert e["repeat"][0] + e["repeat"][1] < 10


def test_cubic_expectation_rejects_a_broken_instance():
    e = cubic_expectation([[1], [0], [3], [2]], 4, "rotor-router", 0, 0, 0)
    assert "graph is disconnected" in e["problems"]
    e = cubic_expectation(PATH3 * 6, 18, "rotor-router", 0, 181, 0)
    assert e["problems"]


def test_span_self_time_excludes_wrapped_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(ticks))
    tracer = spans.Tracer()
    leaf = tracer._wrap("graphs.diameter", lambda: None, None)

    def outer():
        leaf()  # clock 1 -> 2
        leaf()  # clock 3 -> 4

    tracer._wrap("cli.main", outer, None)()  # clock 0 -> 5
    m = tracer.layer_metrics()
    assert (m["cli.main.calls"], m["cli.main.self_s"], m["graphs.diameter.s"]) == (1, 3, 2)
    assert [s[1] for s in tracer.spans] == [-1, 0, 0]


def test_run_steps_go_to_the_nearest_enclosing_stage(monkeypatch):
    class Trace:
        steps, stopped, moves = 7, False, None

    tracer = spans.Tracer()
    run = tracer._wrap("simulate.run", lambda: Trace(), spans.COUNTERS["simulate.run"])
    verify = tracer._wrap("adversary.verify_cubic_bound", run, None)
    tracer._wrap("cli.main", verify, None)()
    run()
    m = tracer.layer_metrics()
    assert m["adversary.verify_cubic_bound.run_steps"] == 7
    assert m["cli.main.run_steps"] == 0
    assert (m["simulate.run.calls"], m["simulate.run.cap_hits"],
            m["simulate.run.steps"]) == (2, 2, 14)
    assert m["simulate.run.useful_frac"] == 0


def test_ticker_samples_the_kernel_and_counts_the_time_it_took():
    ticker = calibrate.Ticker()
    ticker.start()
    try:
        t = time.perf_counter()
        while time.perf_counter() - t < 10 * calibrate.PERIOD_S:
            pass
    finally:
        ticker.stop()
    assert len(ticker.samples) >= 5
    assert sum(ticker.samples) <= ticker.stolen < 10 * calibrate.PERIOD_S
    n = len(ticker.samples)
    time.sleep(2 * calibrate.PERIOD_S)
    assert len(ticker.samples) == n  # stopped for good
