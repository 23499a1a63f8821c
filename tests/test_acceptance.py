"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds (run with
pytest -s to see them); any assertion failure is a FAIL for that
criterion. All comparisons are exact: the bounds under test are integer
step counts.
"""

import time
from math import perm
from random import Random

import pytest

from portwalk.adversary import verify_cubic_bound, verify_path_bound
from portwalk.agents import (
    WhiteboardAgent,
    derive_port_function,
    memory_lower_bound_check,
    whiteboard_rotor_router,
)
from portwalk.experiments import (
    battery,
    brute_force_path_worst_case,
    rotor_upper_bound_sweep,
)
from portwalk.graphs import random_connected_graph, relabel
from portwalk.simulate import outports_taken, run


def test_criterion_1_path_worst_case_is_exactly_quadratic():
    """Exhaustive check: the rotor-router's worst path labeling costs
    exactly (n-1)^2 steps for every n up to 12."""
    t0 = time.time()
    for n in range(2, 13):
        result = brute_force_path_worst_case(battery()["rotor-router"], n)
        assert result.max_steps == (n - 1) ** 2, \
            f"n={n}: enumerated worst case {result.max_steps} != {(n - 1) ** 2}"
        assert result.unstopped == 0
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 1 path-exactness: PASS "
          f"(n=2..12 all equal (n-1)^2, {elapsed:.1f}s)")


def test_criterion_2_path_construction_holds_for_battery():
    """The constructed labeling forces >= (n-1)^2 steps and >= n-1
    start-arc crossings on every battery agent, for n up to 200."""
    t0 = time.time()
    measured = 0
    vacuous = 0
    for name, agent in battery().items():
        for n in range(2, 201):
            cap = (n - 1) ** 2 + 4 * n + 4
            r = verify_path_bound(agent, n, cap=cap)
            assert r.passed, f"{name} n={n}: {r}"
            if r.verdict == "pass":
                measured += 1
                assert r.steps >= (n - 1) ** 2
                assert r.arc_count >= n - 1
            else:
                vacuous += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 2 path-construction: PASS "
          f"({measured} measured, {vacuous} vacuous, {elapsed:.1f}s)")


def test_criterion_3_cubic_bound_holds_for_battery():
    """Cover time on the clique-path instance is at least
    floor(n/3)^2 * (floor(n/3)-1) for every battery agent, with the
    replaced node's visit budget cross-checked."""
    t0 = time.time()
    lines = []
    for name, agent in battery().items():
        for n in (18, 21, 30, 60, 90):
            r = verify_cubic_bound(agent, n)
            d = n // 3
            assert r.bound == d * d * (d - 1)
            assert r.passed, f"{name} n={n}: {r}"
            assert r.v_star_visits <= r.v_star_budget == d * (d - 1), \
                f"{name} n={n}: v* visited {r.v_star_visits} > {r.v_star_budget}"
            if r.cover is not None:
                assert r.cover >= r.bound
            lines.append(f"{name}/{n}:{r.verdict}")
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"\nACCEPTANCE 3 cubic-bound: PASS ({'; '.join(lines)}, {elapsed:.1f}s)")


def test_criterion_4_trace_fidelity_and_anonymity():
    """On 100 seeded random graphs, every battery agent's trace replays
    its per-degree outport sequences exactly, and relabeling node ids
    permutes the trace without changing it."""
    t0 = time.time()
    agents = battery()
    for case in range(100):
        rng = Random(case)
        n = rng.randint(2, 50)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
        g = random_connected_graph(n, m, seed=case)
        start = rng.randrange(n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        for agent in agents.values():
            t = run(g, agent, start, ("steps", 500))
            for v in range(n):
                taken = outports_taken(t, v)
                d = g.degree(v)
                want = derive_port_function(agent, d, len(taken))
                assert taken == want, f"case {case} node {v}: sequence broken"
            t_perm = run(h, agent, perm[start], ("steps", 500))
            assert t_perm.moves == [(perm[v], p) for v, p in t.moves], \
                f"case {case}: trace not permutation-equivariant"
            assert t_perm.covered_at == t.covered_at
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 4 fidelity+anonymity: PASS "
          f"(100 graphs x {len(agents)} agents, {elapsed:.1f}s)")


def test_criterion_5_rotor_router_empirical_upper_bound():
    """Rotor-router cover time stays within 2*m*D on 50 seeded random
    graphs; any offender is retried at factor 3 before calling it a
    defect."""
    t0 = time.time()
    cases = []
    for i in range(50):
        rng = Random(1000 + i)
        n = rng.randint(4, 200)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 8 * n))
        cases.append((n, m, 1000 + i))
    report = rotor_upper_bound_sweep(cases, factor=2.0)
    if not report.passed:
        offenders = [r for r in report.rows if r.verdict == "fail"]
        retry_cases = []
        for row in offenders:
            parts = dict(kv.split("=") for kv in row.param.split(";"))
            retry_cases.append((row.n, int(parts["m"]), int(parts["seed"])))
        escalated = rotor_upper_bound_sweep(retry_cases, factor=3.0)
        assert escalated.passed, \
            f"factor-3 escalation still failing: {offenders}"
        print(f"\nACCEPTANCE 5 rotor-upper: PASS at factor 3 "
              f"({len(offenders)} rows escalated)")
    else:
        print("\nACCEPTANCE 5 rotor-upper: PASS (50 graphs at factor 2, "
              f"{time.time() - t0:.1f}s)")
    assert time.time() - t0 < 120


def test_criterion_6_node_memory_floor():
    """memory_lower_bound_check agrees with 2^bits >= d over the whole
    (bits <= 10, d <= 1024) rectangle."""
    for bits in range(0, 11):
        for d in range(1, 1025):
            assert memory_lower_bound_check(bits, d) == (2 ** bits >= d), \
                f"disagreement at bits={bits}, d={d}"
    print("\nACCEPTANCE 6 memory-floor: PASS (11 x 1024 pairs)")


class Unset(Exception):
    """The walk reached a node state whose transition is not chosen yet."""


def test_criterion_6_memory_floor_binds_every_agent():
    """With b <= 2 bits at a degree-d node, d <= 5: when 2^b < d no
    whiteboard agent takes all d ports within 2*2^b exits, and when
    2^b >= d the rotor-router does on b bits.

    Every transition table on states 0..2^b-1 is covered by a search that
    fixes a state's transition only when the walk reaches it, taking new
    states and new ports in first-use order. Renaming states (but 0) and
    ports changes neither the walk nor how many ports it takes, so each
    leaf stands for perm(2^b - 1, u - 1) * perm(d, q) tables times any
    transitions for the 2^b - u states it never reaches. A walk reaches
    each of its states within 2^b exits, so the exits read hold every
    port the agent ever takes."""
    t0 = time.time()
    tables = 0
    for bits in range(3):
        states, exits = 1 << bits, 2 << bits
        for d in range(1, 6):
            assert memory_lower_bound_check(bits, d) == (states >= d)
            if states >= d:
                rotor = WhiteboardAgent(whiteboard_rotor_router().transition, memory_bits=bits)
                assert set(derive_port_function(rotor, d, exits)) == set(range(1, d + 1))
                continue
            covered, stack = 0, [{}]
            while stack:
                chosen = stack.pop()  # state -> (state, port), in first-use order
                u = len({0, *(t for t, _ in chosen.values())})  # states 0..u-1 reached
                q = len({p for _, p in chosen.values()})  # ports 1..q taken

                def transition(s, d_, chosen=chosen):
                    if s not in chosen:
                        raise Unset(s)
                    return chosen[s]
                agent = WhiteboardAgent(transition, memory_bits=bits)
                try:
                    taken = derive_port_function(agent, d, exits)
                except Unset as e:
                    stack += [{**chosen, e.args[0]: (t, p)}
                              for t in range(min(u + 1, states))
                              for p in range(1, min(q + 1, d) + 1)]
                    continue
                assert len(set(taken)) < d, f"bits={bits} d={d}: {chosen} takes every port"
                free = states - len(chosen)
                covered += perm(states - 1, u - 1) * perm(d, q) * (states * d) ** free
            assert covered == (states * d) ** states, f"bits={bits} d={d}"
            tables += covered
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 6 memory-floor over agents: PASS "
          f"({tables} transition tables, {elapsed:.2f}s)")
