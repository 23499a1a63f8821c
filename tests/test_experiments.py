"""Oracles, sweeps, and report plumbing."""

import pytest

from portwalk.adversary import verify_path_bound
from portwalk.agents import RotorRouter
from portwalk.errors import InvalidLimitError, InvalidSizeError
from portwalk.experiments import (
    BruteForceResult,
    ExperimentReport,
    ReportRow,
    battery,
    brute_force_path_worst_case,
    brute_force_rows,
    cubic_bound_sweep,
    path_bound_sweep,
    rotor_upper_bound_sweep,
)
from portwalk.graphs import PortLabeledGraph, diameter
from portwalk.simulate import run

ROTOR = RotorRouter()


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

    def test_tiny_factor_fails(self):
        report = rotor_upper_bound_sweep([(10, 15, 3)], factor=0.001)
        assert not report.passed
        assert report.aggregate == "fail"

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            rotor_upper_bound_sweep([(2, 1, 0)], factor=0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_rejects_non_finite_factor(self, factor):
        with pytest.raises(InvalidLimitError):
            rotor_upper_bound_sweep([(2, 1, 0)], factor=factor)

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
