"""Command-line interface: flags, outputs, exit codes."""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from portwalk.cli import build_parser, main, parse_stop, resolve_agent, UsageError
from portwalk.experiments import (
    ExperimentReport,
    battery,
    brute_force_path_worst_case,
    brute_force_rows,
    cubic_bound_sweep,
    path_bound_sweep,
)
from portwalk.graphs import PathLabeling, build_path, serialize


DEEP = "[" * 100_000 + "]" * 100_000


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err


def brute_force_sweep(agents, n_values):
    """The bruteforce-path report a sweep over agents and sizes would give."""
    report = ExperimentReport("bruteforce-path", {"n": list(n_values)})
    for _, agent in sorted(agents.items()):
        for n in sorted(n_values):
            report.rows += brute_force_rows(agent.name,
                                            brute_force_path_worst_case(agent, n))
    return report


@pytest.fixture
def path_graph_file(tmp_path):
    g = build_path(PathLabeling(4, (1, 1)))
    f = tmp_path / "g.json"
    f.write_text(serialize(g))
    return str(f)


class TestHelpers:
    def test_resolve_builtin(self):
        assert resolve_agent("rotor-router").name == "rotor-router"

    def test_resolve_unknown(self, path_graph_file, tmp_path, capsys):
        with pytest.raises(UsageError):
            resolve_agent("no-such-agent")
        # a path that exists but cannot be read: a directory
        code = main(["simulate", "--graph", path_graph_file, "--agent", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith(f"error: cannot read agent script {tmp_path}: "), err

    def test_resolve_script_file(self, tmp_path):
        f = tmp_path / "a.json"
        f.write_text('{"tables": {"2": [1, 2]}, "extension": "cycle"}')
        agent = resolve_agent(str(f))
        assert agent.outport(2, 2) == 2

    def test_parse_stop(self):
        assert parse_stop("covered") == "covered"
        assert parse_stop("target:3") == ("target", 3)
        assert parse_stop("steps:100") == ("steps", 100)
        with pytest.raises(UsageError):
            parse_stop("sideways")


class TestSimulateCommand:
    def test_trace_to_stdout(self, path_graph_file, capsys):
        code = main(["simulate", "--graph", path_graph_file,
                     "--agent", "rotor-router", "--start", "3",
                     "--stop", "target:0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("step,node,outport,next_node\n")
        assert "covered_at,9" in out

    def test_trace_to_file(self, path_graph_file, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--graph", path_graph_file,
                     "--agent", "rotor-router", "--stop", "covered",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("step,node,outport,next_node")

    def test_cap_beyond_machine_size(self, path_graph_file, capsys):
        argv = ["simulate", "--graph", path_graph_file, "--agent", "rotor-router",
                "--start", "3"]
        assert main(argv) == 0
        default = capsys.readouterr()
        assert main(argv + ["--cap", "100000000000000000000"]) == 0
        assert capsys.readouterr() == default

    def test_missing_graph_file(self, tmp_path):
        code = main(["simulate", "--graph", str(tmp_path / "nope.json"),
                     "--agent", "rotor-router"])
        assert code == 2

    def test_malformed_graph(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"n": 2}')
        code = main(["simulate", "--graph", str(f), "--agent", "rotor-router"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_deeply_nested_graph(self, tmp_path, capsys):
        f = tmp_path / "deep.json"
        f.write_text(DEEP)
        code = main(["simulate", "--graph", str(f), "--agent", "rotor-router"])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "nested too deeply" in err

    def test_deeply_nested_agent_script(self, path_graph_file, tmp_path, capsys):
        f = tmp_path / "deep.json"
        f.write_text(DEEP)
        code = main(["simulate", "--graph", path_graph_file, "--agent", str(f)])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "nested too deeply" in err

    def test_bad_stop_flag(self, path_graph_file):
        code = main(["simulate", "--graph", path_graph_file,
                     "--agent", "rotor-router", "--stop", "whenever"])
        assert code == 2

    @pytest.mark.parametrize("flags", [["--cap", "0"], ["--stop", "steps:-1"]])
    def test_bad_limit(self, path_graph_file, flags, capsys):
        code = main(["simulate", "--graph", path_graph_file,
                     "--agent", "rotor-router", *flags])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err)

    def test_one_node_graph_takes_no_step(self, tmp_path, capsys):
        f = tmp_path / "one.json"
        f.write_text('{"n": 1, "ports": [[]]}')
        code = main(["simulate", "--graph", str(f), "--agent", "rotor-router",
                     "--stop", "steps:3"])
        assert code == 0
        assert capsys.readouterr().out == (
            "step,node,outport,next_node\n"
            "summary\n"
            "covered_at,0\n"
            "node,first_visit,visit_count\n"
            "0,0,1\n"
        )

    @pytest.mark.parametrize("doc", [
        '{"tables": [[1, 2]]}',
        '{"tables": {"2": "12"}}',
        '{"tables": {"2": [true, true]}}',
        '{"tables": {"2": [1.0, 2]}}',
        '{"tables": {"0": [1]}}',
        '{"tables": {"-2": [1]}}',
        '{"tables": {"two": [1]}}',
        '{"tables": {"2": []}}',
        '{"tables": {"2": [1]}, "extensoin": "fail"}',
    ])
    def test_malformed_agent_script(self, path_graph_file, tmp_path, doc, capsys):
        f = tmp_path / "agent.json"
        f.write_text(doc)
        code = main(["simulate", "--graph", path_graph_file, "--agent", str(f)])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "bad agent script" in err

    @pytest.mark.parametrize("tables", ['{"2": [1], "2": [2]}', '{"2": [1], "02": [2]}'])
    def test_duplicate_degree_in_agent_script(self, path_graph_file, tmp_path,
                                              tables, capsys):
        f = tmp_path / "agent.json"
        f.write_text('{"tables": %s}' % tables)
        code = main(["simulate", "--graph", path_graph_file, "--agent", str(f)])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "degree 2 is given twice" in err


class TestAdversaryPathCommand:
    def test_pass_exit_zero(self, capsys):
        code = main(["adversary-path", "--agent", "rotor-router", "--n", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment,agent,n,param,bound,measured,verdict" in out
        assert "adversary-path,rotor-router,10,steps-to-target,81,81,pass" in out

    def test_json_format(self, capsys):
        code = main(["adversary-path", "--agent", "rotor-router", "--n", "5",
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregate"] == "pass"

    def test_unknown_agent(self):
        assert main(["adversary-path", "--agent", "bogus", "--n", "5"]) == 2

    @pytest.mark.parametrize("name", ["a,b", 'say "hi"'])
    def test_agent_name_is_one_csv_field(self, tmp_path, name, capsys):
        f = tmp_path / f"{name}.json"
        f.write_text('{"tables": {"2": [1, 2]}}')
        assert main(["adversary-path", "--agent", str(f), "--n", "5"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 4 and all(len(row) == 7 for row in rows)
        assert [row[1] for row in rows[1:3]] == [name, name]


class TestAdversaryCubicCommand:
    def test_pass_with_saved_instance(self, tmp_path, capsys):
        prefix = str(tmp_path / "inst")
        code = main(["adversary-cubic", "--agent", "rotor-router", "--n", "18",
                     "--save-instance", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert ",cover-time,180," in out
        graph_doc = json.loads((tmp_path / "inst.graph.json").read_text())
        assert graph_doc["n"] == 18
        sidecar = json.loads((tmp_path / "inst.instance.json").read_text())
        assert sidecar["bound"] == 180
        assert set(sidecar["log"]) == {"p", "v_star", "alpha"}

    def test_start_override(self, capsys):
        code = main(["adversary-cubic", "--agent", "rotor-router", "--n", "18",
                     "--start", "3"])
        assert code == 0

    def test_bad_start(self):
        code = main(["adversary-cubic", "--agent", "rotor-router", "--n", "18",
                     "--start", "99"])
        assert code == 2


class TestReportRowsMatchSweeps:
    @pytest.mark.parametrize("command, sweep, n", [
        ("adversary-path", path_bound_sweep, 12),
        ("adversary-cubic", cubic_bound_sweep, 18),
        ("bruteforce-path", brute_force_sweep, 8),
    ])
    @pytest.mark.parametrize("agent", sorted(battery()))
    def test_same_rows(self, command, sweep, n, agent, capsys):
        report = sweep({agent: battery()[agent]}, [n])
        main([command, "--agent", agent, "--n", str(n)])
        assert capsys.readouterr().out == report.to_csv()
        main([command, "--agent", agent, "--n", str(n), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == [r._asdict() for r in report.rows]
        assert doc["params"] == {"agent": agent, "n": n}


class TestBruteforceCommand:
    def test_rotor(self, capsys):
        code = main(["bruteforce-path", "--agent", "rotor-router", "--n", "6"])
        assert code == 0
        assert ",25,25,pass" in capsys.readouterr().out

    def test_refuses_large_n(self):
        assert main(["bruteforce-path", "--agent", "rotor-router",
                     "--n", "20"]) == 2

    def test_always_one_at_fourteen(self, capsys):
        code = main(["bruteforce-path", "--agent", "always-1", "--n", "14"])
        assert code == 0
        assert capsys.readouterr().out == (
            "experiment,agent,n,param,bound,measured,verdict\n"
            "bruteforce-path,always-1,14,unstopped=4095,169,13,pass\n"
            "aggregate,,,,,,pass\n")


class TestRotorUpperCommand:
    def test_cases_pass(self, capsys):
        code = main(["rotor-upper", "--case", "2,1,0", "--case", "20,30,7"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("pass") >= 2

    def test_failing_verdict_exit_one(self):
        code = main(["rotor-upper", "--case", "10,15,3", "--factor", "0.001"])
        assert code == 1

    def test_single_case_flags(self, capsys):
        code = main(["rotor-upper", "--case", "12,20,5"])
        assert code == 0
        assert "m=20;seed=5" in capsys.readouterr().out

    def test_bad_case_syntax(self):
        assert main(["rotor-upper", "--case", "10;15;3"]) == 2

    @pytest.mark.parametrize("factor", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_factor(self, factor, capsys):
        code = main(["rotor-upper", "--case", "5,6,1", f"--factor={factor}"])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "finite" in err

    def test_no_cases(self):
        assert main(["rotor-upper"]) == 2

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["rotor-upper", "--case", "6,8,1", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("experiment,agent,n,param")


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["adversary-path", "--n", "5"])
        assert exc.value.code == 2


# Each subcommand's minimal argv and every destination's default; then a
# value for each flag any subcommand has.
SURFACE = {
    "simulate": (["--graph", "g.json", "--agent", "a"], {
        "graph": "g.json", "agent": "a", "start": 0, "stop": "covered",
        "cap": None, "out": None}),
    "adversary-path": (["--agent", "a", "--n", "5"], {
        "agent": "a", "n": 5, "cap": None, "out": None, "format": "csv"}),
    "adversary-cubic": (["--agent", "a", "--n", "18"], {
        "agent": "a", "n": 18, "start": 0, "cap": None, "save_instance": None,
        "out": None, "format": "csv"}),
    "bruteforce-path": (["--agent", "a", "--n", "5"], {
        "agent": "a", "n": 5, "cap": None, "out": None, "format": "csv"}),
    "rotor-upper": ([], {
        "case": [], "factor": 2.0, "cap": None, "out": None, "format": "csv"}),
}
# Each flag any subcommand has: a value to give it, and what it parses to.
FLAG_VALUES = {"--graph": ("g.json", "g.json"), "--agent": ("a", "a"), "--start": ("1", 1),
               "--stop": ("steps:3", "steps:3"), "--cap": ("7", 7), "--out": ("o.csv", "o.csv"),
               "--n": ("6", 6), "--format": ("json", "json"),
               "--save-instance": ("inst", "inst"), "--case": ("2,1,0", ["2,1,0"]),
               "--factor": ("3", 3.0)}


def dest(flag):
    return flag[2:].replace("-", "_")


class TestSurface:
    """Every subcommand's destinations and defaults, and no flag it lacks."""

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_destinations_and_defaults(self, command):
        argv, defaults = SURFACE[command]
        args = vars(build_parser().parse_args([command, *argv]))
        assert callable(args.pop("func"))
        assert args == {"command": command, **defaults}

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_every_flag_given(self, command):
        own = [flag for flag in FLAG_VALUES if dest(flag) in SURFACE[command][1]]
        args = vars(build_parser().parse_args(
            [command, *(t for flag in own for t in (flag, FLAG_VALUES[flag][0]))]))
        args.pop("func")
        assert args == {"command": command, **{dest(f): FLAG_VALUES[f][1] for f in own}}

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in sorted(SURFACE) for flag in FLAG_VALUES
        if dest(flag) not in SURFACE[command][1]])
    def test_foreign_flag_exits_two(self, command, flag, capsys):
        argv = [command, *SURFACE[command][0], flag, FLAG_VALUES[flag][0]]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} " in capsys.readouterr().err


def test_readme_commands_parse(tmp_path, monkeypatch, capsys):
    # The block runs top to bottom in an empty directory: later lines read
    # the files earlier ones write.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert commands and all(argv[0] == "portwalk" for argv in commands)
    for argv in commands:
        build_parser().parse_args(argv[1:])
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
