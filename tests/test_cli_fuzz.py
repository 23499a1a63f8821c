"""Bounded fuzzing of the CLI: random argv, graph documents and agent scripts.

Whatever the input, portwalk.cli.main must end in exit 0, 1 or 2 without
a traceback, with stderr empty or a single "error:" line. argparse's own
exits (SystemExit 2 on a usage error, 0 after help) count as they are.
Sizes and caps stay small so every walk is short.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from portwalk.cli import main
from portwalk.experiments import battery
from portwalk.graphs import random_connected_graph, serialize

SMALL = st.integers(-1, 9).map(str)
CAP = st.integers(-2, 300).map(str)
JUNK = st.one_of(
    st.sampled_from(["--n", "--cap", "--agent", "--start", "--stop", "--case",
                     "--factor", "--format", "json", "-1", "0", "3", "--1",
                     "", "x", "nan", "1,1,1", "2,1,0", "steps:2", "²"]),
    st.text(max_size=4),
)
STOPS = st.one_of(
    st.sampled_from(["covered", "target:0", "target:-1", "target:99", "steps:-1",
                     "steps:0", "steps:x", "steps:--1", "target:²", "sideways"]),
    st.integers(0, 300).map(lambda k: f"steps:{k}"),
    st.integers(-2, 10).map(lambda v: f"target:{v}"),
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def graph_docs(draw):
    kind = draw(st.sampled_from(["valid", "valid", "valid", "rows", "json", "bytes"]))
    if kind == "valid":
        n = draw(st.integers(1, 9))
        m = draw(st.integers(n - 1, n * (n - 1) // 2))
        return serialize(random_connected_graph(n, m, draw(st.integers(0, 99))))
    if kind == "rows":
        n = draw(st.integers(-1, 5))
        rows = st.lists(st.integers(-1, 5), max_size=4)
        return json.dumps({"n": n, "ports": draw(st.lists(rows, max_size=5))})
    if kind == "json":
        return json.dumps(draw(JSON))
    return draw(st.binary(max_size=12))


@st.composite
def agent_scripts(draw):
    kind = draw(st.sampled_from(["valid", "valid", "tables", "json", "text"]))
    if kind == "valid":
        degrees = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True))
        tables = {str(d): draw(st.lists(st.integers(1, d), min_size=1, max_size=5))
                  for d in degrees}
        ext = draw(st.sampled_from(["cycle", "fail"]))
        return json.dumps({"tables": tables, "extension": ext})
    if kind == "tables":
        keys = st.integers(-1, 9).map(str) | st.text(max_size=2)
        tables = draw(st.dictionaries(
            keys, st.lists(st.integers(-1, 9), max_size=5) | JSON, max_size=4))
        ext = draw(st.sampled_from(["cycle", "fail", "other", 3]))
        return json.dumps({"tables": tables, "extension": ext})
    if kind == "json":
        return json.dumps(draw(JSON))
    return draw(st.text(max_size=12) | st.binary(max_size=12))


@st.composite
def argvs(draw):
    agent = draw(st.sampled_from(sorted(battery()) + ["AGENT", "AGENT", "bogus"]))
    cmd = draw(st.sampled_from(["simulate", "simulate", "adversary-path",
                                "adversary-cubic", "bruteforce-path", "rotor-upper"]))
    if cmd == "simulate":
        argv = [cmd, "--graph", "GRAPH", "--agent", agent, "--start", draw(SMALL),
                "--stop", draw(STOPS)]
    elif cmd == "rotor-upper":
        case = ",".join(draw(st.tuples(SMALL, st.integers(-1, 20).map(str), SMALL)))
        factor = draw(st.sampled_from(["2", "0.5", "0", "-1", "nan", "inf"]))
        argv = [cmd, "--case", case, "--factor", factor]
    else:
        argv = [cmd, "--agent", agent, "--n", draw(SMALL)]
        if cmd == "adversary-cubic":
            argv += ["--start", draw(SMALL)]
    argv += draw(st.sampled_from([["--cap", draw(CAP)], ["--cap", draw(CAP)], []]))
    if cmd != "simulate":
        argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]))
    if draw(st.integers(0, 3)) == 3:
        argv.insert(draw(st.integers(1, len(argv))), draw(JUNK))
    if draw(st.integers(0, 7)) == 7:
        del argv[draw(st.integers(1, len(argv))):]
    return argv


@given(argvs(), graph_docs(), agent_scripts())
@settings(max_examples=150, deadline=None)
def test_cli_never_tracebacks(argv, graph_doc, script):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"GRAPH": Path(tmp) / "g.json", "AGENT": Path(tmp) / "a.json"}
        for path, doc in ((files["GRAPH"], graph_doc), (files["AGENT"], script)):
            raw = doc if isinstance(doc, bytes) else doc.encode("utf-8", "surrogatepass")
            path.write_bytes(raw)
        argv = [str(files[a]) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse: usage error, or help printed
                assert e.code in (0, 2), argv
                return
    text = err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)
    else:
        assert text == "", (argv, text)
