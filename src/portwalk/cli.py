"""Command-line front end.

Subcommands: simulate, adversary-path, adversary-cubic, bruteforce-path,
rotor-upper. Report-producing commands exit 0 exactly when the aggregate
verdict is pass; verification failures exit 1; bad flags or unreadable
inputs exit 2.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import agents as agents_mod
from .adversary import export_instance, verify_cubic_bound, verify_path_bound
from .errors import PortWalkError
from .experiments import (
    ExperimentReport,
    battery,
    brute_force_path_worst_case,
    brute_force_rows,
    cubic_bound_rows,
    path_bound_rows,
    rotor_upper_bound_sweep,
)
from .graphs import deserialize
from .simulate import export_trace, run


class UsageError(Exception):
    pass


def resolve_agent(name_or_path: str) -> agents_mod.PortFunction:
    """Builtin battery name, or a path to an agent script document."""
    builtin = battery()
    if name_or_path in builtin:
        return builtin[name_or_path]
    path = Path(name_or_path)
    if not path.exists():
        raise UsageError(
            f"unknown agent {name_or_path!r}: not a builtin "
            f"({', '.join(sorted(builtin))}) and no such file"
        )
    try:
        return agents_mod.load_agent_script(path.read_text(), name=path.stem)
    except OSError as e:
        raise UsageError(f"cannot read agent script {name_or_path}: {e}") from e
    except (ValueError, PortWalkError) as e:
        raise UsageError(f"bad agent script {name_or_path}: {e}") from e


def is_integer(text: str) -> bool:
    return re.fullmatch(r"-?[0-9]+", text) is not None


def parse_stop(text: str):
    if text == "covered":
        return "covered"
    kind, _, arg = text.partition(":")
    if kind in ("target", "steps") and is_integer(arg):
        return (kind, int(arg))
    raise UsageError(f"bad stop condition {text!r} "
                     "(use covered, target:<node>, or steps:<k>)")


def emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def write_report(report: ExperimentReport, args) -> int:
    emit(report.to_json() if args.format == "json" else report.to_csv(), args.out)
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    try:
        g = deserialize(Path(args.graph).read_text())
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read graph: {e}") from e
    except PortWalkError as e:
        raise UsageError(f"bad graph document: {e}") from e
    agent = resolve_agent(args.agent)
    trace = run(g, agent, args.start, parse_stop(args.stop), cap=args.cap)
    emit(export_trace(trace), args.out)
    return 0


def cmd_check(args) -> int:
    """adversary-path, adversary-cubic or bruteforce-path: one agent at one n."""
    agent = resolve_agent(args.agent)
    if args.command == "adversary-path":
        rows = path_bound_rows(verify_path_bound(agent, args.n, cap=args.cap))
    elif args.command == "adversary-cubic":
        r = verify_cubic_bound(agent, args.n, cap=args.cap, start=args.start)
        if args.save_instance:
            graph_text, sidecar = export_instance(r.instance)
            Path(args.save_instance + ".graph.json").write_text(graph_text)
            Path(args.save_instance + ".instance.json").write_text(sidecar)
        rows = cubic_bound_rows(r)
    else:
        r = brute_force_path_worst_case(agent, args.n, cap=args.cap)
        rows = brute_force_rows(agent.name, r)
    report = ExperimentReport(args.command, {"agent": agent.name, "n": args.n}, rows)
    return write_report(report, args)


def cmd_rotor_upper(args) -> int:
    cases = []
    for text in args.case:
        parts = text.split(",")
        if len(parts) != 3 or not all(is_integer(p) for p in parts):
            raise UsageError(f"bad case {text!r}, expected n,m,seed")
        cases.append(tuple(int(p) for p in parts))
    if not cases:
        raise UsageError("need at least one --case n,m,seed")
    report = rotor_upper_bound_sweep(cases, factor=args.factor, cap=args.cap)
    return write_report(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portwalk",
        description="Simulate oblivious agents on port-labeled graphs and "
                    "check worst-case exploration bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags of every report command, and of the three checks of one agent at one n.
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--cap", type=int, default=None)
    report.add_argument("--out", help="write output to this file instead of stdout")
    report.add_argument("--format", choices=("csv", "json"), default="csv")
    check = argparse.ArgumentParser(add_help=False)
    check.add_argument("--agent", required=True, help="builtin name or script file")
    check.add_argument("--n", type=int, required=True)
    check.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run one agent on one graph, emit the trace")
    p.add_argument("--graph", required=True, help="graph document file")
    p.add_argument("--agent", required=True, help="builtin name or script file")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--stop", default="covered",
                   help="covered | target:<node> | steps:<k>")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    sub.add_parser("adversary-path", parents=[check, report],
                   help="build the worst-case path for an agent and "
                        "check the quadratic bound")
    p = sub.add_parser("adversary-cubic", parents=[check, report],
                       help="build the clique-path instance for an agent and "
                            "check the cubic cover bound")
    p.add_argument("--start", type=int, default=0,
                   help="clique node the walk starts from")
    p.add_argument("--save-instance", metavar="PREFIX",
                   help="also write PREFIX.graph.json and PREFIX.instance.json")
    sub.add_parser("bruteforce-path", parents=[check, report],
                   help="enumerate all path labelings for an agent (n <= 14)")

    p = sub.add_parser("rotor-upper", parents=[report],
                       help="check rotor-router cover time <= factor*m*D on "
                            "random graphs")
    p.add_argument("--case", action="append", default=[],
                   metavar="N,M,SEED", help="repeatable")
    p.add_argument("--factor", type=float, default=2.0)
    p.set_defaults(func=cmd_rotor_upper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, PortWalkError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
