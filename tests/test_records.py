"""The result records' contract: fields that cannot be assigned, checks
made on construction, stable reprs and pickling; and an import of the
package that stays light. test_graphs.TestPathLabeling checks that a bad
labeling raises."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import portwalk
from portwalk.adversary import (
    AdversarialInstance,
    CubicBoundReport,
    PathBoundReport,
    verify_cubic_bound,
    verify_path_bound,
)
from portwalk.agents import RotorRouter
from portwalk.errors import InvalidSizeError
from portwalk.experiments import BruteForceResult, ReportRow, brute_force_path_worst_case
from portwalk.graphs import PathLabeling, PortLabeledGraph, build_path

ROTOR = RotorRouter()
ROW = ReportRow("demo", "a", 3, "x", "4", "5", "pass")

# Every immutable record, with its fields in order.
FIELDS = {
    PortLabeledGraph: ("n", "port_map"),
    PathLabeling: ("n", "toward_far"),
    AdversarialInstance: ("graph", "start", "certified_bound", "construction_log"),
    PathBoundReport: ("agent", "n", "bound", "arc_bound", "steps", "arc_count", "cap",
                      "verdict"),
    CubicBoundReport: ("agent", "n", "d", "bound", "cover", "v_star", "v_star_visits",
                       "v_star_budget", "cap", "verdict", "instance"),
    ReportRow: ("experiment", "agent", "n", "param", "bound", "measured", "verdict"),
    BruteForceResult: ("n", "max_steps", "labeling", "unstopped", "cap"),
}


def records():
    cubic = verify_cubic_bound(ROTOR, 18)
    return [build_path(PathLabeling(4, (1, 2))), PathLabeling(4, (1, 2)), cubic.instance,
            verify_path_bound(ROTOR, 6), cubic, ROW, brute_force_path_worst_case(ROTOR, 5)]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_labeling_entries_become_a_tuple():
    assert PathLabeling(4, [1, 2]).toward_far == (1, 2)


def test_instance_needs_a_positive_bound():
    g = build_path(PathLabeling(4, (1, 2)))
    with pytest.raises(InvalidSizeError):
        AdversarialInstance(g, 0, certified_bound=0, construction_log={})


def test_reprs():
    assert repr(PathLabeling(4, [1, 2])) == "PathLabeling(n=4, toward_far=(1, 2))"
    assert repr(ROW) == ("ReportRow(experiment='demo', agent='a', n=3, param='x', "
                         "bound='4', measured='5', verdict='pass')")


@pytest.mark.parametrize("record", [PathLabeling(5, (2, 1, 2)), verify_cubic_bound(ROTOR, 18)],
                         ids=lambda r: type(r).__name__)
def test_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record


def test_import_is_light():
    # A bare CLI process imports neither dataclasses nor inspect, which it
    # would spend longer importing than on a small check.
    src = str(Path(portwalk.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import portwalk, portwalk.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
