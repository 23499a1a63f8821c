"""Exploration of anonymous port-labeled graphs by oblivious agents.

Simulation of per-node-memory agents (rotor-router and friends), plus
constructions that force any such agent into quadratic time on a path and
cubic time on a clique-with-pendants graph, with brute-force oracles and
sweep reports to check the bounds.
"""

from .agents import (
    CyclicAgent,
    PortFunction,
    RotorRouter,
    ScriptedPortFunction,
    WhiteboardAgent,
    derive_port_function,
    load_agent_script,
    memory_lower_bound_check,
    port_sequence,
    whiteboard_rotor_router,
)
from .adversary import (
    AdversarialInstance,
    CubicBoundReport,
    PathBoundReport,
    build_cubic_instance,
    export_instance,
    rare_port,
    select_v_star,
    verify_cubic_bound,
    verify_path_bound,
    worst_case_path_labeling,
)
from .errors import (
    AgentViolationError,
    GraphParseError,
    GraphSemanticError,
    HorizonExceededError,
    InvalidArcError,
    InvalidLimitError,
    InvalidPortError,
    InvalidSizeError,
    InvalidVertexError,
    PortWalkError,
)
from .experiments import (
    BruteForceResult,
    ExperimentReport,
    ReportRow,
    battery,
    brute_force_path_worst_case,
    brute_force_rows,
    cubic_bound_rows,
    cubic_bound_sweep,
    path_bound_rows,
    path_bound_sweep,
    rotor_upper_bound_sweep,
)
from .graphs import (
    PathLabeling,
    PortLabeledGraph,
    bfs_distances,
    build_clique_pendant,
    build_path,
    deserialize,
    diameter,
    random_connected_graph,
    relabel,
    replace_pendant_with_path,
    serialize,
    validate,
)
from .simulate import (
    SimulationTrace,
    arc_traversals,
    export_trace,
    outports_taken,
    run,
    visit_count_upto,
)
