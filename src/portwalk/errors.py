"""Exception types shared across the package.

Each class corresponds to one designed failure mode; callers that want to
distinguish "bad input" from "agent ran out of script" can catch the
specific type.
"""


class PortWalkError(Exception):
    """Base class for all package-specific errors."""


class InvalidSizeError(PortWalkError, ValueError):
    """A size parameter (node count, edge count, path length) is infeasible."""


class InvalidPortError(PortWalkError, ValueError):
    """A port label lies outside {1..deg} for the node in question."""


class InvalidVertexError(PortWalkError, ValueError):
    """A vertex id does not exist or has the wrong role for the operation."""


class InvalidArcError(PortWalkError, ValueError):
    """The queried (u, v) pair is not an arc of the graph."""


class InvalidLimitError(PortWalkError, ValueError):
    """A limit (a run's cap, step budget or target, a bound's factor) is
    unusable, or a step limit exceeds the length of its trace."""


class HorizonExceededError(PortWalkError, LookupError):
    """An agent was queried beyond the horizon its script can answer."""


class AgentViolationError(PortWalkError, RuntimeError):
    """A raw whiteboard agent emitted an illegal port or state."""


class GraphParseError(PortWalkError, ValueError):
    """A graph document is syntactically malformed; message carries location."""


class GraphSemanticError(PortWalkError, ValueError):
    """A parsed graph document violates the structural invariants."""
