"""Exception types shared across the package, and its one integer check.

Each class corresponds to one designed failure mode; callers that want to
distinguish "bad input" from "agent ran out of script" can catch the
specific type.

Every quantity of the model is an integer in a known range: a port of a
degree-d node is one of 1..d, a node one of 0..n-1, a size or budget at
least some minimum. is_whole decides that (an int, not a bool, in range)
and whole raises the caller's error class when it fails; every module
checks its integers through them.
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
    """A read past the end of an agent's port_d (a fail script, any iterator)."""


class AgentViolationError(PortWalkError, RuntimeError):
    """A raw whiteboard agent emitted an illegal port or state."""


class GraphParseError(PortWalkError, ValueError):
    """A graph document is syntactically malformed; message carries location."""


class GraphSemanticError(PortWalkError, ValueError):
    """A parsed graph document violates the structural invariants."""


def is_whole(value, lo: int | None = None, hi: int | None = None) -> bool:
    """Whether value is an int, not a bool, in lo..hi (None leaves that end open)."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and (lo is None or lo <= value) and (hi is None or value <= hi))


def whole(value, what: str, error: type[Exception],
          lo: int | None = None, hi: int | None = None) -> int:
    """value itself when is_whole(value, lo, hi); else raises error naming
    what, the bound and the value."""
    if is_whole(value, lo, hi):
        return value
    if not is_whole(value):
        raise error(f"{what} must be an integer, got {value!r}")
    bound = (f"at most {hi}" if lo is None else f"at least {lo}" if hi is None
             else f"in {lo}..{hi}")
    raise error(f"{what} must be {bound}, got {value}")
