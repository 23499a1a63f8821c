"""Oblivious agents expressed as per-degree outport sequences.

Because an oblivious walker carries no state and never learns its inport,
everything it can do at a node is a function of that node's degree and of
how many times the node has been visited. An agent is therefore captured
completely by the family of sequences port_d(i): the port taken on the
i-th visit to any degree-d node. Four port functions are provided: the
rotor-router (cycle through ports in order), cyclic patterns folded into
the local degree, finite scripted tables, and whiteboard agents given as
a raw transition on (node state, degree), which read port_d(i) by
replaying that transition against a virtual degree-d node.

At degree 1 there is only one legal port, so every agent answers 1 there
regardless of its script.

An agent that is periodic at degree d says so through cycle(d): a tuple
(port_d(1), ..., port_d(P)) with port_d(i + P) = port_d(i) for every
i >= 1, or None when it gives no such promise. The rotor-router, cyclic
patterns and "cycle" scripts are periodic at every degree they answer;
"fail" scripts, whiteboard agents and the base class return None.

Every reader of port_d (the walk engine, both constructions and the
brute force) goes through port_sequence(agent, d): the checked cycle when
there is one, so a periodic agent's outport is never called, or else a
sequence that asks outport(d, i) once per index, the first time it is
read. A port is legal at degree d when it is an int, not a bool, in
1..d; _port is the one check, and derive_port_function uses it too.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import AgentViolationError, HorizonExceededError, InvalidPortError


class PortFunction:
    """Base interface: outport(d, i), the port taken on visit i at degree d."""

    name = "agent"

    def outport(self, d: int, i: int) -> int:
        raise NotImplementedError

    def cycle(self, d: int) -> tuple[int, ...] | None:
        """port_d(1..P) for a period P of port_d, or None if not periodic."""
        return None


def _port(p, d: int) -> int:
    """p itself if it is a port of a degree-d node (an int, not a bool, in 1..d).

    Raises AgentViolationError otherwise.
    """
    if isinstance(p, bool) or not isinstance(p, int) or not 1 <= p <= d:
        raise AgentViolationError(f"agent returned port {p!r} at degree {d}")
    return p


class _Ports:
    """port_d(1), port_d(2), ... of an agent with no cycle at degree d.

    Entry i is _port(outport(d, i + 1), d), asked when first read. Its
    length is a period no visit index reaches, so it reads like a cycle.
    """

    def __init__(self, outport, d: int):
        self.outport, self.d, self.read = outport, d, []

    def __len__(self) -> int:
        return sys.maxsize

    def __getitem__(self, i: int) -> int:
        read = self.read
        while len(read) <= i:
            read.append(_port(self.outport(self.d, len(read) + 1), self.d))
        return read[i]


def port_sequence(agent: PortFunction, d: int) -> Sequence[int]:
    """port_d as a sequence of period len(seq): port_d(i) = seq[(i - 1) % len(seq)].

    The agent's cycle(d), every entry checked by _port, or a _Ports when
    cycle(d) is None.
    """
    cyc = agent.cycle(d)
    if cyc is None:
        return _Ports(agent.outport, d)
    if not isinstance(cyc, tuple) or not cyc:
        raise AgentViolationError(f"agent cycle at degree {d} is {cyc!r}")
    for p in cyc:
        _port(p, d)
    return cyc


class RotorRouter(PortFunction):
    """Closed-form rotor-router: cycle through ports 1..d forever."""

    name = "rotor-router"

    def outport(self, d: int, i: int) -> int:
        return (i - 1) % d + 1

    def cycle(self, d: int) -> tuple[int, ...]:
        return tuple(range(1, d + 1))


class CyclicAgent(PortFunction):
    """Agent repeating a fixed port pattern at every node.

    The pattern entry for visit i is pattern[(i-1) mod len]; entries above
    the local degree fold back into range via ((entry-1) mod d) + 1, so one
    pattern defines behaviour at every degree. Used for the adversarial
    test battery (always-1, alternating-2, biased-112).
    """

    def __init__(self, pattern: Sequence[int], name: str | None = None):
        pattern = tuple(pattern)
        if not pattern or any(type(e) is not int or e < 1 for e in pattern):
            raise InvalidPortError(f"pattern entries must be positive ints, got {pattern}")
        self.pattern = pattern
        self.name = name or "cycle-" + "".join(str(e) for e in pattern)

    def outport(self, d: int, i: int) -> int:
        return (self.pattern[(i - 1) % len(self.pattern)] - 1) % d + 1

    def cycle(self, d: int) -> tuple[int, ...]:
        return tuple((e - 1) % d + 1 for e in self.pattern)


class ScriptedPortFunction(PortFunction):
    """Finite per-degree outport tables with an explicit extension rule.

    extension="cycle" repeats each table forever; extension="fail" raises
    HorizonExceededError past the end of a table. Queries at degrees with
    no table also raise, except degree 1 whose only answer is forced.
    """

    def __init__(self, tables: Mapping[int, Sequence[int]], extension: str = "cycle",
                 name: str = "scripted"):
        if extension not in ("cycle", "fail"):
            raise ValueError(f"extension must be 'cycle' or 'fail', got {extension!r}")
        clean: dict[int, tuple[int, ...]] = {}
        for d, entries in tables.items():
            if type(d) is not int:
                raise InvalidPortError(f"degree {d!r} is not an int")
            entries = tuple(entries)
            for e in entries:
                if type(e) is not int or not 1 <= e <= d:
                    raise InvalidPortError(f"table for degree {d} contains port {e!r}")
            clean[d] = entries
        self.tables = clean
        self.extension = extension
        self.name = name

    def outport(self, d: int, i: int) -> int:
        table = self.tables.get(d)
        if not table:
            if d == 1:
                return 1
            raise HorizonExceededError(f"no table for degree {d}")
        if i <= len(table):
            return table[i - 1]
        if self.extension == "cycle":
            return table[(i - 1) % len(table)]
        raise HorizonExceededError(
            f"degree-{d} table has {len(table)} entries, visit {i} requested"
        )

    def cycle(self, d: int) -> tuple[int, ...] | None:
        """The table itself under "cycle" (degree 1 without one: (1,)).

        None under "fail", and at a degree >= 2 with no table, where
        outport raises.
        """
        if self.extension != "cycle":
            return None
        table = self.tables.get(d)
        if table:
            return table
        return (1,) if d == 1 else None


def load_agent_script(text: str, name: str = "scripted") -> ScriptedPortFunction:
    """Parse the agent script document: {"tables": {"<d>": [...]}, "extension": ...}.

    Each degree key is a positive integer given once ("2" and "02" are the
    same degree) and each table a non-empty list of integer ports.
    "extension" accepts "cycle" or "fail".
    """
    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            k = int(key) if key.isascii() and key.isdigit() else key
            if k in seen:
                what = f"degree {k}" if isinstance(k, int) else f"field {k!r}"
                raise ValueError(f"{what} is given twice")
            seen.add(k)
        return dict(pairs)

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ValueError("agent script is nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("tables"), dict):
        raise ValueError("agent script must be an object whose 'tables' is an object")
    tables = {}
    for key, entries in doc["tables"].items():
        if not (key.isascii() and key.isdigit()) or int(key) < 1:
            raise ValueError(f"degree {key!r} is not a positive integer")
        if not isinstance(entries, list) or not entries:
            raise ValueError(f"table for degree {key} is not a non-empty list")
        tables[int(key)] = entries
    return ScriptedPortFunction(tables, doc.get("extension", "cycle"), name=name)


@dataclass(frozen=True)
class WhiteboardAgent(PortFunction):
    """Raw agent model: a transition on (node state, degree).

    transition(s, d) returns (new node state, outport). States are
    non-negative integers; memory_bits bounds how many bits a degree-d
    node may use (an int for a uniform budget, a callable for per-degree
    budgets, None for unlimited). Every node starts in initial_state.
    outport(d, i) reads port_d(i) from derive_port_function, cached per degree.
    """

    transition: Callable[[int, int], tuple[int, int]]
    initial_state: int = 0
    memory_bits: int | Callable[[int], int] | None = None
    name: str = "whiteboard"
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def budget(self, d: int) -> int | None:
        """Bits a degree-d node may use, None for unlimited.

        Raises AgentViolationError unless that is None or a non-negative
        int (a bool is not one).
        """
        bits = self.memory_bits(d) if callable(self.memory_bits) else self.memory_bits
        if bits is not None and (isinstance(bits, bool) or not isinstance(bits, int)
                                 or bits < 0):
            raise AgentViolationError(f"memory budget {bits!r} at degree {d} "
                                      "is not a non-negative int")
        return bits

    def outport(self, d: int, i: int) -> int:
        got = self._cache.get(d, [])
        if i > len(got):
            got = self._cache[d] = derive_port_function(self, d, max(i, 2 * len(got)))
        return got[i - 1]


def derive_port_function(agent: WhiteboardAgent, d: int, k: int) -> list[int]:
    """First k outports the agent takes at a virtual degree-d node.

    Replays the transition k times from the initial node state; the
    resulting list is exactly port_d(1..k). Raises AgentViolationError if
    the transition emits a port outside 1..d or leaves the declared
    state budget.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    budget = agent.budget(d)
    limit = None if budget is None else 1 << budget
    state = agent.initial_state
    out: list[int] = []
    while True:  # check the initial state, then every state a transition returns
        if not isinstance(state, int) or state < 0:
            raise AgentViolationError(f"node state {state!r} is not a non-negative int")
        if limit is not None and state >= limit:
            raise AgentViolationError(
                f"node state {state} needs more than {budget} bits at degree {d}"
            )
        if len(out) == k:
            return out
        state, port = agent.transition(state, d)
        out.append(_port(port, d))


def whiteboard_rotor_router() -> WhiteboardAgent:
    """Rotor-router in raw form: the node state is a port counter mod d."""
    return WhiteboardAgent(
        transition=lambda s, d: ((s + 1) % d, s % d + 1),
        initial_state=0,
        memory_bits=lambda d: max((d - 1).bit_length(), 0),
    )


def memory_lower_bound_check(memory_bits: int, d: int) -> bool:
    """Whether memory_bits bits can distinguish the d inputs a degree-d node needs."""
    if d < 1 or memory_bits < 0:
        raise ValueError(f"need d >= 1 and bits >= 0, got ({memory_bits}, {d})")
    return (1 << memory_bits) >= d
