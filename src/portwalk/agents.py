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

An agent states port_d once, through its one hook ports(d): a non-empty
tuple t is a cycle, port_d(i) = t[(i - 1) % len(t)]; an iterator yields
port_d(1), port_d(2), .... The rotor-router, cyclic patterns and "cycle"
scripts return cycles; "fail" scripts and whiteboard agents return
iterators.

Every reader of port_d (the walk engine, the brute force, outport(d, i)
and derive_port_function, which both constructions call) goes through
port_sequence(agent, d), which checks d and gives the checked cycle, or a
sequence that advances the iterator once per index, the first time it is
read. A port is legal at degree d when errors.is_whole(p, 1, d); _port is
the one port check.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from typing import Callable, Mapping, Sequence

from .errors import (
    AgentViolationError,
    HorizonExceededError,
    InvalidLimitError,
    InvalidPortError,
    InvalidSizeError,
    is_whole,
    whole,
)


class PortFunction:
    """Base interface: ports(d) states port_d, outport(d, i) reads port_d(i)."""

    name = "agent"

    def ports(self, d: int) -> tuple[int, ...] | Iterator[int]:
        """port_d as a cycle (a non-empty tuple) or an iterator of port_d(1), ...."""
        raise NotImplementedError

    def outport(self, d: int, i: int) -> int:
        whole(i, "visit index", InvalidLimitError, 1)
        seq = port_sequence(self, d)
        return seq[(i - 1) % len(seq)]


def _port(p, d: int) -> int:
    """p itself if it is a port of a degree-d node (an int, not a bool, in 1..d).

    Raises AgentViolationError otherwise.
    """
    if not is_whole(p, 1, d):
        raise AgentViolationError(f"agent returned port {p!r} at degree {d}")
    return p


class _Ports:
    """port_d(1), port_d(2), ... of an agent whose ports(d) is an iterator.

    Entry i is _port(next(it, None), d), drawn when first read. The first
    error (the iterator's own or _port's) is kept and raised again by every
    read at or past its index, as the iterator is spent after it. Its
    length is a period no visit index reaches, so it reads like a cycle.
    """

    def __init__(self, it: Iterator[int], d: int):
        self.it, self.d, self.read, self.error = it, d, [], None

    def __len__(self) -> int:
        return sys.maxsize

    def __getitem__(self, i: int) -> int:
        read = self.read
        while len(read) <= i:
            if self.error is not None:
                raise self.error
            try:
                read.append(_port(next(self.it, None), self.d))
            except Exception as e:
                self.error = e
                raise
        return read[i]


def port_sequence(agent: PortFunction, d: int) -> Sequence[int]:
    """port_d as a sequence of period len(seq): port_d(i) = seq[(i - 1) % len(seq)].

    The agent's ports(d) when that is a cycle, every entry checked by
    _port, or a _Ports over it when it is an iterator. Raises
    InvalidSizeError unless d is an int (not a bool) of at least 1.
    """
    got = agent.ports(whole(d, "degree", InvalidSizeError, 1))
    if isinstance(got, Iterator):
        return _Ports(got, d)
    if not isinstance(got, tuple) or not got:
        raise AgentViolationError(f"agent cycle at degree {d} is {got!r}")
    for p in got:
        _port(p, d)
    return got


class RotorRouter(PortFunction):
    """Closed-form rotor-router: cycle through ports 1..d forever."""

    name = "rotor-router"

    def ports(self, d: int) -> tuple[int, ...]:
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
        if not pattern or not all(is_whole(e, 1) for e in pattern):
            raise InvalidPortError(f"pattern entries must be positive ints, got {pattern}")
        self.pattern = pattern
        self.name = name or "cycle-" + "".join(str(e) for e in pattern)

    def ports(self, d: int) -> tuple[int, ...]:
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
            whole(d, "table degree", InvalidPortError, 1)
            clean[d] = tuple(whole(e, "table port", InvalidPortError, 1, d) for e in entries)
        self.tables = clean
        self.extension = extension
        self.name = name

    def ports(self, d: int) -> tuple[int, ...] | Iterator[int]:
        """The table under "cycle", (1,) at degree 1 without one, otherwise
        an iterator over it that raises HorizonExceededError where it ends."""
        table = self.tables.get(d)
        if not table and d == 1:
            return (1,)
        if table and self.extension == "cycle":
            return table

        def until_horizon():
            if not table:
                raise HorizonExceededError(f"no table for degree {d}")
            yield from table
            raise HorizonExceededError(
                f"degree-{d} table has {len(table)} entries, visit {len(table) + 1} requested"
            )
        return until_horizon()


def load_agent_script(text: str, name: str = "scripted") -> ScriptedPortFunction:
    """Parse the agent script document: {"tables": {"<d>": [...]}, "extension": ...}.

    Each degree key is a positive integer given once ("2" and "02" are the
    same degree) and each table a non-empty list of integer ports.
    "extension" accepts "cycle" or "fail"; no other field is allowed.
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
    extra = set(doc) - {"tables", "extension"}
    if extra:
        raise ValueError(f"unknown field '{sorted(extra)[0]}'")
    tables = {}
    for key, entries in doc["tables"].items():
        if not (key.isascii() and key.isdigit()) or int(key) < 1:
            raise ValueError(f"degree {key!r} is not a positive integer")
        if not isinstance(entries, list) or not entries:
            raise ValueError(f"table for degree {key} is not a non-empty list")
        tables[int(key)] = entries
    return ScriptedPortFunction(tables, doc.get("extension", "cycle"), name=name)


class WhiteboardAgent(PortFunction):
    """Raw agent model: a transition on (node state, degree).

    transition(s, d) returns (new node state, outport). States are
    non-negative integers; memory_bits bounds how many bits a degree-d
    node may use (an int for a uniform budget, a callable for per-degree
    budgets, None for unlimited). Every node starts in initial_state.
    """

    def __init__(self, transition: Callable[[int, int], tuple[int, int]],
                 initial_state: int = 0,
                 memory_bits: int | Callable[[int], int] | None = None,
                 name: str = "whiteboard"):
        self.transition, self.initial_state = transition, initial_state
        self.memory_bits, self.name = memory_bits, name

    def budget(self, d: int) -> int | None:
        """Bits a degree-d node may use, None for unlimited.

        Raises AgentViolationError unless that is None or a non-negative
        int (a bool is not one).
        """
        bits = self.memory_bits(d) if callable(self.memory_bits) else self.memory_bits
        if bits is not None and not is_whole(bits, 0):
            raise AgentViolationError(f"memory budget {bits!r} at degree {d} "
                                      "is not a non-negative int")
        return bits

    def ports(self, d: int) -> Iterator[int]:
        """The outports taken at a virtual degree-d node, one transition each.

        Replays the transition from the initial state. A port is yielded
        once _port and the state it leaves behind are checked (a node state
        is a non-negative int, not a bool, within the budget), so reading
        port_d(k) runs exactly k transitions. Raises AgentViolationError.
        """
        budget = self.budget(d)
        state, port = self.initial_state, None
        while True:  # check the initial state, then every state a transition returns
            if not is_whole(state, 0):
                raise AgentViolationError(f"node state {state!r} is not a non-negative int")
            if budget is not None and state.bit_length() > budget:
                raise AgentViolationError(
                    f"node state {state} needs more than {budget} bits at degree {d}"
                )
            if port is not None:
                yield port
            state, port = self.transition(state, d)
            _port(port, d)


def derive_port_function(agent: PortFunction, d: int, k: int) -> list[int]:
    """port_d(1..k), the first k outports the agent takes at a degree-d node.

    Read through port_sequence, so every port is checked and a cycle
    repeats past its period; k = 0 reads no port but still checks a cycle.
    """
    whole(k, "k", InvalidSizeError, 0)
    seq = port_sequence(agent, d)
    return [seq[i % len(seq)] for i in range(k)]


def whiteboard_rotor_router() -> WhiteboardAgent:
    """Rotor-router in raw form: the node state is a port counter mod d."""
    return WhiteboardAgent(
        transition=lambda s, d: ((s + 1) % d, s % d + 1),
        initial_state=0,
        memory_bits=lambda d: (d - 1).bit_length(),
    )


def memory_lower_bound_check(memory_bits: int, d: int) -> bool:
    """Whether memory_bits bits can distinguish the d inputs a degree-d node needs.

    That is 2^memory_bits >= d, decided on bit lengths so that a large
    budget builds no large int.
    """
    whole(memory_bits, "memory_bits", InvalidSizeError, 0)
    return memory_bits >= (whole(d, "d", InvalidSizeError, 1) - 1).bit_length()
