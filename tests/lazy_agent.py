"""Any agent served lazily: the tests' one wrapper around an agent.

Lazy(agent) states port_d as an iterator, so a reader takes its lazy path
(agents._Ports) whatever form the agent states port_d in. Each ports(d)
call reads port_sequence(agent, d) once and hands out its entries one
next() at a time, recording (d, i) in calls before it reads port_d(i).
The degrees in cycles keep the agent's own ports(d).
"""

import itertools

from portwalk.agents import PortFunction, port_sequence


class Lazy(PortFunction):
    def __init__(self, agent, cycles=()):
        self.agent, self.cycles, self.name, self.calls = agent, cycles, agent.name, []

    def ports(self, d):
        if d in self.cycles:
            return self.agent.ports(d)
        return self.serve(d, port_sequence(self.agent, d))

    def serve(self, d, seq):
        for i in itertools.count():
            self.calls.append((d, i + 1))
            yield seq[i % len(seq)]
