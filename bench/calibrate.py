"""The host's speed, sampled all through a pass by a fixed piece of work.

The shared host this benchmark runs on changes speed by nearly a factor of
two over seconds to minutes, and CPU time moves with wall time, so no
statistic over one run's passes keeps two runs of the same code within a
few percent of each other. What does is timing a fixed kernel over and
over while the pass runs, and scaling the pass's times by how long the
kernel took meanwhile.

Ticker runs the kernel from a SIGALRM handler every PERIOD_S, in the
pass's own thread between two bytecodes of whatever portwalk is doing,
so it sees the very CPU and moment the program sees. It records each
kernel time, and the time its handler took in all, which the worker
takes off the pass's times. At about 3 ms a kernel, that is about 3% of
a pass.

The host's speed at a sample is 1 / (kernel time), and the samples are
evenly spaced in time, so the pass's mean speed is the mean of those:
the pass ran at the speed at which the kernel takes the harmonic mean of
its times. A kernel cut off by the scheduler reads long, and counts for
little in that mean. The worker reports this harmonic mean as host_s;
run.py scales the pass's times by REFERENCE_S / host_s.

The kernel is pure-Python interpreter work of the kind portwalk does:
the rotor-router on its worst-case path, walked by oracles.py, and a few
rows of CSV text. It imports nothing from portwalk, so a change to
portwalk cannot change it.
"""

from __future__ import annotations

import signal
import time

from oracles import majority_labeling, path_ports, walk

PERIOD_S = 0.1
# About the kernel's time during passes on the 2-vCPU host the benchmark
# was built on. A time scaled by REFERENCE_S / (kernel time during it) is
# in seconds at that speed.
REFERENCE_S = 0.0032

_N = 100
_PORTS = path_ports(_N, majority_labeling("rotor-router", _N))


def kernel() -> None:
    walk(_PORTS, _N - 1, "rotor-router", 4 * _N ** 3)
    for i in range(500):
        f"{i},{i * 7 % _N},{i % 3}\n".encode()


class Ticker:
    """Runs the kernel every PERIOD_S between start() and stop()."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # seconds per kernel run
        self.stolen = 0.0  # seconds spent in the handler, kernel included

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t)
        self.stolen += time.perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
