"""The machine's current speed, from a fixed probe run next to every timed step.

On a shared host the same code runs up to about 1.8 times slower for
stretches of seconds to minutes, in CPU time as much as in wall time (the
host shares the cores, so a slow stretch shows up as slower instructions,
not as time taken away).  No number of repeats inside one run averages
that out when the whole run falls in a slow stretch.  So the benchmark
times a probe of fixed work, which is no code of the program, right before
and right after every command, and scales the command's wall time by how
much slower than its reference time the probe ran around it:

    scaled = seconds * REFERENCE_S / mean(probe before, probe after)

A scaled time is in seconds of a machine on which the probe takes
REFERENCE_S, about what it takes on the 2-vCPU Xeon VM the benchmark was
written on in its usual state.  The probe is what the program spends most
of its time on: pure-Python graph traversal over lists and tuples (a BLAS
product tracked the slow stretches less well, and its first call would
add OpenBLAS's buffers to the benchmark's peak RSS).  It allocates nothing
and runs with the garbage collector off, so what the program left on the
heap does not change its time.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Probe time, in seconds, that scaled times are expressed against.
REFERENCE_S = 0.034

_SIDE = 40
_BFS_SOURCES = 80


def _grid_adjacency(side: int) -> list[tuple[int, ...]]:
    adjacency = []
    for i in range(side * side):
        row, col = divmod(i, side)
        neighbours = []
        if row:
            neighbours.append(i - side)
        if row < side - 1:
            neighbours.append(i + side)
        if col:
            neighbours.append(i - 1)
        if col < side - 1:
            neighbours.append(i + 1)
        adjacency.append(tuple(neighbours))
    return adjacency


class Probe:
    """Fixed work: breadth-first searches on a grid graph."""

    def __init__(self) -> None:
        self.adjacency = _grid_adjacency(_SIDE)
        self.dist = [0] * len(self.adjacency)
        self.queue = [0] * len(self.adjacency)
        self.samples: list[float] = []

    def _bfs(self, source: int) -> None:
        adjacency, dist, queue = self.adjacency, self.dist, self.queue
        for i in range(len(dist)):
            dist[i] = -1
        dist[source] = 0
        queue[0] = source
        head, tail = 0, 1
        while head < tail:
            u = queue[head]
            head += 1
            du = dist[u] + 1
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = du
                    queue[tail] = v
                    tail += 1

    def seconds(self) -> float:
        """Wall time of one run of the fixed work."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            for source in range(_BFS_SOURCES):
                self._bfs(source)
            self.samples.append(perf_counter() - start)
            return self.samples[-1]
        finally:
            if enabled:
                gc.enable()


def scale(seconds: float, probe_before: float, probe_after: float) -> float:
    """*seconds* measured between two probes, in seconds at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (probe_before + probe_after)
