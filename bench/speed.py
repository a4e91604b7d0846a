"""Machine speed, from a fixed reference loop timed between operations.

The shared machines this benchmark runs on change speed by themselves: a
fixed solve takes 1.6 times as long for seconds or minutes at a time, with
nothing else running in the container, and the slow spells can cover a
whole run. Wall-clock seconds then say more about the neighbours than about
the package.

So the benchmark also times a reference loop that does not touch the
package: a breadth-first search over a fixed random graph held in tuples,
sets and dicts, the kind of work the solver does. It times the loop again
after every stretch of about ``INTERVAL_S`` of measured work, between two
stages of an operation and never inside one, and scales each stage's time
by ``REFERENCE_S`` over the mean of the two readings around it. The result
is the time the stage would take on a machine that runs the loop in
``REFERENCE_S``: seconds at reference speed. A change to the package moves
the scaled time as it moves the wall-clock time; a change in the machine's
speed moves both the stage and the loop, and cancels.
"""

from __future__ import annotations

import random
from time import perf_counter

# The reference graph: 400 vertices, about 1,600 edges, the same every run.
_rng = random.Random("bench/speed")
EDGES = tuple(sorted({
    (min(a, b), max(a, b))
    for a, b in ((_rng.randrange(400), _rng.randrange(400)) for _ in range(1600))
    if a != b
}))
del _rng

# One reading runs the loop this many times.
LOOPS = 2
# What one reading took at the machine's fast speed on the machine the
# benchmark was written on (nproc 2, Python 3.11.7); scaled times are
# seconds at this speed.
REFERENCE_S = 0.0017
# Measured work between two readings, in wall-clock seconds.
INTERVAL_S = 0.05


def reference_loop() -> frozenset:
    """Build adjacency sets, search from the first vertex, keep the edges
    inside the component found."""
    adjacent: dict[int, set[int]] = {}
    for a, b in EDGES:
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    root = EDGES[0][0]
    seen, order = {root}, [root]
    for v in order:
        for w in adjacent[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return frozenset(e for e in EDGES if e[0] in seen and e[1] in seen)


def reading() -> float:
    """Seconds the reference loop takes now, ``LOOPS`` times over."""
    start = perf_counter()
    for _ in range(LOOPS):
        reference_loop()
    return perf_counter() - start


class Speedometer:
    """Scales measured stage times to reference speed.

    ``add(outcome, stage)`` hands over a stage whose wall-clock time is in
    ``getattr(outcome, stage)``; once ``INTERVAL_S`` has gone by since the
    last reading, or at ``settle()``, the loop is timed again and every
    stage handed over since the last reading is scaled in place.
    """

    def __init__(self) -> None:
        self.last = reading()
        self.at = perf_counter()
        self.pending: list[tuple[object, str]] = []
        self.readings: list[float] = [self.last]

    def add(self, outcome: object, stage: str) -> None:
        self.pending.append((outcome, stage))
        if perf_counter() - self.at >= INTERVAL_S:
            self.settle()

    def settle(self) -> None:
        """Take a reading and scale the pending stages."""
        now = reading()
        factor = REFERENCE_S / ((self.last + now) / 2)
        for outcome, stage in self.pending:
            setattr(outcome, stage, getattr(outcome, stage) * factor)
        self.pending.clear()
        self.last, self.at = now, perf_counter()
        self.readings.append(now)

    def scaled(self, seconds: float) -> float:
        """Scale a time measured since the last reading; takes a new one."""
        before = self.last
        self.settle()
        return seconds * REFERENCE_S / ((before + self.last) / 2)
