"""A fixed reference loop that measures the host's current speed.

The host's speed drifts by 30% and more over tens of seconds, and CPU time
drifts with wall time, so raw times from two runs a minute apart differ by
more than the changes the benchmark must catch.  This loop never touches
gckit.  It is timed before and after every measured process, on the same
CPU (see :func:`pin_to_one_cpu`), and the process's time is divided by the
loop's.  The quotient hardly depends on the host's speed at that moment.
:func:`normalize` turns it into seconds on a host where the loop takes
``NOMINAL_S``.
"""

from __future__ import annotations

import gc
import os
import time
from fractions import Fraction
from itertools import permutations

# Roughly the loop's time on an unloaded 2-core x86 sandbox (CPython 3.11).
NOMINAL_S = 0.07

_EDGES = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (4, 6), (5, 6))


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_seconds() -> float:
    """Time one run of the loop: relabel, sort and count like gckit does.

    The collector is off, so the loop's time does not grow with the objects
    an interpreter already holds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        best, total, seen = None, Fraction(0), {}
        for _ in range(12):
            for perm in permutations(range(1, 7)):
                label = (0,) + perm
                enc = sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in _EDGES)
                if best is None or enc < best:
                    best = enc
                seen[enc[0]] = seen.get(enc[0], 0) + 1
                total += Fraction(label[1], label[2])
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def normalize(times: list[float], references: list[float]) -> list[float]:
    """``times`` at nominal speed.

    ``references[i]`` and ``references[i + 1]`` are the loop times taken
    just before and just after ``times[i]``; their mean stands for the
    host's speed while ``times[i]`` was measured.
    """
    return [t * 2 * NOMINAL_S / (a + b) for t, a, b in zip(times, references, references[1:])]
