"""A fixed reference kernel that measures how fast the machine is right now.

The measured process runs it between commands. Pass times are reported in
units of its duration, which cancels the slow drift in CPU speed that a
shared machine shows over seconds to minutes. It mixes the kinds of work
finevo does (tuple maps in dicts, Fraction sums, numpy Philox generators) and
never imports finevo, so a change to the program cannot change its time.
Changing this file changes every ``wall_ref`` value: treat it as frozen.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

GENERATORS = ((1, 2, 3, 4, 0, 5), (1, 0, 2, 3, 4, 5), (0, 0, 2, 3, 4, 1))


def _closure() -> int:
    seen = dict.fromkeys(GENERATORS)
    frontier = list(GENERATORS)
    while frontier:
        fresh = []
        for x in frontier:
            for g in GENERATORS:
                z = tuple(g[i] for i in x)
                if z not in seen:
                    seen[z] = x
                    fresh.append(z)
        frontier = sorted(fresh)
    return len(seen)


def _fractions() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 4000):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i + 1)
    return acc


def _philox() -> float:
    return sum(np.random.Generator(np.random.Philox(key=k)).random()
               for k in range(1500))


def reference_seconds() -> float:
    """Wall time of one run of the kernel, with the cyclic GC paused so the
    size of the caller's heap does not leak into it."""
    gc.disable()
    try:
        start = time.perf_counter()
        _closure()
        _fractions()
        _philox()
        return time.perf_counter() - start
    finally:
        gc.enable()
