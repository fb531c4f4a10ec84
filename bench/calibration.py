"""A fixed piece of pure-Python work that measures how fast the machine is
running right now.

The machine this benchmark runs on is a share of a busy host: in one
minute the same item list, in the same interpreter with the same hash
seed, took anywhere from 1.4 to 2.6 s.  Its speed switches between a fast
and a slow state, and unrelated pure-Python loops (this one, a recursive
Fibonacci) slow down and speed up together.  ``calibrate()`` times a piece
of work that never changes with the program under test; the benchmark runs
it next to every timed call and reports times scaled to the speed at which
that piece takes ``REFERENCE_S`` (see ``scale`` in ``run.py``).  Both
commits of a comparison are scaled the same way, so only the program's own
speed moves the figures.
"""

from __future__ import annotations

import gc
from time import perf_counter

ROUNDS = 1000
# The reference time of one calibrate() call: about its median in a
# benchmark child on a 2-vCPU Xeon VM under Python 3.11, so that scaled
# times there read close to measured ones.
REFERENCE_S = 0.0008


def calibrate() -> float:
    """Seconds taken by ROUNDS builds, hashes and lookups of small tuples and
    frozensets, the operations proof search is made of.  The collector is
    off, so the heap the program left behind does not weigh on it."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    table: dict = {}
    for i in range(ROUNDS):
        key = (i & 31, i & 7, "k")
        table[key] = table.get(key, 0) ^ hash(frozenset(key))
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed
