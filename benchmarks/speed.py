"""Speed normalisation against a fixed reference loop.

The machine this benchmark was written on shares its cores with other
virtual machines.  Its speed drifts by up to 1.7x over minutes: whole 15 s
windows ran the same job list at 1.3 s and at 2.3 s.  No statistic of raw
times within one run (median, minimum, quartile) absorbed that.  The drift
moves a fixed pure-Python loop by the same factor, though.  So every timed
interval is bracketed by runs of `reference()` and rescaled to the speed at
which the reference takes NOMINAL_S:

    normalised = measured * NOMINAL_S / mean(reference before, reference after)

A normalised time is the interval's wall time on this machine at its
undisturbed speed.  The loop is the benchmark's own code, so a change to
confal cannot move it.  Raw times stay in the results record.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the reference loop's time, in seconds, on an undisturbed core of the
# machine the benchmark was written on (Python 3.11.7)
NOMINAL_S = 0.0195


def reference() -> float:
    """Run the reference loop (rational and dict arithmetic); returns its wall time."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(6000):
        f = Fraction(i % 17 + 1, i % 5 + 1)
        k = i % 31
        acc[k] = acc.get(k, 0) + f * f
    return time.perf_counter() - t0


def normalise(seconds: float, before: float, after: float) -> float:
    return seconds * NOMINAL_S * 2 / (before + after)
