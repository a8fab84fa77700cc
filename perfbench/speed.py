"""Machine-speed reference for the timings.

On a shared host the same op can take twice as long from one minute to the
next, because other tenants' load slows every instruction.  That slowdown is
common to all CPU-bound code, so each timed span is bracketed by a fixed
reference loop of the same kind of work the library does (``Fraction``
arithmetic and small numpy solves) and reported at the reference speed:

    adjusted = measured * REFERENCE_S / mean(reference before, reference after)

Measured on a 2-core 2.1 GHz machine, this cut the run-to-run spread of a
pass over the ``exact`` inputs from 30 % to 2 %.  Raw wall times stay in the
full report.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# The loop's time in the fastest quartile of 3000 runs on the machine above.
REFERENCE_S = 2.5e-3

_M = np.array([[2.0, 1, 0, 0], [1, 3, 1, 0], [0, 1, 4, 1], [0, 0, 1, 5]])


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    t0 = perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 400):
        x = (x * Fraction(i, i + 1) + 1) / 2
    for _ in range(60):
        np.linalg.inv(_M)
    return perf_counter() - t0


def timed(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)``; return ``(result, raw_s, adjusted_s, error)``.

    An exception raised by ``fn`` is returned, not raised, so a failed call
    is timed like any other.
    """
    before = reference_s()
    t0 = perf_counter()
    result = error = None
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the caller records every failure by type
        error = exc
    raw = perf_counter() - t0
    after = reference_s()
    return result, raw, raw * REFERENCE_S * 2 / (before + after), error
