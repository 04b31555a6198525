"""Host speed probe.

A shared CPU can change speed by up to 2x within minutes when other tenants
load its sibling cores, and every timing of a run moves with it. A fixed
reference computation (interpreter work plus small-array numpy calls, the
mix the program runs) is timed next to every op. Reported times are scaled
to the speed at which the reference takes NOMINAL_S:

    scaled = measured * NOMINAL_S / reference time at that moment

The reference is part of the benchmark, so a change to the program never
changes it. The raw times go to the results file beside the scaled ones.
"""
from __future__ import annotations

import numpy as np

NOMINAL_S = 0.001


def _reference() -> float:
    a = np.array([0.3, -1.2, 0.7])
    b = np.array([1.1, 0.4, -0.5])
    acc = 0.0
    for k in range(40):
        c = np.cross(a, b)
        acc += float(np.dot(c, a)) + float(np.linalg.norm(b))
        a, b = b, c / (1.0 + np.linalg.norm(c))
        acc += sum(x * x for x in (1.0, 2.0, 3.0, float(k)))
    return acc


def probe(clock) -> float:
    """Seconds the reference takes now."""
    t0 = clock()
    _reference()
    return clock() - t0


def scale(ref_seconds: float) -> float:
    """Factor that turns a time measured while the reference took
    `ref_seconds` into a time at nominal speed."""
    return NOMINAL_S / ref_seconds
