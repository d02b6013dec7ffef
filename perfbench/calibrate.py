"""The host-speed kernel, timed by the fork server after every op.

It does the kinds of work rqlab does (exact fractions, complex arithmetic,
small numpy determinants) but calls no rqlab code, so no change to rqlab
can move its time.  See "Host adjustment" in WORKLOADS.md.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def kernel() -> float:
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i * i + 1)
    z = 0j
    for i in range(30000):
        z += complex(math.cos(i), math.sin(i)) * 1.0000001
    m = np.arange(16.0).reshape(4, 4) + np.eye(4)
    d = 0.0
    for i in range(400):
        d += float(np.linalg.det(m + i))
    return float(acc) + abs(z) + d
