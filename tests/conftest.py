"""Shared test helpers: independent oracles, random instance generators and a cold start.

The oracles live in ``rqlab.selftest``, which the built-in self-test uses
too.  They deliberately avoid the package's own closed-form paths:
integrals are checked against a fixed Gauss-Legendre rule, transcendental
roots against plain bisection, so a failure in the library cannot hide itself.
"""

import math

import numpy as np
import pytest

from rqlab import invariants as inv
from rqlab import solver
from rqlab.selftest import bisect_root, random_exppoly, random_real_exppoly
from rqlab.selftest import quadrature_integral as quad_integral


def cold_start(monkeypatch):
    """An empty spectrum store and empty per-pair caches, as in a new process."""
    monkeypatch.setattr(solver, "_STORE", {})
    for cached in (inv._half_image, inv._reduced_image, inv.stone_polynomials,
                   inv._z_dot_h, inv._moment):
        cached.cache_clear()


@pytest.fixture
def rng():
    return np.random.RandomState(20240817)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


PI = math.pi
