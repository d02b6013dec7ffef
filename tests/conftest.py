"""Shared test helpers: independent oracles, random instance generators and a cold start.

The oracles live in ``rqlab.selftest``, which the built-in self-test uses
too.  They deliberately avoid the package's own closed-form paths:
integrals are checked against a fixed Gauss-Legendre rule, transcendental
roots against plain bisection, so a failure in the library cannot hide itself.
The JSON oracle is the two-pass emitter the one-pass walker replaced, the
eigenpair oracle is the ExpPoly route that extraction's closed-form norm,
sign and residuals replaced, and the product oracle is the integral of a
canonical ExpPoly product that ``exppoly.bilinear`` replaced.
"""

import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np
import pytest

from rqlab import invariants as inv
from rqlab import solver
from rqlab.exppoly import SERIES_FREQ_CUTOFF, ExpPoly, inner_product, l2_norm_sq
from rqlab.problem import build_operator, root_system, solution_basis
from rqlab.reporting import FLOAT_BAND
from rqlab.selftest import bisect_root, random_exppoly, random_real_exppoly
from rqlab.selftest import quadrature_integral as quad_integral


def cold_start(monkeypatch):
    """An empty spectrum store and every cache of ``invariants`` empty, as in a new process."""
    monkeypatch.setattr(solver, "_STORE", {})
    for value in vars(inv).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def closed_form_regime(mu: complex, k: int) -> str:
    """Which branch of ``exppoly._int_xk_exp`` produces I_k at frequency mu.

    Away from the series, I_0 is the exact anchor, I_1..I_(floor|mu| - 1)
    come from the upward recurrence and the rest from the downward one.
    """
    if mu == 0:
        return "monomial"
    if abs(mu) < SERIES_FREQ_CUTOFF:
        return "series"
    if k == 0:
        return "anchor"
    return "upward" if k <= int(abs(mu)) - 1 else "downward"


def closed_form_regimes(f) -> set[str]:
    """The branches of ``exppoly._int_xk_exp`` that integrating f's terms goes through."""
    return {closed_form_regime(mu, k) for mu, coeffs in f.terms for k in range(len(coeffs))}


def to_jsonable(obj):
    """Recursively convert package values to JSON-safe builtins."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return repr(obj)
        if obj != 0.0 and not FLOAT_BAND[0] <= abs(obj) <= FLOAT_BAND[1]:
            return repr(obj)
        return obj
    if isinstance(obj, complex):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def two_pass_dumps(value) -> str:
    """``to_jsonable``, then the stdlib's pure-Python indent-2 encoder."""
    return json.dumps(to_jsonable(value), sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.fixture
def rng():
    return np.random.RandomState(20240817)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


PI = math.pi


def product_route(f, g) -> complex:
    """``int f g`` as the product of the two ExpPolys, canonicalised, then integrated."""
    return (f * g).integrate_unit()


def _old_fix_sign(z):
    """First non-negligible of (<z>, leading poly coefficient, z(0), z'(0)) is made positive."""
    scale = max(z.magnitude_bound(), 1e-300)
    poly = z.zero_frequency_coefficients()
    candidates = (
        lambda: z.integrate_unit().real,
        lambda: poly[-1].real if poly else 0.0,
        lambda: z.evaluate(0.0).real,
        lambda: z.differentiate(1).evaluate(0.0).real,
    )
    for candidate in candidates:
        v = candidate()
        if abs(v) > 1e-9 * scale:
            return z.scaled(-1.0) if v < 0 else z
    return z


def exppoly_route_pair(spec, Lambda):
    """z as ExpPoly algebra builds it: the oracle of the closed-form extraction.

    The null vector and monomial coefficients come from the same reduced
    system and SVD as extraction; z is then built from ``solution_basis``
    with ``ExpPoly.build``, normalised by ``inner_product`` and signed off
    ExpPoly integrals and values, as ``solver`` did before it read all
    three off z's terms in closed form.
    """
    (matrices,), degenerate, powers, kernel = solver.reduced_matrices(
        (spec,), [root_system(spec.p, Lambda).rho])
    assert not degenerate
    _, _, vt = np.linalg.svd(matrices[0])
    q = spec.n - spec.p
    inverse = np.array([[float(v) for v in row]
                        for row in solver.monomial_inverse(spec)]).reshape(q, q)
    monomial_part = np.einsum("mj,j,jk,k->m", inverse, powers[0, :q], kernel[0, :q], vt[-1])
    coeffs = vt[-1].tolist() + [-v for v in monomial_part.tolist()]
    z = ExpPoly.build(term for c, fn in zip(coeffs, solution_basis(spec, Lambda))
                      for term in fn.scaled(c).terms)
    w = z.differentiate(q)
    return _old_fix_sign(z.scaled(1.0 / math.sqrt(inner_product(w, w).real)))


def exppoly_route_residuals(pair) -> dict[str, float]:
    """The operator and boundary residuals of a pair, read off z's derivative table."""
    table = pair.z.derivatives(2 * pair.spec.n)
    return {
        "operator_residual": math.sqrt(max(
            l2_norm_sq(build_operator(pair.spec, pair.Lambda).apply(table)), 0.0)),
        "operator_scale": math.sqrt(max(l2_norm_sq(table[-1]), 0.0)),
        "boundary_residual": max(abs(d.evaluate(x)) for d in table[:pair.spec.n]
                                 for x in (1.0, -1.0)),
        "boundary_scale": max(d.magnitude_bound() for d in table[:pair.spec.n]),
    }
