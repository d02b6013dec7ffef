"""Shared test helpers: independent oracles, random instance generators and a cold start.

The oracles live in ``rqlab.selftest``, which the built-in self-test uses
too.  They deliberately avoid the package's own closed-form paths:
integrals are checked against a fixed Gauss-Legendre rule, transcendental
roots against plain bisection, so a failure in the library cannot hide itself.
The JSON oracle is the two-pass emitter the one-pass walker replaced, the
eigenpair oracle is z built by ExpPoly algebra from ``solution_basis`` (the
kernel template's functions as ExpPolys, which only the tests read), the
residual and normalisation oracle is the split-form walk over z's constant
kernel coefficients and polynomial part that extraction once kept beside
ExpPoly, the table oracles are the per-coefficient derivative loop and the
canonical-sum sigma image that ``ExpPoly.derivatives`` and
``SigmaPolynomial.apply`` replaced, the product oracle is the integral
of a canonical ExpPoly product that ``exppoly.bilinear`` replaced, and the
Ritz oracle is the dense route of the ``(1-x^2)^n x^(2k+s)`` trial basis
(Gram matrices as double sums over monomial pairs, exact Gram-Schmidt over
all predecessors) that the banded Rodrigues basis of ``rqlab.ritz`` replaced.
"""

import cmath
import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from rqlab import invariants as inv
from rqlab import solver
from rqlab.exppoly import _I_POWERS, SERIES_FREQ_CUTOFF, ExpPoly, _trim, inner_product, l2_norm_sq
from rqlab.problem import kernel_columns, root_system
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
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a record, before any tuple
        return {name: to_jsonable(getattr(obj, name)) for name in obj._fields}
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


def solution_basis(spec, Lambda: float) -> tuple:
    """The p kernel functions of ``kernel_columns`` at Lambda as ExpPolys, then the n-p monomials.

    The eigenpair oracle builds z from this basis.

    A term is stored as ``c e^(mu x)`` with ``e^(-rho b)`` inside ``c``, so
    evaluating it at ``|x| = 1`` forms ``e^(rho b)`` on its own, which
    overflows to inf past ``rho b ~ 709.78``; once ``c`` underflows to 0 the
    product is nan.  The boundary matrix therefore reads its own tables
    (``solver.boundary_tables``), which fold ``e^(-b)`` into the exponent.
    """
    rho = root_system(spec.p, Lambda).rho
    kernel = []
    for terms, b in kernel_columns(spec.p, spec.symmetric):
        h = 0.5 * np.exp(-rho * b)  # math.exp differs from np.exp in the last bit on some inputs
        kernel.append(ExpPoly.build((rho * freq, (kappa * h,)) for freq, kappa in terms))
    return tuple(kernel) + tuple(ExpPoly.monomial(m) for m in spec.monomial_degrees)


def exppoly_route_pair(spec, Lambda):
    """z as ExpPoly algebra builds it: the oracle of extraction's z.

    The null vector and monomial coefficients come from the same reduced
    system and SVD as extraction; z is then built from ``solution_basis``
    with ``ExpPoly.build``, normalised by ``inner_product`` and signed off
    ExpPoly integrals and values, where extraction adds the terms of each
    frequency itself and never canonicalises.
    """
    (matrices,), degenerate, powers, kernel = solver.reduced_matrices(
        (spec,), [root_system(spec.p, Lambda).rho])
    assert not degenerate
    _, _, vt = np.linalg.svd(matrices[0])
    q = spec.n - spec.p
    numerators, denominator = solver.monomial_inverse(spec)
    inverse = np.array([[v / denominator for v in row] for row in numerators]).reshape(q, q)
    monomial_part = np.einsum("mj,j,jk,k->m", inverse, powers[0, :q], kernel[0, :q], vt[-1])
    coeffs = vt[-1].tolist() + [-v for v in monomial_part.tolist()]
    z = ExpPoly.build(term for c, fn in zip(coeffs, solution_basis(spec, Lambda))
                      for term in fn.scaled(c).terms)
    w = z.differentiate(q)
    return _old_fix_sign(z.scaled(1.0 / math.sqrt(inner_product(w, w).real)))


def hexed(f) -> list:
    """f's frequencies and coefficients as ``float.hex`` strings, signed zeros kept apart."""
    return [(mu.real.hex(), mu.imag.hex(), [(c.real.hex(), c.imag.hex()) for c in coeffs])
            for mu, coeffs in f.terms]


def stepwise_derivatives(f, order: int) -> tuple:
    """The table (f, f', ..., f^(order)), one coefficient at a time."""
    table = [f]
    for _ in range(order):
        new_terms = []
        for mu, coeffs in table[-1].terms:
            d = len(coeffs) - 1
            out = [0j] * (d + 1)
            for k in range(d + 1):
                v = mu * coeffs[k]
                if k + 1 <= d:
                    v += (k + 1) * coeffs[k + 1]
                out[k] = v
            new_terms.append((mu, _trim(out)))
        table.append(ExpPoly(tuple((mu, c) for mu, c in new_terms if c)))
    return tuple(table)


def canonical_sum_apply(sigma, table):
    """``sigma``'s image of f as a sum of canonical ExpPolys, one per nonzero coefficient."""
    acc = ExpPoly.zero()
    for k, c in enumerate(sigma.coeffs):
        if c != 0:
            acc = acc + table[k].scaled(c * _I_POWERS[k % 4])
    return acc


def _split(terms):
    """The nonzero frequencies of f's terms, the constant at each, and the polynomial part."""
    mus, coeffs, poly = [], [], ()
    for mu, c in terms:
        if mu == 0:
            poly = c
        else:
            (constant,) = c
            mus.append(mu)
            coeffs.append(constant)
    return mus, coeffs, poly


def _split_walk(z, order: int) -> list:
    """``(coefficients, polynomial part)`` of z, z', ..., z^(order): ``mu^j c`` and ``P^(j)``."""
    mus, coeffs, poly = _split(z.terms)
    table = [(coeffs, poly)]
    for _ in range(order):
        cs, ps = table[-1]
        table.append(([mu * c for mu, c in zip(mus, cs)],
                      tuple(k * c for k, c in enumerate(ps))[1:]))
    return table


def _split_magnitude_bound(mus, coeffs, poly) -> float:
    return (sum(math.exp(abs(mu.real)) * abs(c) for mu, c in zip(mus, coeffs))
            + sum(map(abs, poly)))


def _split_norm_sq(mus, coeffs, poly) -> float:
    terms = [(mu, (c,)) for mu, c in zip(mus, coeffs)]
    if poly:
        terms.append((0j, tuple(poly)))
    return l2_norm_sq(ExpPoly(tuple(terms)))


def split_route_norm_sq(z, order: int) -> float:
    """``int |z^(order)|^2`` off z's split form, the way extraction once normalised."""
    mus = _split(z.terms)[0]
    return _split_norm_sq(mus, *_split_walk(z, order)[-1])


def split_route_residuals(pair) -> dict[str, float]:
    """The operator and boundary residuals of a pair, off z's split form.

    z^(j) is ``mu^j c`` at each frequency plus P^(j), each ``e^(+-mu)`` is
    formed once, and the operator ``sigma^(2n-2p) (sigma^(2p) - Lambda)``
    is written out as ``(-1)^n d^(2n) - (-1)^(n-p) Lambda d^(2n-2p)``.
    """
    n, p = pair.spec.n, pair.spec.p
    mus = _split(pair.z.terms)[0]
    table = _split_walk(pair.z, 2 * n)
    ends = [(x, [cmath.exp(mu * x) for mu in mus]) for x in (1.0, -1.0)]
    boundary = boundary_scale = 0.0
    for cs, ps in table[:n]:
        for x, values in ends:
            value = 0j
            for c in reversed(ps):
                value = value * x + c
            boundary = max(boundary, abs(sum(map(operator.mul, cs, values), value)))
        boundary_scale = max(boundary_scale, _split_magnitude_bound(mus, cs, ps))
    (low, low_poly), (high, high_poly) = table[2 * (n - p)], table[2 * n]
    a = -pair.Lambda if (n - p) % 2 == 0 else pair.Lambda
    b = 1.0 if n % 2 == 0 else -1.0
    image_poly = [a * c for c in low_poly] + [0j] * (len(high_poly) - len(low_poly))
    for k, c in enumerate(high_poly):
        image_poly[k] += b * c
    image = _split_norm_sq(mus, [a * u + b * v for u, v in zip(low, high)], image_poly)
    return {
        "operator_residual": math.sqrt(max(image, 0.0)),
        "operator_scale": math.sqrt(max(_split_norm_sq(mus, high, high_poly), 0.0)),
        "boundary_residual": boundary,
        "boundary_scale": boundary_scale,
    }


def _trial_terms(spec, k: int, order: int) -> list[tuple[int, int]]:
    """(power, integer coefficient) terms of the order-th derivative of ``(1-x^2)^n x^(2k+s)``."""
    shift = 2 * k + (0 if spec.symmetric else 1)
    powers = [(shift + 2 * j, (-1) ** j * math.comb(spec.n, j)) for j in range(spec.n + 1)]
    return [(e - order, c * math.perm(e, order)) for e, c in powers if e >= order]


def phi_system(spec, K: int) -> tuple:
    """(stiffness, mass, Q): the phi_k Gram matrices as integers over Q = lcm(1, 3, ..., 2*deg+1).

    No integration by parts: each entry is the double sum
    ``sum f_a g_b w[a+b]`` over the monomials of both derivatives, with
    ``w[s] = 2Q/(s+1)`` for even s.
    """
    hi = [_trial_terms(spec, k, spec.n) for k in range(K)]
    lo = [_trial_terms(spec, k, spec.n - spec.p) for k in range(K)]
    degree = max(e for terms in lo for e, _ in terms)  # hi has the lower powers
    denominator = math.lcm(*range(1, 2 * degree + 2, 2))
    weights = [2 * denominator // (s + 1) if s % 2 == 0 else 0 for s in range(2 * degree + 1)]

    def gram(terms):
        g = [[0] * K for _ in range(K)]
        for i in range(K):
            for j in range(i, K):
                total = sum(fa * fb * weights[a + b] for a, fa in terms[i] for b, fb in terms[j])
                g[i][j] = g[j][i] = total
        return tuple(tuple(row) for row in g)

    return gram(hi), gram(lo), denominator


def phi_reduced_matrix(stiffness, mass, denominator) -> np.ndarray:
    """Float ``D^(-1/2) L^(-1) A L^(-T) D^(-1/2)`` for ``B = L D L^T``, dense.

    Row i of ``L^(-1)`` is the B-orthogonal Gram-Schmidt image of ``e_i``
    against every predecessor, kept as the primitive integer row ``u_i``
    with mass norm ``n_i = u_i B u_i``, so ``D_i = n_i / u_i[i]^2``; each
    reduced entry ``u_i A u_j / (Q u_i[i] u_j[j])`` is one integer ratio,
    rounded once.  Only the lower triangle is filled.
    """
    K, a, b, scale = len(stiffness), stiffness, mass, denominator
    rows: list[list[int]] = []
    norms: list[int] = []
    inv_sqrt: list[float] = []
    reduced = np.zeros((K, K))
    for i in range(K):
        nums, dens = [], []
        for u, n in zip(rows, norms):
            c = sum(map(operator.mul, b[i], u))
            d = math.gcd(c, n)
            nums.append(c // d)
            dens.append(n // d)
        lcm = math.lcm(*dens)
        row = [0] * i + [lcm]
        for num, den, u in zip(nums, dens, rows):
            factor = lcm // den * num
            for m, x in enumerate(u):
                row[m] -= factor * x
        g = math.gcd(*row)
        row = [x // g for x in row]
        norm = lcm // g * sum(map(operator.mul, b[i], row))
        assert norm > 0
        rows.append(row)
        norms.append(norm)
        inv_sqrt.append(1.0 / math.sqrt(norm / (scale * row[i] ** 2)))
        row_a = [sum(map(operator.mul, row, a[m])) for m in range(i + 1)]
        for j in range(i + 1):
            w = sum(map(operator.mul, row_a, rows[j])) / (scale * row[i] * rows[j][j])
            reduced[i, j] = w * inv_sqrt[i] * inv_sqrt[j]
    return reduced
