"""Variational cross-check: Ritz values from exact Gram matrices.

Trial functions ``phi_k = (1-x^2)^n x^(2k+s)``, s = 0 (symmetric) or 1
(antisymmetric), satisfy the clamped conditions by construction: their first
n-1 derivatives vanish at +-1.  So for r <= n, r integrations by parts give
``<phi_k^(r) phi_l^(r)> = (-1)^r <phi_k phi_l^(2r)>``, and each monomial of
``phi_l^(2r)`` integrates against ``phi_k`` to one Beta moment
``beta_m = int (1-x^2)^n x^(2m) = n! 2^(n+1) / ((2m+1)(2m+3)...(2m+2n+1))``.
Over the common denominator ``Q = lcm(1, 3, ..., 2*deg+1)`` every
``Q beta_m`` the basis needs is an integer, so each Gram entry is an exact
integer sum of n+1 products.  Quadrature is never a shared failure mode with
the determinant solver.

The trial basis is Hilbert-matrix-like (float Cholesky of the mass matrix
fails around K ~ 16), so the reduction ``B = L D L^T``, ``L^(-1) A L^(-T)`` is
exact too: an exact Gram-Schmidt in the mass inner product keeps each row of
``L^(-1)`` as a primitive integer row, whose mass norm is one dot product
with a row of B, and each reduced entry is rounded once.
The rows and their mass norms stay within a few hundred bits at K = 20, where
the leading minors of B that a fraction-free elimination carries reach
1400-2000 bits.  The float eigensolve then adds an absolute error of about eps
times the largest Ritz value: at K = 20 the first values are good to ~1e-13
relative for p = 1, ~1e-11 for p = 2, ~1e-8 for p = 3, 4.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RitzConditioningError
from .problem import ProblemSpec

MAX_BASIS_SIZE = 64  # far beyond the useful double-precision envelope (K ~ 25)


def _beta_moments(n: int, count: int, denominator: int) -> list[int]:
    """``Q * beta_m`` for m < count, with ``beta_m = int (1-x^2)^n x^(2m)``.

    ``beta_m = n! 2^(n+1) / ((2m+1)(2m+3)...(2m+2n+1))``, so
    ``beta_(m+1) = beta_m (2m+1) / (2m+2n+3)``; every ``Q beta_m`` needed is the
    integer ``sum_i (-1)^i C(n,i) 2Q/(2m+2i+1)``, so each division is exact.
    """
    moment = denominator * math.factorial(n) * 2 ** (n + 1) // math.prod(range(1, 2 * n + 2, 2))
    moments = [moment]
    for m in range(count - 1):
        moment = moment * (2 * m + 1) // (2 * m + 2 * n + 3)
        moments.append(moment)
    return moments


def _gram(n: int, s: int, K: int, order: int, moments: list[int]) -> tuple[tuple[int, ...], ...]:
    """``<phi_k^(r) phi_l^(r)>`` times the common denominator, for r = order.

    By parts ``<phi_k^(r) phi_l^(r)> = (-1)^r <phi_k phi_l^(2r)>``, and
    ``phi_l^(2r) = sum_j (-1)^j C(n,j) perm(e_l+2j, 2r) x^(e_l+2j-2r)`` with
    ``e_l = 2l+s`` (s = 0 symmetric, 1 antisymmetric), so the entry is
    ``sum_j`` of that coefficient times ``Q beta_(k+l+s+j-r)``; the terms with
    ``e_l+2j < 2r`` vanish.
    """
    sign = -1 if order % 2 else 1
    g = [[0] * K for _ in range(K)]
    for l in range(K):
        first = max(0, order - l)
        coeffs = [sign * (-1) ** j * math.comb(n, j) * math.perm(2 * l + s + 2 * j, 2 * order)
                  for j in range(first, n + 1)]
        for k in range(l + 1):
            start = k + l + s + first - order
            g[k][l] = g[l][k] = sum(map(operator.mul, coeffs, moments[start:start + len(coeffs)]))
    return tuple(tuple(row) for row in g)


@dataclass(frozen=True)
class RitzSystem:
    """Exact Gram matrices of derivative inner products, as integers over ``denominator``."""

    spec: ProblemSpec
    K: int
    stiffness: tuple[tuple[int, ...], ...]  # <phi_k^(n) phi_l^(n)> * denominator
    mass: tuple[tuple[int, ...], ...]  # <phi_k^(n-p) phi_l^(n-p)> * denominator
    denominator: int


def assemble(spec: ProblemSpec, K: int) -> RitzSystem:
    """Exact Gram matrices for the first K trial functions."""
    if K < 1:
        raise ConfigError("K must be >= 1")
    if K > MAX_BASIS_SIZE:
        raise ConfigError(f"K={K} exceeds the supported basis size {MAX_BASIS_SIZE}")
    s = 0 if spec.symmetric else 1
    degree = 2 * (K - 1) + s + spec.n + spec.p  # of phi_(K-1)^(n-p), the highest power
    denominator = math.lcm(*range(1, 2 * degree + 2, 2))
    moments = _beta_moments(spec.n, 2 * K - 1 + s + spec.p, denominator)
    return RitzSystem(
        spec=spec,
        K=K,
        stiffness=_gram(spec.n, s, K, spec.n, moments),
        mass=_gram(spec.n, s, K, spec.n - spec.p, moments),
        denominator=denominator,
    )


def _reduced_matrix(system: RitzSystem) -> np.ndarray:
    """Float ``D^(-1/2) L^(-1) A L^(-T) D^(-1/2)`` for ``B = L D L^T``.

    Row i of ``L^(-1)`` is the B-orthogonal Gram-Schmidt image of ``e_i``;
    it is kept as the primitive integer row ``u_i`` (gcd 1, scaled by its
    denominator ``u_i[i] > 0``) with mass norm ``n_i = u_i B u_i``, so
    ``D_i = n_i / u_i[i]^2``.  Each reduced entry
    ``u_i A u_j / (Q u_i[i] u_j[j])`` is one exact integer ratio, and integer
    true division rounds correctly, exactly as the rounded rational reduction
    would.  Only the lower triangle is filled, the one that
    ``numpy.linalg.eigvalsh`` reads; the rest stays 0.
    """
    K, a, b, scale = system.K, system.stiffness, system.mass, system.denominator
    rows: list[list[int]] = []  # u_i, up to its diagonal
    norms: list[int] = []  # n_i
    inv_sqrt: list[float] = []  # (D_i / Q)^(-1/2)
    reduced = np.zeros((K, K))
    for i in range(K):
        # the projection coefficient of e_i on u_k is num/den in lowest terms;
        # map() stops at the end of u_k, its diagonal
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
        # row * g = lcm e_i - sum c_k lcm u_k is B-orthogonal to every u_k, so
        # its mass norm is lcm e_i B (row * g), and row's is (lcm/g) B[i] row
        norm = lcm // g * sum(map(operator.mul, b[i], row))
        if norm <= 0:
            # mathematically impossible for a Gram matrix of independent
            # functions; would signal a broken assembly
            raise RitzConditioningError(f"exact mass pivot {i} is not positive")
        rows.append(row)
        norms.append(norm)
        # the common denominator cancels from L^(-1) but stays in D and A
        inv_sqrt.append(1.0 / math.sqrt(norm / (scale * row[i] ** 2)))
        # (A u_i)_m for the columns m <= i that the lower triangle reads;
        # u_i stops at its diagonal, and map() stops with it
        row_a = [sum(map(operator.mul, row, a[m])) for m in range(i + 1)]
        for j in range(i + 1):
            w = sum(map(operator.mul, row_a, rows[j])) / (scale * row[i] * rows[j][j])
            reduced[i, j] = w * inv_sqrt[i] * inv_sqrt[j]
    return reduced


def ritz_values(system: RitzSystem, count: int) -> list[float]:
    """The smallest `count` Ritz values (upper bounds for true eigenvalues)."""
    if not 1 <= count <= system.K:
        raise ConfigError(f"need 1 <= count <= K={system.K}")
    values = np.linalg.eigvalsh(_reduced_matrix(system))
    return [float(v) for v in values[:count]]

