"""Variational cross-check: Ritz values from exact Gram matrices.

Trial functions ``(1-x^2)^n x^(2k)`` (symmetric) or ``(1-x^2)^n x^(2k+1)``
(antisymmetric) satisfy the clamped conditions by construction.  They and
their derivatives have integer coefficients, and ``int x^s = 2/(s+1)`` for
even s, so each Gram entry is one integer ``sum f_a g_b w[a+b]`` over the
common denominator ``Q = lcm(1, 3, ..., 2*deg+1)``, with ``w[s] = 2Q/(s+1)``.
Quadrature is never a shared failure mode with the determinant solver.

The trial basis is Hilbert-matrix-like (float Cholesky of the mass matrix
fails around K ~ 16), so the reduction ``B = L D L^T``, ``L^(-1) A L^(-T)`` is
exact too: an exact Gram-Schmidt in the mass inner product keeps each row of
``L^(-1)`` as a primitive integer row, and each reduced entry is rounded once.
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
from fractions import Fraction

import numpy as np

from .errors import ConfigError, RitzConditioningError
from .problem import ProblemSpec

MAX_BASIS_SIZE = 64  # far beyond the useful double-precision envelope (K ~ 25)

def _trial_terms(spec: ProblemSpec, k: int, order: int) -> list[tuple[int, int]]:
    """(power, integer coefficient) terms of the order-th derivative of trial function k."""
    shift = 2 * k + (0 if spec.symmetric else 1)
    powers = [(shift + 2 * j, (-1) ** j * math.comb(spec.n, j)) for j in range(spec.n + 1)]
    return [(e - order, c * math.perm(e, order)) for e, c in powers if e >= order]


def _gram(terms: list[list[tuple[int, int]]], weights: list[int]) -> tuple[tuple[int, ...], ...]:
    """``<f_i f_j>`` times the common denominator: the integers ``sum f_a g_b w[a+b]``."""
    size = len(terms)
    g = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            total = sum(fa * fb * weights[a + b] for a, fa in terms[i] for b, fb in terms[j])
            g[i][j] = g[j][i] = total
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
    hi = [_trial_terms(spec, k, spec.n) for k in range(K)]
    lo = [_trial_terms(spec, k, spec.n - spec.p) for k in range(K)]
    degree = max(e for terms in lo for e, _ in terms)  # hi has the lower powers
    denominator = math.lcm(*range(1, 2 * degree + 2, 2))
    weights = [2 * denominator // (s + 1) if s % 2 == 0 else 0 for s in range(2 * degree + 1)]
    return RitzSystem(
        spec=spec,
        K=K,
        stiffness=_gram(hi, weights),
        mass=_gram(lo, weights),
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
    would.
    """
    K, a, b, scale = system.K, system.stiffness, system.mass, system.denominator
    rows: list[list[int]] = []  # u_i, up to its diagonal
    norms: list[int] = []  # n_i
    inv_sqrt: list[float] = []  # (D_i / Q)^(-1/2)
    for i in range(K):
        # map() stops at the end of u_k, its diagonal
        coeffs = [Fraction(sum(map(operator.mul, b[i], u)), n) for u, n in zip(rows, norms)]
        lcm = math.lcm(*(c.denominator for c in coeffs))
        row = [0] * i + [lcm]
        for c, u in zip(coeffs, rows):
            factor = lcm // c.denominator * c.numerator
            for m, x in enumerate(u):
                row[m] -= factor * x
        g = math.gcd(*row)
        row = [x // g for x in row]
        norm = sum(x * sum(map(operator.mul, b_m, row)) for x, b_m in zip(row, b))
        if norm <= 0:
            # mathematically impossible for a Gram matrix of independent
            # functions; would signal a broken assembly
            raise RitzConditioningError(f"exact mass pivot {i} is not positive")
        rows.append(row)
        norms.append(norm)
        # the common denominator cancels from L^(-1) but stays in D and A
        inv_sqrt.append(1.0 / math.sqrt(norm / (scale * row[i] ** 2)))
    # each u_i stops at its diagonal, and map() stops with it; A is symmetric
    rows_a = [[sum(map(operator.mul, row, a_m)) for a_m in a] for row in rows]
    reduced = np.empty((K, K))
    for i in range(K):
        for j in range(i + 1):
            w = sum(map(operator.mul, rows_a[i], rows[j])) / (scale * rows[i][i] * rows[j][j])
            reduced[i, j] = w * inv_sqrt[i] * inv_sqrt[j]
            reduced[j, i] = w * inv_sqrt[j] * inv_sqrt[i]
    return reduced


def ritz_values(system: RitzSystem, count: int) -> list[float]:
    """The smallest `count` Ritz values (upper bounds for true eigenvalues)."""
    if not 1 <= count <= system.K:
        raise ConfigError(f"need 1 <= count <= K={system.K}")
    values = np.linalg.eigvalsh(_reduced_matrix(system))
    return [float(v) for v in values[:count]]

