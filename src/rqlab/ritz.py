"""Variational cross-check: Ritz values from exact Gram matrices.

Trial functions ``(1-x^2)^n x^(2k)`` (symmetric) or ``(1-x^2)^n x^(2k+1)``
(antisymmetric) satisfy the clamped conditions by construction.  They and
their derivatives have integer coefficients, and ``int x^s = 2/(s+1)`` for
even s, so each Gram entry is one integer ``sum f_a g_b w[a+b]`` over the
common denominator ``Q = lcm(1, 3, ..., 2*deg+1)``, with ``w[s] = 2Q/(s+1)``.
Quadrature is never a shared failure mode with the determinant solver.

The trial basis is Hilbert-matrix-like (float Cholesky of the mass matrix
fails around K ~ 16), so the reduction ``B = L D L^T``, ``L^(-1) A L^(-T)`` is
exact too: Bareiss elimination (Bareiss 1968) keeps it in integers, and each
reduced entry is rounded once.  The float eigensolve then adds an absolute
error of about eps times the largest Ritz value: at K = 20 the first values
are good to ~1e-13 relative for p = 1, ~1e-11 for p = 2, ~1e-8 for p = 3, 4.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

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


def _fraction_free_ldl(b: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Bareiss elimination of ``[B | I]`` for a symmetric integer ``B = L D L^T``.

    Returns the leading principal minors ``delta`` (``D[i] = delta[i] / delta[i-1]``,
    ``delta[-1] = 1``) and the integer rows ``delta[i-1] * L^(-1)[i]`` up to their
    diagonal.  Divisions are exact; the trailing block stays symmetric, so only
    its upper triangle is updated.
    """
    K = len(b)
    work = [list(row) for row in b]
    inverse = [[0] * i + [1] for i in range(K)]
    previous = 1
    for k in range(K):
        row_k, inv_k = work[k], inverse[k]
        pivot = row_k[k]
        if pivot <= 0:
            # mathematically impossible for a Gram matrix of independent
            # functions; would signal a broken assembly
            raise RitzConditioningError(f"exact mass pivot {k} is not positive")
        for i in range(k + 1, K):
            row_i, inv_i = work[i], inverse[i]
            factor = row_k[i]
            row_i[i:] = [(pivot * x - factor * y) // previous for x, y in zip(row_i[i:], row_k[i:])]
            # zip stops at column k, the end of row k of the identity block
            inv_i[:k + 1] = [(pivot * x - factor * y) // previous for x, y in zip(inv_i, inv_k)]
            inv_i[i] = pivot * inv_i[i] // previous
        previous = pivot
    return [row[i] for i, row in enumerate(work)], inverse


def _reduced_matrix(system: RitzSystem) -> np.ndarray:
    """Float ``D^(-1/2) L^(-1) A L^(-T) D^(-1/2)``.

    Each reduced entry is one exact integer ratio, and integer true division
    rounds correctly, exactly as the rounded rational reduction would.
    """
    K, a, scale = system.K, system.stiffness, system.denominator
    delta, rows = _fraction_free_ldl(system.mass)
    before = [1] + delta[:-1]  # delta[i-1]
    # the common denominator cancels from L^(-1) but stays in D and A
    inv_sqrt = [1.0 / math.sqrt(delta[i] / (scale * before[i])) for i in range(K)]
    # each row of L^(-1) stops at the diagonal, and map() stops with it; A is symmetric
    rows_a = [[sum(map(operator.mul, row, a_m)) for a_m in a] for row in rows]
    reduced = np.empty((K, K))
    for i in range(K):
        for j in range(i + 1):
            w = sum(map(operator.mul, rows_a[i], rows[j])) / (scale * before[i] * before[j])
            reduced[i, j] = w * inv_sqrt[i] * inv_sqrt[j]
            reduced[j, i] = w * inv_sqrt[j] * inv_sqrt[i]
    return reduced


def ritz_values(system: RitzSystem, count: int) -> list[float]:
    """The smallest `count` Ritz values (upper bounds for true eigenvalues)."""
    if not 1 <= count <= system.K:
        raise ConfigError(f"need 1 <= count <= K={system.K}")
    values = np.linalg.eigvalsh(_reduced_matrix(system))
    return [float(v) for v in values[:count]]

