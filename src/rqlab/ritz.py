"""Variational cross-check: Ritz values from exact Gram matrices.

The trial functions ``phi_k = (1-x^2)^n x^(2k+s)``, k < K, s = 0 (symmetric)
or 1, are clamped by construction.  The scaled Rodrigues functions
``u_k = G_k D^j (1-x^2)^m / (2^m m!)``, j = 2k+s, m = n+j, span the same
nested spaces, u_k's phi_k coefficient being
``T_k = G_k (-1)^j (2m)! / ((2m-j)! 2^m m!)`` (J. Shen, SIAM J. Sci.
Comput. 15 (1994) 1489-1505).  ``u_k^(n) = G_k (-1)^m P_m``, so the stiffness
is diagonal, ``G_k^2 2/(2m+1)``; ``u_k^(n-p) = G_k (-1)^m I^p P_m`` with
``I^p P_m = sum_i (-1)^(p-i) C(p,i) P_(m-p+2i) / prod_(t != i) (2(m-p+i+t)+1)``,
so the mass has bandwidth p, each entry a sum of ``g g' 2/(2l+1)``.  G_k is
the lcm of row k's reduced denominators, so every entry is an integer over
``Q = lcm(1, 3, ..., 2(m_max+p)+1)``: no quadrature is a shared failure mode
with the determinant solver.

The reduction ``B = L D L^T``, ``L^(-1) A L^(-T)`` is an exact Gram-Schmidt
in the mass inner product over primitive integer rows, each projected on its
p predecessors only.  As ``u = C phi``, C lower triangular of diagonal T, the
phi basis's W and D are ``W_ij / (T_i T_j)`` and ``D_i / T_i^2`` exactly,
each rounded once, so the reduced matrix is the phi basis's bit for bit.  The
float eigensolve adds an absolute error of about eps times the largest Ritz
value: at K = 20 the first values are good to ~1e-13 relative for p = 1,
~1e-11 for p = 2, ~1e-8 for p = 3, 4.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, RitzConditioningError
from .problem import ProblemSpec

MAX_BASIS_SIZE = 64  # far beyond the useful double-precision envelope (K ~ 25)


class RitzSystem(NamedTuple):
    """Exact Gram matrices of the scaled Rodrigues basis, as integers over ``denominator``."""

    spec: ProblemSpec
    K: int
    stiffness: tuple[int, ...]  # <u_k^(n) u_k^(n)> * denominator, the whole diagonal
    mass: tuple[tuple[int, ...], ...]  # row k: <u_k^(n-p) u_l^(n-p)> * denominator, l = k-p..k
    leading: tuple[tuple[int, int], ...]  # T_k as (numerator, denominator) in lowest terms
    denominator: int


def assemble(spec: ProblemSpec, K: int) -> RitzSystem:
    """Exact Gram matrices of the first K basis functions u_k."""
    if K < 1:
        raise ConfigError("K must be >= 1")
    if K > MAX_BASIS_SIZE:
        raise ConfigError(f"K={K} exceeds the supported basis size {MAX_BASIS_SIZE}")
    n, p = spec.n, spec.p
    s = 0 if spec.symmetric else 1
    top = n + 2 * (K - 1) + s + p  # the highest Legendre degree of any u_k^(n-p)
    denominator = math.lcm(*range(1, 2 * top + 2, 2))
    weights = [2 * denominator // (2 * l + 1) for l in range(top + 1)]  # Q <P_l P_l>
    stiffness, mass, leading, rows = [], [], [], []
    for k in range(K):
        j = 2 * k + s
        m = n + j
        low = m - p  # u_k^(n-p) spans P_low, P_(low+2), ..., P_(m+p)
        # over the product of all 2p+1 odd numbers 2l+1, l = low..m+p, term i
        # of I^p P_m misses those of l < low+i and of l > low+i+p
        odd = range(2 * low + 1, 2 * (m + p) + 2, 2)
        prefix, suffix = [1], [1]
        for a, b in zip(odd[:p], reversed(odd[p + 1:])):
            prefix.append(prefix[-1] * a)
            suffix.append(suffix[-1] * b)
        nums = [(-1) ** (p - i) * math.comb(p, i) * odd[2 * i] * prefix[i] * suffix[p - i]
                for i in range(p + 1)]
        whole = prefix[p] * odd[p] * suffix[p]
        h = math.gcd(whole, *nums)
        scale = whole // h  # G_k
        row = [v // h for v in nums]
        rows.append(row)
        weighted = [v * weights[low + 2 * i] for i, v in enumerate(row)]
        # P_(low+2i) of row k is P_(low_l+2(i+k-l)) of row l
        mass.append(tuple(sum(map(operator.mul, weighted, rows[l][k - l:]))
                          for l in range(max(0, k - p), k + 1)))
        stiffness.append(scale * scale * weights[m])
        t_num, t_den = (-1) ** j * scale * math.perm(2 * m, j), 2 ** m * math.factorial(m)
        g = math.gcd(t_num, t_den)
        leading.append((t_num // g, t_den // g))
    return RitzSystem(spec, K, tuple(stiffness), tuple(mass), tuple(leading), denominator)


def _reduced_matrix(system: RitzSystem) -> np.ndarray:
    """Float ``D^(-1/2) L^(-1) A L^(-T) D^(-1/2)`` of the phi basis, for ``B = L D L^T``.

    Row i of the u basis's ``L^(-1)`` is the B-orthogonal Gram-Schmidt image
    of ``e_i``, kept as the primitive integer row ``v_i`` (gcd 1, scaled by
    its denominator ``v_i[i] > 0``); ``(B v_k)_i`` vanishes for k < i-p, so
    e_i is projected on v_(i-p)..v_(i-1) only.  With mass norm
    ``n_i = v_i B v_i`` and ``T_i = t_i / d_i``, the phi basis's
    ``D_i = n_i d_i^2 / (Q (v_i[i] t_i)^2)`` and
    ``W_ij = v_i A v_j d_i d_j / (Q v_i[i] t_i v_j[j] t_j)`` are exact integer
    ratios, and integer true division rounds each correctly, exactly as the
    rounded rational reduction would.  Only the lower triangle is filled,
    the one that ``numpy.linalg.eigvalsh`` reads; the rest stays 0.
    """
    K, a, b, scale = system.K, system.stiffness, system.mass, system.denominator
    rows: list[list[int]] = []  # v_i, up to its diagonal
    norms: list[int] = []  # n_i
    tops: list[int] = []  # d_i
    bottoms: list[int] = []  # v_i[i] t_i
    inv_sqrt: list[float] = []  # D_i^(-1/2)
    reduced = np.zeros((K, K))
    for i in range(K):
        band = b[i]  # B[i][low..i]
        low = i + 1 - len(band)
        # the projection coefficient of e_i on v_k is num/den in lowest terms;
        # map() stops at the end of v_k, its diagonal
        fractions = []
        for u, n in zip(rows[low:], norms[low:]):
            c = sum(map(operator.mul, band, u[low:]))
            d = math.gcd(c, n)
            fractions.append((c // d, n // d, u))
        lcm = math.lcm(*(den for _, den, _ in fractions))
        row = [0] * i + [lcm]
        for num, den, u in fractions:
            factor = lcm // den * num
            for m, x in enumerate(u):
                row[m] -= factor * x
        g = math.gcd(*row)
        row = [x // g for x in row]
        # row * g = lcm e_i - sum lcm c_k/n_k v_k is B-orthogonal to every v_k,
        # so its mass norm is lcm e_i B (row * g), and row's is (lcm/g) B[i] row
        norm = lcm // g * sum(map(operator.mul, band, row[low:]))
        if norm <= 0:
            # mathematically impossible for a Gram matrix of independent
            # functions; would signal a broken assembly
            raise RitzConditioningError(f"exact mass pivot {i} is not positive")
        rows.append(row)
        norms.append(norm)
        t_num, t_den = system.leading[i]
        tops.append(t_den)
        bottoms.append(row[i] * t_num)
        inv_sqrt.append(1.0 / math.sqrt(norm * t_den * t_den / (scale * bottoms[i] ** 2)))
        # A is diagonal, so v_i A v_j is one dot product of (v_i A d_i) with v_j
        row_a = [x * y * t_den for x, y in zip(row, a)]
        bottom = scale * bottoms[i]
        for j in range(i + 1):
            w = sum(map(operator.mul, row_a, rows[j])) * tops[j] / (bottom * bottoms[j])
            reduced[i, j] = w * inv_sqrt[i] * inv_sqrt[j]
    return reduced


def ritz_values(system: RitzSystem, count: int) -> list[float]:
    """The smallest `count` Ritz values (upper bounds for true eigenvalues)."""
    if not 1 <= count <= system.K:
        raise ConfigError(f"need 1 <= count <= K={system.K}")
    values = np.linalg.eigvalsh(_reduced_matrix(system))
    return [float(v) for v in values[:count]]
