"""Problem family: operator, characteristic roots, and parity-adapted bases.

The eigenvalue problem on [-1, 1] is driven by the constant-coefficient
operator ``(-1)^n d^{2n} - Lambda (-1)^{n-p} d^{2n-2p}`` acting on functions
clamped to order n-1 at both endpoints.  In terms of ``sigma = i d/dx`` the
operator is the polynomial ``sigma^{2n-2p} (sigma^{2p} - Lambda)``, so its
kernel splits into exponentials at the 2p complex roots of
``lambda^{2p} = Lambda`` plus a polynomial of bounded degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .exppoly import ExpPoly, SigmaPolynomial

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
PARITIES = (SYMMETRIC, ANTISYMMETRIC)


@dataclass(frozen=True)
class ProblemSpec:
    """One eigenvalue problem: derivative order n, quotient offset p, parity."""

    n: int
    p: int
    parity: str = SYMMETRIC

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.p, int)):
            raise ConfigError("n and p must be integers")
        if not 1 <= self.p <= self.n:
            raise ConfigError(f"need 1 <= p <= n, got n={self.n}, p={self.p}")
        if self.parity not in PARITIES:
            raise ConfigError(f"parity must be one of {PARITIES}, got {self.parity!r}")

    @property
    def symmetric(self) -> bool:
        return self.parity == SYMMETRIC

    @property
    def has_stones(self) -> bool:
        """Stone machinery is defined only for n > p."""
        return self.n > self.p

    @property
    def monomial_degrees(self) -> tuple[int, ...]:
        """Degrees of the n-p monomials of the parity solution basis."""
        return tuple(range(0 if self.symmetric else 1, 2 * (self.n - self.p), 2))

    def label(self) -> str:
        return f"(n={self.n}, p={self.p}, {'sym' if self.symmetric else 'antisym'})"


@dataclass(frozen=True)
class RootSystem:
    """The 2p roots of lambda^{2p} = Lambda, ordered by angle pi*j/p."""

    Lambda: float
    p: int
    rho: float
    roots: tuple[complex, ...]

    def upper_half_representatives(self) -> tuple[complex, ...]:
        """One root per conjugate pair, Im > 0, angle ascending (p-1 of them)."""
        return tuple(self.roots[j] for j in range(1, self.p))


def _root(p: int, j: int, rho: float) -> complex:
    # first-quadrant roots from cos/sin, with exact axis values that keep the
    # real/imaginary classification sharp; every other root is an exact
    # negation or conjugate of one, so mirror roots agree to the last bit
    if j >= p:
        return 0.0 - _root(p, j - p, rho)  # unlike unary minus, keeps a zero part +0.0
    if 2 * j > p:
        return -_root(p, p - j, rho).conjugate()
    if j == 0:
        return complex(rho, 0.0)
    if 2 * j == p:
        return complex(0.0, rho)
    theta = math.pi * j / p
    return complex(rho * math.cos(theta), rho * math.sin(theta))


def root_system(p: int, Lambda: float) -> RootSystem:
    if p < 1:
        raise ConfigError("p must be >= 1")
    if not Lambda > 0:
        raise ConfigError("Lambda must be positive")
    rho = Lambda ** (1.0 / (2 * p))
    roots = tuple(_root(p, j, rho) for j in range(2 * p))
    return RootSystem(Lambda=Lambda, p=p, rho=rho, roots=roots)


def build_operator(spec: ProblemSpec, Lambda: float) -> SigmaPolynomial:
    """The problem operator as sigma^{2n-2p} (sigma^{2p} - Lambda)."""
    if not Lambda > 0:
        raise ConfigError("Lambda must be positive")
    coeffs = [0j] * (2 * spec.n + 1)
    coeffs[2 * spec.n] = 1.0 + 0j
    coeffs[2 * spec.n - 2 * spec.p] = complex(-Lambda)
    return SigmaPolynomial(tuple(coeffs))


def reduced_operator(spec: ProblemSpec, Lambda: float, order: int) -> SigmaPolynomial:
    """sigma^{2*order-2p} (sigma^{2p} - Lambda) for p <= order <= n, same Lambda."""
    if not spec.p <= order <= spec.n:
        raise ConfigError(f"order must lie in [p, n], got {order}")
    return build_operator(ProblemSpec(order, spec.p, spec.parity), Lambda)


Column = tuple[tuple[tuple[complex, complex], ...], float]  # ((freq, kappa) terms, depth b)


@functools.cache
def kernel_columns(p: int, symmetric: bool) -> tuple[Column, ...]:
    """The p real kernel functions of a parity at ``rho = 1``: each one's terms and depth.

    For each root ``a + ib`` with ``a, b >= 0`` the kernel holds the products
    of a trig factor in ``a x`` and a hyperbolic factor in ``b x`` that have
    the parity, scaled by ``exp(-b)`` so every function stays O(1) in value
    on [-1, 1].  The real root (``b = 0``) gives cos or sin alone, the
    imaginary root (``a = 0``) cosh or sinh alone, and every other root a
    pair of four-term functions.  Roots with ``a < 0`` repeat these.

    At ``rho`` a column's term ``(freq, kappa)`` is ``c e^(mu x)`` with
    ``mu = rho freq`` and ``c = kappa e^(-rho b) / 2``, where ``b`` is the
    column's depth (0 for the real root).  Both are stored as ``complex``, so
    every reader does complex arithmetic on them, whatever their value.
    """
    # (sign of a in mu, kappa) per term of cos(ax), sin(ax) at h = 1/2 ...
    trig = {True: ((-1, 1), (1, 1)), False: ((-1, 1j), (1, -1j))}
    # ... and (sign of b in mu, kappa) per term of e^(-b) cosh(bx), e^(-b) sinh(bx)
    hyp = {True: ((-1, 1), (1, 1)), False: ((-1, -1), (1, 1))}
    columns = []
    for j in range(p // 2 + 1):  # the first-quadrant roots
        root = _root(p, j, 1.0)
        a, b = root.real, root.imag
        if b == 0.0:
            functions = [[(1j * s * a, k) for s, k in trig[symmetric]]]
        elif a == 0.0:
            functions = [[(s * b, k) for s, k in hyp[symmetric]]]
        else:  # sym: cos cosh, sin sinh; antisym: sin cosh, cos sinh
            functions = [[(t * b + 1j * s * a, 0.5 * k * w)
                          for s, k in trig[even == symmetric] for t, w in hyp[even]]
                         for even in (True, False)]
        columns += [(tuple((complex(f), complex(k)) for f, k in terms), b) for terms in functions]
    return tuple(columns)


def solution_basis(spec: ProblemSpec, Lambda: float) -> tuple[ExpPoly, ...]:
    """The p kernel functions of :func:`kernel_columns` at Lambda, then the n-p parity monomials.

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
