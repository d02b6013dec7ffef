"""Problem family: operator, characteristic roots, and parity-adapted bases.

The eigenvalue problem on [-1, 1] is driven by the constant-coefficient
operator ``(-1)^n d^{2n} - Lambda (-1)^{n-p} d^{2n-2p}`` acting on functions
clamped to order n-1 at both endpoints.  In terms of ``sigma = i d/dx`` the
operator is the polynomial ``sigma^{2n-2p} (sigma^{2p} - Lambda)``, so its
kernel splits into exponentials at the 2p complex roots of
``lambda^{2p} = Lambda`` plus a polynomial of bounded degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    def poly_dimension(self) -> int:
        """Number of monomials in the parity solution basis."""
        return self.n - self.p

    def label(self) -> str:
        return f"(n={self.n}, p={self.p}, {'sym' if self.symmetric else 'antisym'})"


@dataclass(frozen=True)
class RootSystem:
    """The 2p roots of lambda^{2p} = Lambda, ordered by angle pi*j/p."""

    Lambda: float
    p: int
    rho: float
    roots: tuple[complex, ...]

    @property
    def has_imaginary_pair(self) -> bool:
        return self.p % 2 == 0

    def upper_half_representatives(self) -> tuple[complex, ...]:
        """One root per conjugate pair, Im > 0, angle ascending (p-1 of them)."""
        return tuple(self.roots[j] for j in range(1, self.p))

    def quadruple_representatives(self) -> tuple[complex, ...]:
        """First-quadrant representatives of strictly-complex quadruples."""
        return tuple(self.roots[j] for j in range(1, (self.p + 1) // 2))


def _root(p: int, j: int, rho: float) -> complex:
    # exact axis values keep the real/imaginary classification sharp
    if j % (2 * p) == 0:
        return complex(rho, 0.0)
    if j == p:
        return complex(-rho, 0.0)
    if 2 * j == p:
        return complex(0.0, rho)
    if 2 * j == 3 * p:
        return complex(0.0, -rho)
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


@dataclass(frozen=True)
class SolutionBasis:
    """Parity-restricted solution space: p kernel functions + n-p monomials."""

    spec: ProblemSpec
    Lambda: float
    kernel_functions: tuple[ExpPoly, ...]
    kernel_scales: tuple[float, ...]
    kernel_labels: tuple[str, ...]
    monomials: tuple[ExpPoly, ...] = field(default=())

    @property
    def functions(self) -> tuple[ExpPoly, ...]:
        return self.kernel_functions + self.monomials

    @property
    def size(self) -> int:
        return len(self.kernel_functions) + len(self.monomials)


def solution_basis(spec: ProblemSpec, Lambda: float) -> SolutionBasis:
    """Real kernel basis + parity monomials.

    Hyperbolically growing functions carry a baked-in scale exp(-b) (exp(-rho)
    for the pure hyperbolic pair) so every basis function stays O(1) on
    [-1, 1]; cosh(rho) alone overflows near rho ~ 700 and ruins determinant
    scaling much earlier.
    """
    rs = root_system(spec.p, Lambda)
    rho, p = rs.rho, spec.p
    kernel: list[ExpPoly] = []
    scales: list[float] = []
    labels: list[str] = []

    def push(fn: ExpPoly, scale: float, label: str):
        kernel.append(fn)
        scales.append(scale)
        labels.append(label)

    if spec.symmetric:
        push(ExpPoly.cosine(rho), 1.0, "cos")
    else:
        push(ExpPoly.sine(rho), 1.0, "sin")
    for lam in rs.upper_half_representatives():
        a, b = lam.real, lam.imag
        if a == 0.0:  # imaginary pair -> pure hyperbolic function
            s = math.exp(-rho)
            if spec.symmetric:
                push(ExpPoly.hyperbolic_cosine(rho, s), s, "cosh")
            else:
                push(ExpPoly.hyperbolic_sine(rho, s), s, "sinh")
        elif a > 0.0:  # first-quadrant quadruple representative
            s = math.exp(-b)
            if spec.symmetric:
                push(ExpPoly.cosine(a) * ExpPoly.hyperbolic_cosine(b, s), s, "cos*cosh")
                push(ExpPoly.sine(a) * ExpPoly.hyperbolic_sine(b, s), s, "sin*sinh")
            else:
                push(ExpPoly.sine(a) * ExpPoly.hyperbolic_cosine(b, s), s, "sin*cosh")
                push(ExpPoly.cosine(a) * ExpPoly.hyperbolic_sine(b, s), s, "cos*sinh")

    offset = 0 if spec.symmetric else 1
    monomials = tuple(
        ExpPoly.monomial(2 * k + offset) for k in range(spec.poly_dimension)
    )
    return SolutionBasis(
        spec=spec,
        Lambda=Lambda,
        kernel_functions=tuple(kernel),
        kernel_scales=tuple(scales),
        kernel_labels=tuple(labels),
        monomials=monomials,
    )
