"""Exact algebra for exponential-polynomial functions on [-1, 1].

An :class:`ExpPoly` is a finite sum of terms ``P(x) * exp(mu * x)`` with
complex frequency ``mu`` and complex polynomial coefficients.  The class is
closed under differentiation, multiplication and application of polynomials
in ``sigma = i * d/dx``, and definite integrals over [-1, 1] have a closed
form, so every identity check in this package can be evaluated without
quadrature.  Derivatives have one producer, the table of
:meth:`ExpPoly.derivatives`, and an operator in sigma is applied to such a
table (:meth:`SigmaPolynomial.apply`): an eigenpair's norm, sign,
residuals and identity checks all read them.  The integral of a product of
two such functions is one sum over their term pairs (:func:`bilinear`),
which forms no product: every inner product and norm taken of an
eigenpair, in extraction and in the identity suite, is that sum, over
moment tables of ``x^k e^(s x)`` memoised by frequency sum and degree.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

FREQ_MERGE_TOL = 1e-12   # |mu1 - mu2| <= tol * (1 + |mu1|) -> same frequency
SERIES_FREQ_CUTOFF = 1e-3  # below this, x^k exp(mu x) integrals use the power series
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)  # i^k by k mod 4, exact

Term = tuple[complex, tuple[complex, ...]]


def _trim(coeffs: list[complex]) -> tuple[complex, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _canonical(raw: list[Term]) -> tuple[Term, ...]:
    """Merge near-identical frequencies, drop zero terms, sort deterministically."""
    pending = sorted(
        ((complex(mu), [complex(c) for c in coeffs]) for mu, coeffs in raw),
        key=lambda t: (t[0].real, t[0].imag),
    )
    merged: list[tuple[complex, list[complex]]] = []
    for mu, coeffs in pending:
        if merged:
            ref = merged[-1][0]
            if abs(mu - ref) <= FREQ_MERGE_TOL * (1.0 + abs(ref)):
                acc = merged[-1][1]
                if len(coeffs) > len(acc):
                    acc.extend([0.0 + 0.0j] * (len(coeffs) - len(acc)))
                for k, c in enumerate(coeffs):
                    acc[k] += c
                continue
        if abs(mu) <= FREQ_MERGE_TOL:
            mu = 0.0 + 0.0j
        merged.append((mu, coeffs))
    out = []
    for mu, coeffs in merged:
        trimmed = _trim(coeffs)
        if trimmed:
            out.append((mu, trimmed))
    return tuple(out)


@functools.cache
def _int_xk_exp(mu: complex, dmax: int) -> tuple[complex, ...]:
    """Closed-form integrals I_k = int_{-1}^{1} x^k exp(mu x) dx for k = 0..dmax, memoised.

    Three regimes:

    * ``mu == 0``: elementary monomial integrals.
    * ``|mu| < 1e-3``: truncated power series (the recurrences cancel
      catastrophically as mu -> 0).
    * otherwise a split recurrence anchored at the exact
      ``I_0 = (e^mu - e^-mu)/mu``: upward steps while ``k < |mu|`` (growth
      factor k/|mu| < 1), downward Miller-style steps for ``k > |mu|``
      (factor |mu|/j < 1).  A single-direction pass is unstable: the pure
      downward recurrence amplifies mid-stream roundoff by up to
      ``max_j |mu|^j / j! ~ e^|mu|``, which already loses half the digits of
      an oscillatory integral at |mu| ~ 15.

    The downward pass starts above ``dmax``, so a table's bits may depend
    on ``dmax``: the memo keeps one table per (mu, dmax).
    """
    amu = abs(mu)
    if amu == 0.0:
        return tuple(complex(2.0 / (k + 1)) if k % 2 == 0 else 0j for k in range(dmax + 1))
    if amu < SERIES_FREQ_CUTOFF:
        out = []
        for k in range(dmax + 1):
            j = k % 2
            term = mu**j / math.factorial(j)
            acc = 0j
            while True:
                t = term * (2.0 / (k + j + 1))
                acc += t
                term = term * mu * mu / ((j + 1) * (j + 2))
                j += 2
                if j > 6 and abs(t) <= 1e-18 * max(abs(acc), 1e-300):
                    break
            out.append(acc)
        return tuple(out)

    e_pos, e_neg = cmath.exp(mu), cmath.exp(-mu)

    def endpoint(j: int) -> complex:
        # [x^j e^{mu x}]_{-1}^{1} / mu
        return (e_pos - e_neg) / mu if j % 2 == 0 else (e_pos + e_neg) / mu

    out = [0j] * (dmax + 1)
    k_split = min(dmax, max(0, int(amu) - 1))
    acc = (e_pos - e_neg) / mu
    out[0] = acc
    for k in range(1, k_split + 1):
        acc = endpoint(k) - (k / mu) * acc
        out[k] = acc
    if k_split < dmax:
        # Guess error at the highest kept index decays by prod_{j>dmax}(|mu|/j);
        # indices below dmax only decay further.
        start = dmax + 1
        decay = math.log(amu / start)
        while decay > -52.0:
            start += 1
            decay += math.log(amu / start)
        acc = 0j
        for j in range(start, k_split + 1, -1):
            if j <= dmax:
                out[j] = acc
            acc = (mu / j) * (endpoint(j) - acc)
        out[k_split + 1] = acc
    return tuple(out)


@dataclass(frozen=True)
class ExpPoly:
    """Canonical sum of terms ``P_i(x) * exp(mu_i * x)`` with distinct mu_i."""

    terms: tuple[Term, ...] = ()

    # ----- constructors -------------------------------------------------

    @staticmethod
    def build(raw_terms) -> "ExpPoly":
        return ExpPoly(_canonical(list(raw_terms)))

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly(())

    @staticmethod
    def constant(c) -> "ExpPoly":
        return ExpPoly.build([(0j, (complex(c),))])

    @staticmethod
    def monomial(degree: int, coeff=1.0) -> "ExpPoly":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return ExpPoly.build([(0j, (0j,) * degree + (complex(coeff),))])

    @staticmethod
    def cosine(w: float) -> "ExpPoly":
        return ExpPoly.build([(complex(0, w), (0.5 + 0j,)), (complex(0, -w), (0.5 + 0j,))])

    # ----- basic algebra -------------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly.build(list(self.terms) + list(other.terms))

    def __neg__(self) -> "ExpPoly":
        return ExpPoly(tuple((mu, tuple(-c for c in coeffs)) for mu, coeffs in self.terms))

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def scaled(self, factor) -> "ExpPoly":
        z = complex(factor)
        if z == 0:
            return ExpPoly.zero()
        return ExpPoly(tuple((mu, tuple(z * c for c in coeffs)) for mu, coeffs in self.terms))

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        raw: list[Term] = []
        for mu1, c1 in self.terms:
            for mu2, c2 in other.terms:
                prod = [0j] * (len(c1) + len(c2) - 1)
                for i, a in enumerate(c1):
                    for j, b in enumerate(c2):
                        prod[i + j] += a * b
                raw.append((mu1 + mu2, tuple(prod)))
        return ExpPoly.build(raw)

    # ----- calculus ------------------------------------------------------

    def differentiate(self, order: int = 1) -> "ExpPoly":
        """Exact derivative of the given order, the last entry of ``derivatives``."""
        return self.derivatives(order)[-1]

    def derivatives(self, order: int) -> tuple["ExpPoly", ...]:
        """The table (f, f', ..., f^(order)): (P e^{mu x})' = (P' + mu P) e^{mu x}, term by term.

        A constant term steps by one multiplication, ``c -> mu c``; a term
        that vanishes is dropped, and a polynomial's trailing zeros trimmed.
        """
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        table = [self]
        terms = self.terms
        for _ in range(order):
            stepped: list[Term] = []
            for mu, coeffs in terms:
                if len(coeffs) == 1:
                    c = mu * coeffs[0]
                    if c:
                        stepped.append((mu, (c,)))
                elif coeffs:
                    out = [mu * a + k * b for k, (a, b) in enumerate(zip(coeffs, coeffs[1:]), 1)]
                    out.append(mu * coeffs[-1])
                    if out := _trim(out):
                        stepped.append((mu, out))
            terms = tuple(stepped)
            table.append(ExpPoly(terms))
        return tuple(table)

    def evaluate(self, x) -> complex:
        total = 0j
        for mu, coeffs in self.terms:
            p = 0j
            for c in reversed(coeffs):
                p = p * x + c
            total += p * cmath.exp(mu * x)
        return total

    def integrate_unit(self) -> complex:
        """Exact integral over [-1, 1] via the closed form for x^k e^{mu x}."""
        total = 0j
        for mu, coeffs in self.terms:
            table = _int_xk_exp(mu, len(coeffs) - 1)
            for k, c in enumerate(coeffs):
                if c != 0:
                    total += c * table[k]
        return total

    # ----- structure -----------------------------------------------------

    def conjugate(self) -> "ExpPoly":
        return ExpPoly.build(
            [(mu.conjugate(), tuple(c.conjugate() for c in coeffs)) for mu, coeffs in self.terms]
        )

    def magnitude_bound(self) -> float:
        """Upper bound for sup |f| on [-1, 1]; 0 only for the zero function."""
        return sum(
            math.exp(abs(mu.real)) * sum(abs(c) for c in coeffs) for mu, coeffs in self.terms
        )

    def zero_frequency_coefficients(self) -> tuple[complex, ...]:
        for mu, coeffs in self.terms:
            if mu == 0:
                return coeffs
        return ()

    def nonzero_frequency_part(self) -> "ExpPoly":
        return ExpPoly(tuple((mu, coeffs) for mu, coeffs in self.terms if mu != 0))

    def zero_frequency_part(self) -> "ExpPoly":
        return ExpPoly(tuple((mu, coeffs) for mu, coeffs in self.terms if mu == 0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mu, coeffs in self.terms:
            poly = " + ".join(f"({c:.6g})x^{k}" if k else f"({c:.6g})" for k, c in enumerate(coeffs))
            bits.append(f"[{poly}]e^({mu:.6g}x)")
        return " + ".join(bits)


@dataclass(frozen=True)
class SigmaPolynomial:
    """Polynomial in sigma = i * d/dx, coefficients in ascending powers."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        trimmed = list(self.coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        if not trimmed or trimmed[-1] == 0:
            raise ValueError("sigma polynomial must have a nonzero leading coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in trimmed))

    @staticmethod
    def sigma_power(k: int) -> "SigmaPolynomial":
        return SigmaPolynomial((0j,) * k + (1 + 0j,))

    @staticmethod
    def from_roots(roots) -> "SigmaPolynomial":
        """The monic polynomial prod (sigma - r) over the roots."""
        coeffs = [1 + 0j]
        for r in roots:
            z = complex(r)
            coeffs = [0j] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] -= z * coeffs[k + 1]
        return SigmaPolynomial(tuple(coeffs))

    def __mul__(self, other: "SigmaPolynomial") -> "SigmaPolynomial":
        prod = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return SigmaPolynomial(tuple(prod))

    def apply(self, derivatives: Sequence[ExpPoly]) -> ExpPoly:
        """The image of f, read from f's table (f, f', ..., f^(d)), d >= degree.

        sigma^k f = i^k f^(k) with the exact factors 1, i, -1, -i: nothing is
        differentiated.  The rows share f's frequencies, and no row is longer
        than the one before it at any of them, so each frequency's
        coefficients are summed row by row in one pass, then trimmed and
        sorted once, with the bits a sum of canonical ExpPolys gives.
        """
        sums: dict[complex, list[complex]] = {}
        for k, c in enumerate(self.coeffs):
            if c != 0:
                factor = c * _I_POWERS[k % 4]
                for mu, coeffs in derivatives[k].terms:
                    if mu in sums:
                        acc = sums[mu]
                        for j, v in enumerate(coeffs):
                            acc[j] += factor * v
                    else:
                        sums[mu] = [factor * v for v in coeffs]
        terms = [(mu, _trim(acc)) for mu, acc in sums.items()]
        return ExpPoly(tuple(sorted((term for term in terms if term[1]),
                                    key=lambda term: (term[0].real, term[0].imag))))


def bilinear(f_terms: Sequence[Term], g_terms: Sequence[Term]) -> complex:
    """``int_{-1}^{1} f g dx`` of two term sequences, without forming the product.

    Term pair by term pair, ``P e^(mu x)`` and ``Q e^(nu x)`` add
    ``sum_i p_i sum_j q_j I_(i+j)`` with ``I = _int_xk_exp(mu + nu, deg P + deg Q)``;
    two constants, as most of an eigenpair's terms are, add ``p_0 (q_0 I_0)``.
    """
    total = 0j
    for mu, p in f_terms:
        for nu, q in g_terms:
            table = _int_xk_exp(mu + nu, len(p) + len(q) - 2)
            if len(table) == 1:
                total += p[0] * (q[0] * table[0])
            else:
                total += sum(a * sum(map(operator.mul, q, table[i:])) for i, a in enumerate(p))
    return total


def inner_product(f: ExpPoly, g: ExpPoly) -> complex:
    """Bilinear <f g> = int_{-1}^{1} f(x) g(x) dx (no conjugation)."""
    return bilinear(f.terms, g.terms)


def hermitian_inner_product(f: ExpPoly, g: ExpPoly) -> complex:
    """Sesquilinear int f * conj(g) dx."""
    conjugate = [(mu.conjugate(), tuple(c.conjugate() for c in coeffs)) for mu, coeffs in g.terms]
    return bilinear(f.terms, conjugate)


def l2_norm_sq(f: ExpPoly) -> float:
    """Squared L2 norm on [-1, 1]; imaginary residue is discarded."""
    return hermitian_inner_product(f, f).real
