"""Spectrum scanning and eigenfunction extraction.

Eigenvalues are located as zeros of the reduced boundary determinant
``det(N K(rho))`` swept in the root coordinate ``rho = Lambda^(1/2p)`` (it
oscillates roughly periodically in rho, not Lambda), bracketed by sign
changes and refined by regula falsi on the determinant itself, all of a
scan's brackets in lockstep.  ``N`` is an exact integer left null basis of
the boundary matrix's monomial block, which does not depend on rho, so the
reduced p x p determinant vanishes exactly where the n x n one does.
Eigenfunctions come from the same system at the refined eigenvalues, all
of them from one evaluation and one stacked SVD: the kernel coefficients
are the null direction of the p x p matrix ``R``, and the monomial
coefficients follow from the first n-p boundary rows through the exact
inverse of their monomial block.  An eigenfunction is a constant at each
of its 2p root frequencies ``i root`` plus a polynomial, so its
derivatives and operator image are read off those terms, and its norm,
mean and residual norms are closed-form integrals of them
(:func:`exppoly.bilinear`), with no ExpPoly product or canonical form.

The kernel rows K(rho) depend on p and the parity but not on n, so R has
one producer, ``reduced_matrices``, which evaluates several orders of one
(p, parity) at once: one ``exp`` and one kernel contraction for all of
them, and one contraction with their N, zero-padded to the largest n.  The
scan, its refinement, ``plotdata`` and extraction all read it, and the
orders a command needs are scanned as one family (``scan_family``).  Each
order walks its own samples up to its last bracket, and gets the roots and
metadata its own scan gives, bit for bit; ``scan_spectrum`` is the
one-order case.

A stored spectrum of order n-2 (same p and parity) interlaces the roots of
order n.  For p <= n-2, u -> u'' maps the clamped order-n functions of a
parity one to one onto the clamped order-(n-2) functions of that parity
with one vanishing moment (``int v = 0`` when symmetric, ``int x v = 0``
when antisymmetric: exactly what a clamped second antiderivative of the
parity needs), and it keeps the quotient ``|u^(n)|^2 / |u^(n-p)|^2``.  So
order n is order n-2 under one linear constraint, and min-max gives
``Lambda_k(n-2) <= Lambda_k(n) <= Lambda_(k+1)(n-2)``.  ``cached_spectra``
checks every store scan against the stored orders n-2 and n+2, which
witnesses each root's index; equality (a common eigenvalue of orders n
and n+2, which the paper rules out and ``disjoint`` looks for) passes.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import sys
from collections.abc import Generator, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DegenerateSystemError, NonSimpleEigenvalueError
from .errors import ScanExhaustedError, SolverError
from .exppoly import ExpPoly, Term, l2_norm_sq
from .problem import SYMMETRIC, ProblemSpec, kernel_columns, root_system

DEFAULT_SCAN_STEP = 0.25  # consecutive root coordinates lie at least 3.13 apart
DEFAULT_LAMBDA_CEILING = 200.0  # in the lambda = Lambda^(1/2p) coordinate
NULLSPACE_QUALITY_LIMIT = 1e-6
SIGN_TRUST_FACTOR = 10.0  # |det R| below this many first-order rounding bounds: sign is noise
SCAN_CHUNK = 64  # grid points per batched reduced-matrix evaluation
MAX_ROOT_GAP = 1.5 * math.pi  # consecutive roots lie about pi apart; 2 pi means one was skipped
MAX_GRID_POINTS = 100_000  # 125x the default scan grid of 200 / 0.25 points
INTERLACING_SLACK = 1e-9  # relative, in the root coordinate, of the store's interlacing check


@functools.cache
def boundary_tables(p: int, parity: str, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Constants of the first ``rows`` kernel rows of a (p, parity), as read-only arrays.

    Kernel entry ``(j, k)`` at ``rho`` is
    ``rho^j Re sum_s W[j, k, s] e^(rho exponents[k, s])`` with the power table
    ``W = kappa freq^j / 2`` of :func:`kernel_columns`.  ``weights``, shape
    ``(rows, p, 2 slots)``, holds W as the real pairs ``(Re W, -Im W)``, the
    real view of its conjugate, so the real part is one real contraction.
    ``exponents = freq - b``, shape ``(p, slots)``, has real part 0 or
    ``-2b``, so no term overflows.  A two-term column is padded with zero
    terms only where four-term columns share the table (p >= 3).  No entry
    depends on the order n, so the orders of a family read the leading rows
    of one table.  Its few hundred entries are formed in Python's complex
    arithmetic, whose integer powers and products give numpy's bits: in a
    fresh process a numpy routine costs 0.1-0.5 ms on its first call, more
    than the whole table.
    """
    columns = kernel_columns(p, parity == SYMMETRIC)
    slots = max(len(terms) for terms, _ in columns)
    padded = [(terms + ((0j, 0j),) * (slots - len(terms)), b) for terms, b in columns]
    weights = np.array([[[kappa * freq ** j / 2 for freq, kappa in terms] for terms, _ in padded]
                        for j in range(rows)])
    tables = (weights.conj().view(float),
              np.array([[freq - b for freq, _ in terms] for terms, b in padded]))
    for array in tables:
        array.setflags(write=False)
    return tables


def _monomial_block(spec: ProblemSpec) -> list[list[int]]:
    """M[j][m] = m!/(m-j)!, the j-th derivative at x = 1 of each parity monomial x^m."""
    return [[math.perm(m, j) for m in spec.monomial_degrees] for j in range(spec.n)]


def _eliminated(spec: ProblemSpec, upward: bool) -> list[list[int]]:
    """``[M | I]`` after fraction-free elimination on M's first n-p columns.

    Each column is cleared below its diagonal pivot, and above it too when
    ``upward`` (Gauss-Jordan); the rows below the pivots come out the same
    either way.
    """
    rows = [row + [int(i == j) for i in range(spec.n)]
            for j, row in enumerate(_monomial_block(spec))]
    for c in range(spec.n - spec.p):
        pivot = rows[c]
        for j in range(spec.n) if upward else range(c + 1, spec.n):
            if j != c and rows[j][c]:
                row = [pivot[c] * a - rows[j][c] * b for a, b in zip(rows[j], pivot)]
                divisor = math.gcd(*row)
                rows[j] = [v // divisor for v in row]
    return rows


@functools.cache
def monomial_annihilator(spec: ProblemSpec) -> tuple[tuple[int, ...], ...]:
    """Exact integer left null basis N, p rows of length n, of the monomial block M.

    ``M[j, m] = m!/(m-j)!`` is the j-th derivative of ``x^m`` at x = 1, so
    ``sum_j N[i][j] f^(j)(1)`` vanishes on every parity monomial.  The first
    n-p rows of M are nonsingular (falling factorials of distinct degrees are
    a Vandermonde matrix in disguise, and so is every leading block), so
    fraction-free elimination down M's columns, pivoting on the diagonal,
    turns its last p rows into zero rows.  The identity columns carried
    along record each as a primitive integer row of N, whose entry
    ``N[i][n-p+i]`` is made positive and whose entries past the first n-p
    are otherwise 0.  At p = n there are no monomials and N is the
    identity.  Every entry of N fits in 35 bits for n <= 12 and in 50 bits
    for n <= 15, so N is exact in floats for n <= 15; the antisymmetric
    (16, 2..4) reach 54-55 bits.
    """
    q = spec.n - spec.p
    basis = [row[q:] for row in _eliminated(spec, upward=False)[q:]]  # their M part is 0
    return tuple(tuple(v if row[q + i] > 0 else -v for v in row) for i, row in enumerate(basis))


@functools.cache
def monomial_inverse(spec: ProblemSpec) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of ``M_q``, the first n-p rows of the monomial block M; empty at p = n.

    Gauss-Jordan elimination leaves ``T M_q = diag(d)`` in the identity
    columns T carried along, so row c of the inverse is ``T_c / d_c``.  Only
    extraction reads it, so a scan runs no elimination above the pivots.
    """
    q = spec.n - spec.p
    rows = _eliminated(spec, upward=True)[:q]
    return tuple(tuple(Fraction(v, row[c]) for v in row[q:2 * q]) for c, row in enumerate(rows))


@functools.cache
def reduced_tables(
    specs: tuple[ProblemSpec, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """What a scan of these orders of one (p, parity) reads, as read-only arrays.

    The kernel tables (:func:`boundary_tables`) with the rows of the largest
    order, each order's N zero-padded to them, ``(orders, p, rows)``, each
    order's |N|, ``(p, n)``, the per-row sign-trust tolerances,
    ``(orders, 1, p)``, and the cofactor mask.  A normalised entry of row i
    of ``R = N K`` sums ``nnz(N_i)`` products of N with kernel rows, each a
    sum over the term slots, and every summand is at most 1 in size, so its
    rounding error is about ``(nnz(N_i) + slots) eps`` and that of the
    row's norm ``sqrt(p)`` times as much; a tolerance is
    ``SIGN_TRUST_FACTOR`` times that row error.  Row i of the mask, 0 on
    the diagonal and 1 elsewhere, picks the rows whose norms bound the
    cofactors of row i.
    """
    p, parity = specs[0].p, specs[0].parity
    if any((spec.p, spec.parity) != (p, parity) for spec in specs):
        raise ConfigError("the orders of a family share p and parity")
    rows = max(spec.n for spec in specs)
    weights, exponents = boundary_tables(p, parity, rows)
    error = sys.float_info.epsilon * math.sqrt(p)
    bases = [monomial_annihilator(spec) for spec in specs]
    magnitudes = tuple(np.array([[abs(v) for v in row] for row in basis], dtype=float)
                       for basis in bases)
    arrays = (
        np.array([[row + (0,) * (rows - len(row)) for row in basis] for basis in bases],
                 dtype=float),
        np.array([[[SIGN_TRUST_FACTOR * (sum(map(bool, row)) + exponents.shape[-1]) * error
                    for row in basis]] for basis in bases]),
        np.array([[float(k != i) for k in range(p)] for i in range(p)]),
    )
    for array in (*magnitudes, *arrays):
        array.setflags(write=False)
    return weights, exponents, arrays[0], magnitudes, *arrays[1:]


def _determinants(matrices: np.ndarray) -> np.ndarray:
    """det of each matrix of a ``(..., p, p)`` stack.

    For p <= 3 in closed form (at p = 1 the entry itself, which LAPACK's LU
    would take through a logarithm and round), by LAPACK above.
    """
    p = matrices.shape[-1]
    if p == 1:
        return matrices[..., 0, 0]
    if p == 2:
        return matrices[..., 0, 0] * matrices[..., 1, 1] - matrices[..., 0, 1] * matrices[..., 1, 0]
    if p == 3:
        (a, b, c), (d, e, f), (g, h, i) = ([matrices[..., r, k] for k in range(3)]
                                           for r in range(3))
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.linalg.det(matrices)


def _cofactor_bounds(matrices: np.ndarray, tolerances: np.ndarray, others: np.ndarray):
    """``sum_i tolerances_i prod_(k != i) |R_k|`` for each matrix of a ``(..., p, p)`` stack.

    ``tolerances``, ``(..., p)``, broadcasts against the stack's rows.
    Written out for p <= 3; above, each row norm is raised to its 0 or 1 in
    the mask ``others`` and the powers multiplied.
    """
    p = matrices.shape[-1]
    if p == 1:
        return tolerances[..., 0]
    norms = np.sqrt(np.einsum("...ik,...ik->...i", matrices, matrices))
    if p == 2:
        return tolerances[..., 0] * norms[..., 1] + tolerances[..., 1] * norms[..., 0]
    if p == 3:
        (first, second, third), (a, b, c) = ([x[..., i] for i in range(3)]
                                             for x in (norms, tolerances))
        return a * second * third + b * first * third + c * first * second
    cofactors = np.multiply.reduce(norms[..., None, :] ** others, axis=-1)
    return np.einsum("...i,...i->...", cofactors, tolerances)


def reduced_matrices(
    specs: tuple[ProblemSpec, ...], rho: Sequence[float]
) -> tuple[np.ndarray, dict[int, DegenerateSystemError], np.ndarray, np.ndarray]:
    """Each order's row-normalised ``R = N K(rho)`` at each point, an ``(orders, L, p, p)`` stack.

    The one producer of R.  ``K`` is the kernel block of the unscaled
    boundary matrix, row j holding the closed form ``sum c mu^j e^mu`` of
    each kernel function, and ``N`` is :func:`monomial_annihilator`: as
    ``N M = 0`` for the monomial block M, which does not depend on rho,
    ``det[K | M] = const * det(N K)`` with a nonzero constant, so det R has
    the boundary determinant's zeros, signs changing alike.  Row i is
    divided by ``sum_j |N_ij| rho^j``, the bound of its entries (a kernel
    function's ``sum |c mu^j| e^|Re mu|`` is ``rho^j``), so every entry lies
    in [-1, 1] while ``rho^(n-1)`` is finite.

    Kernel rows come from the power table (:func:`boundary_tables`): a
    point costs one complex ``exp`` per term and two real contractions for
    all the orders (the second applies their N, zero-padded to the largest
    n, and the powers ``rho^j`` at once), and raises no complex power.  The
    contractions are ``einsum`` calls, so each point's matrix is
    bit-identical whatever the batch it is evaluated in and whatever other
    orders share its kernel rows (a batched ``matmul`` may sum in an order
    that depends on the batch).  Each order's row bounds are summed over its
    own n columns only: summed over the padding, the contraction would group
    the terms differently and move the last bit.  Where the largest order's
    powers overflow, each order's padding powers are zeroed, as ``0 * inf``
    would fill its padding with nan.  Also returns the orders whose row
    bound underflows to 0 at a point (only where N's row is a single high
    power, as at p = n), each with its ``DegenerateSystemError`` (its
    matrices are then zero), and the powers ``powers[l, j]`` and kernel rows
    ``kernel[l, j, k]`` whose products are K.
    """
    smallest = min(rho)
    if not smallest > 0:
        raise ConfigError("the root coordinate must be positive")
    weights, exponents, basis, magnitudes, _, _ = reduced_tables(specs)
    rhos = np.asarray(rho, dtype=float)
    columns = np.arange(basis.shape[-1])
    powers = rhos[:, None] ** columns  # (L, rows)
    padded = powers[None]
    try:
        float(max(rho)) ** (basis.shape[-1] - 1)  # a numpy float gives inf instead
    except OverflowError:
        padded = np.where(columns < np.array([[[spec.n]] for spec in specs]), powers, 0.0)
    terms = np.exp(rhos[:, None, None] * exponents)  # (L, p, slots)
    kernel = np.einsum("jkt,lkt->ljk", weights, terms.view(float))
    matrices = np.einsum("oij,olj,ljk->olik", basis, padded, kernel)
    degenerate = {}
    for order, spec in enumerate(specs):
        scale = np.einsum("ij,lj->li", magnitudes[order], powers[:, :spec.n])
        if smallest < 1.0 and smallest ** (spec.n - 1) == 0.0 and not scale.all():  # underflow
            point, row = np.argwhere(scale == 0.0)[0]
            degenerate[order] = DegenerateSystemError(
                f"reduced boundary row {row} vanishes identically for {spec.label()}, "
                f"rho={rhos[point]}")
            matrices[order] = 0.0
        else:
            matrices[order] /= scale[..., None]
    return matrices, degenerate, powers, kernel


def _indicators(
    specs: tuple[ProblemSpec, ...], rho: Sequence[float]
) -> tuple[list[list[float]], list[list[bool]], dict[int, DegenerateSystemError]]:
    """Each order's det R and sign-trust flag at each point, and the degenerate orders.

    A sign is trusted when ``|det R|`` exceeds the bound
    ``sum_i tolerances_i prod_(k != i) |R_k|`` (:func:`reduced_tables`),
    ``SIGN_TRUST_FACTOR`` times the first-order change that the rounding
    errors of the rows can make in it, as each cofactor is at most the
    product of the other row norms (:func:`_cofactor_bounds`).  No division
    is taken, so a vanishing row gives det 0, which is never trusted.
    """
    matrices, degenerate, _, _ = reduced_matrices(specs, rho)
    values = _determinants(matrices)
    trusted = np.abs(values) > _cofactor_bounds(matrices, *reduced_tables(specs)[4:])
    return values.tolist(), trusted.tolist(), degenerate


def indicator_series(
    spec: ProblemSpec, lams: Iterable[float]
) -> Iterator[tuple[float, float, bool]]:
    """``(lam, det R, sign-trust flag)`` at each root coordinate ``lam = Lambda^(1/2p)``.

    ``lams`` is read lazily, ``SCAN_CHUNK`` points per batch of reduced
    matrices, so a caller that stops early has evaluated at most the rest of
    the chunk it stopped in.  The sign trust is :func:`_indicators`'.
    """
    points = iter(lams)
    while chunk := list(itertools.islice(points, SCAN_CHUNK)):
        (values,), (trusted,), degenerate = _indicators((spec,), chunk)
        if degenerate:
            raise degenerate[0]
        yield from zip(chunk, values, trusted)


@dataclass(frozen=True)
class EigenResiduals:
    det_indicator: float  # det R, the scan's reduced determinant, at Lambda
    nullspace_quality: float  # sigma_min(R) / max(sigma_max(R), 1) at Lambda; 0 in closed form
    operator_residual: float  # L2 norm of the operator applied to z
    operator_scale: float  # L2 norm of z^(2n)
    boundary_residual: float  # max |z^(j)(+-1)| over j < n
    boundary_scale: float  # magnitude bound of the worst derivative order


def _split(terms: Sequence[Term]) -> tuple[list[complex], list[complex], tuple[complex, ...]]:
    """A function's nonzero frequencies, the constant coefficient at each, and its polynomial part.

    An extracted eigenfunction has this shape (its frequencies are exactly
    ``i root``), and so has each of its derivatives and operator images.
    """
    mus, coeffs, poly = [], [], ()
    for mu, c in terms:
        if mu == 0:
            poly = c
        elif len(c) == 1:
            mus.append(mu)
            coeffs.append(c[0])
        else:
            raise ValueError(
                "a closed form needs a constant coefficient at every nonzero frequency")
    return mus, coeffs, poly


def _derivative(poly: tuple[complex, ...]) -> tuple[complex, ...]:
    """P' of a trimmed polynomial part, whose leading coefficient stays nonzero."""
    return tuple(k * c for k, c in enumerate(poly))[1:]


def _magnitude_bound(mus: list[complex], coeffs: list[complex], poly: tuple[complex, ...]) -> float:
    """``sum e^|Re mu| |c| + sum |p_k|``, an upper bound for sup |f| on [-1, 1]."""
    return (sum(math.exp(abs(mu.real)) * abs(c) for mu, c in zip(mus, coeffs))
            + sum(map(abs, poly)))


def _norm_sq(mus: list[complex], coeffs: list[complex], poly: Sequence[complex]) -> float:
    """``int |f|^2`` of a function in :func:`_split`'s form."""
    terms = [(mu, (c,)) for mu, c in zip(mus, coeffs)]
    if poly:
        terms.append((0j, tuple(poly)))
    return l2_norm_sq(ExpPoly(tuple(terms)))


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its eigenfunction and quality diagnostics.

    ``kernel_coeffs[j]`` is the coefficient of exp(i * root_j * x) in z,
    aligned with ``root_system(p, Lambda).roots``; ``poly_coeffs`` are
    the real coefficients of the polynomial part.  Both are read off z.
    ``derivatives`` is z's table (z, z', ..., z^(2n)), which the identity
    suite reads every operator image and derivative of z from, computed
    when first read.  ``det_indicator`` and ``nullspace_quality`` come from
    whoever built the pair, and a replaced copy keeps them; the operator and
    boundary residuals are computed in closed form from z's terms when
    ``residuals`` is first read, so they build no ExpPoly.
    """

    spec: ProblemSpec
    Lambda: float
    index: int
    z: ExpPoly
    det_indicator: float  # det R, the scan's reduced determinant, at Lambda
    nullspace_quality: float  # sigma_min(R) / max(sigma_max(R), 1) at Lambda; 0 in closed form
    normalized: bool = True

    @functools.cached_property
    def derivatives(self) -> tuple[ExpPoly, ...]:
        return self.z.derivatives(2 * self.spec.n)

    @functools.cached_property
    def residuals(self) -> EigenResiduals:
        """The operator and boundary residuals in closed form off z's terms (:func:`_split`).

        z^(j) is ``mu^j c`` at each frequency plus P^(j), each ``e^(+-mu)``
        is formed once, and each L2 norm is :func:`exppoly.l2_norm_sq` of
        those terms.
        The operator ``sigma^(2n-2p) (sigma^(2p) - Lambda)`` is
        ``(-1)^n d^(2n) - (-1)^(n-p) Lambda d^(2n-2p)``.
        """
        n, p = self.spec.n, self.spec.p
        mus, coeffs, poly = _split(self.z.terms)
        table = [(coeffs, poly)]
        for _ in range(2 * n):
            table.append(([mu * c for mu, c in zip(mus, table[-1][0])], _derivative(table[-1][1])))
        ends = [(x, [cmath.exp(mu * x) for mu in mus]) for x in (1.0, -1.0)]
        boundary = boundary_scale = 0.0
        for cs, ps in table[:n]:
            for x, values in ends:
                value = 0j
                for c in reversed(ps):
                    value = value * x + c
                boundary = max(boundary, abs(sum(map(operator.mul, cs, values), value)))
            boundary_scale = max(boundary_scale, _magnitude_bound(mus, cs, ps))
        (low, low_poly), (high, high_poly) = table[2 * (n - p)], table[2 * n]
        a = -self.Lambda if (n - p) % 2 == 0 else self.Lambda
        b = 1.0 if n % 2 == 0 else -1.0
        image_poly = [a * c for c in low_poly] + [0j] * (len(high_poly) - len(low_poly))
        for k, c in enumerate(high_poly):
            image_poly[k] += b * c
        image = _norm_sq(mus, [a * u + b * v for u, v in zip(low, high)], image_poly)
        return EigenResiduals(
            det_indicator=self.det_indicator,
            nullspace_quality=self.nullspace_quality,
            operator_residual=math.sqrt(max(image, 0.0)),
            operator_scale=math.sqrt(max(_norm_sq(mus, high, high_poly), 0.0)),
            boundary_residual=boundary,
            boundary_scale=boundary_scale,
        )

    @property
    def kernel_coeffs(self) -> tuple[complex, ...]:
        terms = dict(self.z.terms)  # z's frequencies are exactly i * root
        roots = root_system(self.spec.p, self.Lambda).roots
        return tuple(terms.get(1j * root, (0j,))[0] for root in roots)

    @property
    def poly_coeffs(self) -> tuple[float, ...]:
        return tuple(c.real for c in self.z.zero_frequency_coefficients())


def _sign(z: ExpPoly, mus: list[complex], coeffs: list[complex],
          poly: tuple[complex, ...]) -> float:
    """1 or -1, so that the first non-negligible candidate of z comes out positive.

    The candidates are <z>, the leading poly coefficient, z(0) and z'(0),
    read off z's terms in :func:`_split`'s form.  An antisymmetric z without
    monomials (n = p) has the first three 0 by parity; its z'(0) is not.
    """
    scale = max(_magnitude_bound(mus, coeffs, poly), 1e-300)
    candidates = (
        lambda: z.integrate_unit().real,
        lambda: poly[-1].real if poly else 0.0,
        lambda: (sum(coeffs) + sum(poly[:1])).real,
        lambda: (sum(map(operator.mul, mus, coeffs)) + sum(poly[1:2])).real,
    )
    for candidate in candidates:
        v = candidate()
        if abs(v) > 1e-9 * scale:
            return -1.0 if v < 0 else 1.0
    return 1.0


def _eigenfunction(spec: ProblemSpec, rho: float, kernel: list[float],
                   monomials: list[float]) -> ExpPoly:
    """z from its coefficients on the kernel functions and the parity monomials, normalised.

    Each kernel column's term ``(freq, kappa)`` at ``rho`` is
    ``kappa e^(-rho b) / 2`` times ``e^(rho freq x)``
    (:func:`problem.kernel_columns`); the columns that share a frequency
    add there, in column order, so z has one term per root plus the
    polynomial.  z is scaled to ``<z^(n-p) z^(n-p)> = 1`` and signed by
    :func:`_sign`, both closed-form integrals of these terms.
    """
    merged: dict[complex, complex] = {}
    for c, (column, depth) in zip(kernel, kernel_columns(spec.p, spec.symmetric)):
        h = 0.5 * np.exp(-rho * depth)  # math.exp differs from np.exp in the last bit at times
        for freq, kappa in column:
            mu, v = rho * freq, complex(c) * (kappa * h)
            merged[mu] = merged[mu] + v if mu in merged else v
    poly = [0j] * (2 * (spec.n - spec.p))
    for m, c in zip(spec.monomial_degrees, monomials):
        poly[m] = complex(c)
    while poly and poly[-1] == 0:
        poly.pop()
    terms: list[Term] = [(mu, (v,)) for mu, v in merged.items() if v != 0]
    if poly:
        terms.append((0j, tuple(poly)))
    terms.sort(key=lambda term: (term[0].real, term[0].imag))
    z = ExpPoly(tuple(terms))
    mus, coeffs, poly = _split(terms)
    w, w_poly = coeffs, poly
    for _ in range(spec.n - spec.p):
        w, w_poly = [mu * c for mu, c in zip(mus, w)], _derivative(w_poly)
    norm_sq = _norm_sq(mus, w, w_poly)
    if not norm_sq > 0:
        raise SolverError("degenerate normalization integral")
    return z.scaled(_sign(z, mus, coeffs, poly) / math.sqrt(norm_sq))


def extract_eigenfunctions(
    spec: ProblemSpec, eigenvalues: Sequence[float], first_index: int = 0
) -> list[EigenPair | SolverError]:
    """The eigenpair at each refined eigenvalue, indexed from ``first_index``, or its error.

    All of them read one reduced system, ``reduced_matrices`` at the root
    coordinates of the eigenvalues, and one stacked SVD: at each, the
    kernel coefficients ``a`` are the smallest right singular vector of
    ``R = N K`` and the monomial ones solve the first n-p boundary rows,
    ``b = -M_q^(-1) (K a)_q``; the other p rows hold as ``N [K | M] (a, b)``
    is ``R a`` up to row scaling.  An extraction fails when the null-space
    quality ``sigma_min(R) / max(sigma_max(R), 1)`` is poor (eigenvalue not
    refined enough) or, at p >= 2, when the next singular value is tiny too
    (the eigenvalue looks multiple; flagged rather than split).  A scan
    finds only roots of odd multiplicity, at most p, so each is simple at
    p <= 2.  Each pair is what its own extraction gives, bit for bit
    (numpy's stacked SVD and the einsum contractions are computed matrix by
    matrix); a row bound that underflows at any point fails them all.
    """
    rhos = [root_system(spec.p, Lambda).rho for Lambda in eigenvalues]
    (matrices,), degenerate, powers, kernel = reduced_matrices((spec,), rhos)
    if degenerate:
        return [degenerate[0]] * len(rhos)
    _, svals, vt = np.linalg.svd(matrices)
    determinants = _determinants(matrices).tolist()
    q = spec.n - spec.p
    inverse = np.array([[float(v) for v in row] for row in monomial_inverse(spec)]).reshape(q, q)
    outcomes: list[EigenPair | SolverError] = []
    for point, Lambda in enumerate(eigenvalues):
        smax = max(float(svals[point, 0]), 1.0)
        quality = float(svals[point, -1]) / smax
        if quality > NULLSPACE_QUALITY_LIMIT:
            outcomes.append(SolverError(
                f"null-space quality {quality:.3e} too poor at Lambda={Lambda!r} for "
                f"{spec.label()}; refine the eigenvalue first"))
            continue
        if spec.p >= 2 and float(svals[point, -2]) / smax < NULLSPACE_QUALITY_LIMIT:
            outcomes.append(NonSimpleEigenvalueError(
                f"two near-zero singular values at Lambda={Lambda!r} for {spec.label()}"))
            continue
        null = vt[point, -1]
        monomial_part = np.einsum("mj,j,jk,k->m", inverse, powers[point, :q], kernel[point, :q],
                                  null)
        try:
            z = _eigenfunction(spec, rhos[point], null.tolist(),
                               [-v for v in monomial_part.tolist()])
        except SolverError as exc:
            outcomes.append(exc)
            continue
        outcomes.append(EigenPair(spec, Lambda, first_index + point, z, determinants[point],
                                  quality))
    return outcomes


def extract_eigenfunction(spec: ProblemSpec, Lambda: float, index: int = -1) -> EigenPair:
    """The eigenpair at one refined eigenvalue: the one-pair case of :func:`extract_eigenfunctions`.

    z is scaled to ``<z^(n-p) z^(n-p)> = 1``; a failed extraction raises.
    """
    (outcome,) = extract_eigenfunctions(spec, [Lambda], index)
    if isinstance(outcome, SolverError):
        raise outcome
    return outcome


def eigenpair_from_function(
    spec: ProblemSpec, Lambda: float, z: ExpPoly, index: int = -1
) -> EigenPair:
    """Wrap a closed-form eigenfunction (any scaling) as an EigenPair."""
    (matrices,), degenerate, _, _ = reduced_matrices((spec,), [root_system(spec.p, Lambda).rho])
    if degenerate:
        raise degenerate[0]
    indicator = float(_determinants(matrices)[0])
    return EigenPair(spec, Lambda, index, z, indicator, 0.0, normalized=False)


@dataclass(frozen=True)
class ScanMetadata:
    grid_step: float
    bracket_count: int
    refinement_iterations: tuple[int, ...]  # determinant evaluations per refined root
    suspects: tuple[float, ...]  # lambda locations of sign-preserving near-zero dips
    lambda_ceiling: float
    untrusted_points: int = 0  # grid points whose det R is within its rounding bound


@dataclass(frozen=True)
class SpectrumSlice:
    spec: ProblemSpec
    eigenvalues: tuple[float, ...]
    metadata: ScanMetadata

    def __post_init__(self):
        for a, b in zip(self.eigenvalues, self.eigenvalues[1:]):
            if not b > a:
                raise SolverError(f"spectrum not strictly increasing: {a} !< {b}")


_Bracket = tuple[float, float, float, float]  # (a, f(a), b, f(b)): det R signs differ
_Refined = Generator[float, float, tuple[float, int]]  # yields trial points, returns (root, steps)


def _refine(a: float, ga: float, b: float, gb: float) -> _Refined:
    """Root in the sign-change bracket a < b, and the evaluations it took.

    A generator: it yields each trial point and is sent the function there,
    so a caller can evaluate the trial points of many brackets in one batch.
    Regula falsi with Anderson-Bjorck weights (BIT 13, 1973), started from
    the values ``ga`` and ``gb`` the caller holds at the ends.  Every trial
    point stays half the tolerance inside the bracket, so each step narrows
    it; an end kept twice running has its weight multiplied by
    ``m = 1 - g(x) / g(replaced end)``, or by 0.5 when ``m <= 0``.
    """
    wa, wb, side, evaluations = ga, gb, 0, 0  # interpolation weights, end replaced last
    while b - a > (tol := 1e-15 + 4e-15 * abs(b)):
        if evaluations == 100:
            raise SolverError(f"refinement did not converge in [{a!r}, {b!r}]")
        x = min(max(b - wb * (b - a) / (wb - wa), a + tol / 2), b - tol / 2)
        gx = yield x
        evaluations += 1
        if gx == 0.0:
            return x, evaluations
        if (gx > 0.0) == (gb > 0.0):
            if side == 1:
                wa *= _anderson_bjorck(gx, gb)
            b, gb, wb, side = x, gx, gx, 1
        else:
            if side == -1:
                wb *= _anderson_bjorck(gx, ga)
            a, ga, wa, side = x, gx, gx, -1
    return (a if abs(ga) < abs(gb) else b), evaluations


def _anderson_bjorck(gx: float, replaced: float) -> float:
    """The kept end's weight factor when the trial ``gx`` replaces an end of value ``replaced``."""
    m = 1.0 - gx / replaced
    return m if m > 0.0 else 0.5


def _refine_all(
    specs: tuple[ProblemSpec, ...], brackets: Sequence[tuple[int, _Bracket]]
) -> list[tuple[float, int] | SolverError]:
    """Each ``(order, bracket)``'s ``_refine`` outcome: its (root, evaluations), or its error.

    The brackets of every order advance in lockstep, one step each per
    round, and a round evaluates det R at the trial points of every live
    bracket through one stack of reduced matrices and one stacked
    determinant, and each bracket reads its own order's: a scan pays one
    batched call per round rather than one per step.
    """
    steps = [_refine(*bracket) for _, bracket in brackets]
    outcomes: dict[int, tuple[float, int] | SolverError] = {}
    trials: dict[int, float] = {}  # live bracket -> its pending trial point

    def advance(i: int, value: float | None) -> None:
        try:
            trials[i] = steps[i].send(value)
        except StopIteration as done:
            outcomes[i] = done.value
        except SolverError as exc:
            outcomes[i] = exc

    for i in range(len(steps)):
        advance(i, None)
    while trials:
        live, points = zip(*trials.items())
        trials.clear()
        # a trial point lies above a trusted grid point of its own order, so no
        # row bound of that order vanishes there
        values = _determinants(reduced_matrices(specs, points)[0]).tolist()
        for point, i in enumerate(live):
            advance(i, values[brackets[i][0]][point])
    return [outcomes[i] for i in range(len(steps))]


_Sample = tuple[float, float, bool]  # (lam, det R, sign trusted)
_Walked = tuple[list[_Bracket], list[float], int]  # (brackets, suspects, untrusted samples)


def _walk(wanted: int) -> Generator[None, _Sample | None, _Walked]:
    """The first ``wanted`` sign-change brackets among ``(lam, det R, trusted)`` samples.

    A generator: it is sent the samples in grid order and ``None`` where the
    grid ends, so a scan walks each chunk as it is evaluated and resumes on
    the next.  A bracket joins consecutive trusted samples of opposite sign;
    an untrusted sample's sign is roundoff noise (N cancels the nearly
    polynomial kernel columns as Lambda -> 0, or a root is close by), so
    nothing is bracketed against it.  It returns at the ``wanted``-th
    bracket or at the end of the grid: the brackets, the sign-preserving
    near-zero dips (suspected double roots) and the untrusted sample count.
    """
    brackets: list[_Bracket] = []
    suspects: list[float] = []
    untrusted = 0
    run = 0  # trusted samples in a row, up to the latest one
    # the latest trusted sample (lambda1, f1, |f1|), kept across untrusted points
    # (f1 = 0.0 before the first, which brackets nothing), and (f0, |f0|) before it
    lam1 = f1 = size1 = f0 = size0 = 0.0

    while len(brackets) < wanted and (sample := (yield)) is not None:
        lam, f, trusted = sample
        if not trusted:
            untrusted += 1
            run = 0
            continue
        size = abs(f)
        if f1 * f < 0.0:
            brackets.append((lam1, f1, lam, f))
        if (
            run >= 2
            and f0 * f > 0.0
            and size1 < size0
            and size1 < size
            and size1 <= 1e-8 * max(size0, size)
        ):
            suspects.append(lam1)
        f0, size0, lam1, f1, size1 = f1, size1, lam, f, size
        run += 1
    return brackets, suspects, untrusted


def scan_spectrum(
    spec: ProblemSpec,
    count: int,
    *,
    step: float = DEFAULT_SCAN_STEP,
    lambda_ceiling: float = DEFAULT_LAMBDA_CEILING,
) -> SpectrumSlice:
    """First ``count`` parity eigenvalues whose root coordinate lies below the ceiling.

    Brackets come from sign changes of the reduced determinant det R on a
    uniform grid in lambda = Lambda^(1/2p) whose last sample is the ceiling itself,
    between consecutive grid points whose sign is trusted.  The grid pass
    stops at the ``count``-th bracket, and then every bracket is refined to
    ~1e-15 relative in lambda, all in lockstep (``_refine_all``).  Consecutive
    roots lie about pi apart, so a gap over ``MAX_ROOT_GAP`` raises
    ``SolverError`` rather than report a spectrum with a skipped root.
    Sign-preserving near-zero dips are recorded as suspected double roots
    instead of being split heuristically.  A grid of more than
    ``MAX_GRID_POINTS`` points is a ``ConfigError``.  This is the one-order
    case of :func:`scan_family`.
    """
    (outcome,) = scan_family([spec], count, step=step, lambda_ceiling=lambda_ceiling)
    if isinstance(outcome, SolverError):
        raise outcome
    return outcome


def scan_family(
    specs: Sequence[ProblemSpec],
    count: int,
    *,
    step: float = DEFAULT_SCAN_STEP,
    lambda_ceiling: float = DEFAULT_LAMBDA_CEILING,
) -> list[SpectrumSlice | SolverError]:
    """:func:`scan_spectrum` of each order of one (p, parity), all of them in one lockstep.

    Each order gets the slice its own scan returns, or the ``SolverError``
    it raises, bit for bit.  Every grid chunk is evaluated once for all the
    orders (:func:`reduced_matrices`), each order walks its own samples
    (:func:`_walk`) until its ``count``-th bracket, the grid ends when every
    walk has, and the brackets of every order are refined together
    (:func:`_refine_all`).  An invalid count, step or grid is a
    ``ConfigError`` for all of them.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    if step <= 0:
        raise ConfigError("scan step must be positive")
    if lambda_ceiling / step > MAX_GRID_POINTS:
        raise ConfigError(
            f"a scan grid of {lambda_ceiling / step:.3g} points exceeds {MAX_GRID_POINTS}: "
            "lower --lambda-max or raise --step"
        )

    def grid() -> Iterator[float]:
        lam = step
        while lam < lambda_ceiling:
            yield lam
            lam += step
        yield lambda_ceiling

    specs = tuple(specs)
    outcomes: dict[int, SpectrumSlice | SolverError] = {}
    walks = {order: _walk(count) for order in range(len(specs))}
    for walk in walks.values():
        next(walk)
    walked: dict[int, _Walked] = {}

    def send(order: int, samples: Iterable[_Sample | None]) -> None:
        try:
            for sample in samples:
                walks[order].send(sample)
        except StopIteration as done:
            walked[order] = done.value
            del walks[order]

    points = grid()
    while walks:
        chunk = list(itertools.islice(points, SCAN_CHUNK))
        if not chunk:
            for order in list(walks):
                send(order, [None])
            break
        values, trusted, degenerate = _indicators(specs, chunk)
        for order in list(walks):
            if order in degenerate:
                outcomes[order] = degenerate[order]
                del walks[order]
            else:
                send(order, zip(chunk, values[order], trusted[order]))

    brackets = [(order, bracket) for order in sorted(walked) for bracket in walked[order][0]]
    refined = iter(_refine_all(specs, brackets))
    for order in sorted(walked):
        spec, (found, suspects, untrusted_points) = specs[order], walked[order]
        try:
            roots, iterations = _roots(spec, [next(refined) for _ in found])
            eigenvalues = tuple(root ** (2 * spec.p) for root in roots)
            if len(roots) < count:
                raise ScanExhaustedError(spec, eigenvalues, count, lambda_ceiling)
            metadata = ScanMetadata(
                grid_step=step,
                bracket_count=len(roots),
                refinement_iterations=iterations,
                suspects=tuple(suspects),
                lambda_ceiling=lambda_ceiling,
                untrusted_points=untrusted_points,
            )
            outcomes[order] = SpectrumSlice(spec=spec, eigenvalues=eigenvalues, metadata=metadata)
        except SolverError as exc:
            outcomes[order] = exc
    return [outcomes[order] for order in range(len(specs))]


def _roots(
    spec: ProblemSpec, refined: list[tuple[float, int] | SolverError]
) -> tuple[list[float], tuple[int, ...]]:
    """One order's refined roots and evaluations; the first failure, or a skipped root, raises."""
    found: list[float] = []
    iterations: list[int] = []
    for outcome in refined:
        if isinstance(outcome, SolverError):
            raise outcome
        root, evaluations = outcome
        if found and root - found[-1] > MAX_ROOT_GAP:
            raise SolverError(
                f"root coordinate gap {(root - found[-1]) / math.pi:#.3g} pi from "
                f"{found[-1]!r} to {root!r} for {spec.label()}: a root was skipped"
            )
        iterations.append(evaluations)
        found.append(root)
    return found, tuple(iterations)


@dataclass
class _Order:
    """What the store knows of one (n, p, parity): an eigenvalue prefix and its pairs."""

    eigenvalues: tuple[float, ...] = ()
    pairs: dict[int, EigenPair] = field(default_factory=dict)
    exhausted_at: float | None = None  # ceiling a scan ran out of grid at, after `eigenvalues`


_STORE: dict[tuple[int, int, str], _Order] = {}


def cached_spectra(
    ns: Iterable[int], p: int, parity: str, count: int
) -> dict[int, tuple[float, ...] | SolverError]:
    """First ``count`` eigenvalues of each order n of ``ns`` at (p, parity), or its scan's error.

    Each order is scanned once, and rescanned only when a caller asks for a
    longer prefix than it holds; the orders that need a scan are scanned
    together (:func:`scan_family`).  The store is append-only: a rescan
    adds only the indices past the stored prefix, which it reproduces bit
    for bit, so every value the store has returned, and each eigenpair
    extracted at one, stays as it was.  In ascending n, every scan is
    checked against the stored orders n-2 and n+2 (:func:`_check_interlacing`)
    before the store keeps it.  An order whose scan or check fails is not
    kept, so asking for it again scans it again and fails alike.  A scan
    that runs out of grid keeps the roots it found, and a later request for
    more gets the error a fresh scan would, without scanning again.
    """
    # an invalid order raises before the store gains an entry
    specs = [ProblemSpec(n, p, parity) for n in sorted(set(ns))]
    orders = {spec: _STORE.setdefault((spec.n, p, parity), _Order()) for spec in specs}
    spectra: dict[int, tuple[float, ...] | SolverError] = {}
    stale = []
    for spec, order in orders.items():
        if 0 < count <= len(order.eigenvalues):
            spectra[spec.n] = order.eigenvalues[:count]
        elif order.exhausted_at is not None and count > 0:
            spectra[spec.n] = ScanExhaustedError(spec, order.eigenvalues, count, order.exhausted_at)
        else:
            stale.append(spec)
    if stale:
        for spec, outcome in zip(stale, scan_family(stale, count)):
            spectra[spec.n] = _keep(spec, orders[spec], outcome, count)
    return spectra


def _keep(
    spec: ProblemSpec, order: _Order, outcome: SpectrumSlice | SolverError, count: int
) -> tuple[float, ...] | SolverError:
    """Store a scan's roots past the held prefix if they interlace; the prefix, or the error."""
    exhausted = isinstance(outcome, ScanExhaustedError)
    if isinstance(outcome, SolverError) and not exhausted:
        return outcome
    try:
        _check_interlacing(spec, outcome.eigenvalues)
    except SolverError as exc:
        return exc
    order.eigenvalues += outcome.eigenvalues[len(order.eigenvalues):]
    if exhausted:
        order.exhausted_at = outcome.ceiling
        return outcome
    return order.eigenvalues[:count]


def cached_spectrum(n: int, p: int, parity: str, count: int) -> tuple[float, ...]:
    """First ``count`` eigenvalues of (n, p, parity): :func:`cached_spectra` of the one order."""
    spectrum = cached_spectra((n,), p, parity, count)[n]
    if isinstance(spectrum, SolverError):
        raise spectrum
    return spectrum


def _check_interlacing(spec: ProblemSpec, eigenvalues: Sequence[float]) -> None:
    """Raise ``SolverError`` unless ``eigenvalues`` interlace the stored orders n-2 and n+2.

    For a lower order l and l+2 (same p and parity, l >= p) the chain
    ``Lambda_0(l), Lambda_0(l+2), Lambda_1(l), Lambda_1(l+2), ...`` ascends
    (module docstring), as far as both prefixes reach.  Each step may fall
    back by ``INTERLACING_SLACK`` relative in the root coordinate, so a root
    shared by the two orders passes; the comparison is made in Lambda.
    """
    slack = (1.0 + INTERLACING_SLACK) ** (2 * spec.p)
    for n in (spec.n - 2, spec.n + 2):
        stored = _STORE.get((n, spec.p, spec.parity))
        if n < spec.p or stored is None:
            continue
        (low, lower), (high, upper) = sorted([(spec.n, eigenvalues), (n, stored.eigenvalues)])
        # Lambda_k(low) <= Lambda_k(high), and Lambda_k(high) <= Lambda_(k+1)(low)
        pairs = [((low, k, lower[k]), (high, k, upper[k]))
                 for k in range(min(len(lower), len(upper)))]
        pairs += [((high, k, upper[k]), (low, k + 1, lower[k + 1]))
                  for k in range(min(len(lower) - 1, len(upper)))]
        for (order_a, i, a), (order_b, j, b) in pairs:
            if a > b * slack:
                label_a, label_b = (ProblemSpec(m, spec.p, spec.parity).label()
                                    for m in (order_a, order_b))
                raise SolverError(f"Lambda_{i} = {a!r} of {label_a} exceeds Lambda_{j} = {b!r} "
                                  f"of {label_b}: the two orders do not interlace")


def _stored_pairs(n: int, p: int, parity: str, indices: range) -> list[EigenPair]:
    """Eigenpairs ``indices`` of (n, p, parity), each extracted once.

    The pairs the store lacks are extracted in one batch, from the first of
    them to the end of ``indices`` (:func:`extract_eigenfunctions`, which
    gives each pair as alone); the first failure raises, and the pairs
    before it are kept.
    """
    eigenvalues = cached_spectrum(n, p, parity, indices.stop)
    pairs = _STORE[(n, p, parity)].pairs
    first = next((i for i in indices if i not in pairs), None)
    if first is not None:
        batch = extract_eigenfunctions(ProblemSpec(n, p, parity),
                                       eigenvalues[first:indices.stop], first)
        for i, outcome in enumerate(batch, first):
            if isinstance(outcome, SolverError):
                raise outcome
            pairs.setdefault(i, outcome)
    return [pairs[i] for i in indices]


def cached_eigenpair(n: int, p: int, parity: str, index: int) -> EigenPair:
    """Eigenpair ``index`` of (n, p, parity), extracted once."""
    (pair,) = _stored_pairs(n, p, parity, range(index, index + 1))
    return pair
