"""Stones, stone polynomials, moments, brackets, and the identity suite.

For an eigenpair (Lambda, z) of order n with offset p < n, repeatedly
peeling two derivative orders off the operator leaves polynomial residues:

* the stone polynomials ``h^k = (-1)^k [reduced operator of order n-k-1](z)``
  of a symmetric pair are even polynomials of degree 2k, one residue per k;
* their constant terms c_0, c_1, ... extend the stone ``c = c_0``, which
  never vanishes on a true eigenfunction;
* moments ``a_k = <z x^{2k}/(2k)!>`` pair with stone coefficients through a
  signed convolution bracket.

Every checkable relation between these objects is exposed here as a pure
function returning an :class:`IdentityReport`.  All relations are
homogeneous in each eigenfunction, so normalized and unnormalized pairs
verify identically.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, IdentityViolationError
from .exppoly import ExpPoly, SigmaPolynomial, hermitian_inner_product, inner_product, l2_norm_sq
from .problem import reduced_operator, root_system
from .reporting import (
    FAIL,
    PASS,
    IdentityReport,
    equality_report,
    not_applicable,
    relative_residual,
)
from .solver import EigenPair, _stored_pairs, cached_spectrum

STONE_FLOOR = 1e-6  # |stone| must exceed this times the natural scale
ANNIHILATION_TOL = 1e-9
COEFF_CONSISTENCY_TOL = 1e-9
DEFAULT_IDENTITY_TOL = 1e-8


def lambda_sq(pair: EigenPair) -> float:
    """Square of the positive real characteristic root, Lambda^(1/p)."""
    return root_system(pair.spec.p, pair.Lambda).rho ** 2


def annihilation_factor(pair: EigenPair, order: int) -> SigmaPolynomial:
    """Half-factorization A_order = sigma^{order-p-1}(sigma^2 - lambda0^2) prod(sigma - lambda_i).

    ``lambda_i`` runs over one representative per conjugate root pair (upper
    half plane, angle ascending); conjugating the coefficients gives the
    other half.  The product of the two halves is the reduced operator
    sigma^{2 order - 2p}(sigma^{2p} - Lambda) with one factor sigma^2
    replaced by (sigma^2 - lambda0^2).  Requires order >= p + 1.
    """
    p = pair.spec.p
    if order < p + 1:
        raise ValueError(f"annihilation factor needs order >= p+1, got {order}")
    rs = root_system(p, pair.Lambda)
    roots = [complex(rs.rho), complex(-rs.rho)]
    roots.extend(rs.upper_half_representatives())
    factor = SigmaPolynomial.from_roots(roots)
    if order - p - 1 > 0:
        factor = SigmaPolynomial.sigma_power(order - p - 1) * factor
    return factor


@functools.cache
def _half_image(pair: EigenPair, order: int) -> tuple[ExpPoly, float]:
    """A_order(z) and its squared norm ||A_order(z)||^2, computed once per (pair, order)."""
    image = annihilation_factor(pair, order).apply(pair.derivatives)
    return image, l2_norm_sq(image)


@functools.cache
def _reduced_image(pair: EigenPair, order: int) -> tuple[ExpPoly, float]:
    """The reduced operator's image of z, and how well it kills the kernel part.

    The residual is the image's kernel residue relative to the size the
    kernel part would have there without cancellation.  Computed once per
    (pair, order); the guards that read it stay with the callers.
    """
    image = reduced_operator(pair.spec, pair.Lambda, order).apply(pair.derivatives)
    scale = pair.derivatives[2 * order].nonzero_frequency_part().magnitude_bound()
    return image, image.nonzero_frequency_part().magnitude_bound() / max(scale, 1e-300)


def _mean_negligible(pair: EigenPair, mean: float) -> bool:
    """Whether <z> = ``mean`` is ~0 against the size of z."""
    return abs(mean) <= 1e-12 * max(pair.z.magnitude_bound(), 1e-300)


def kernel_annihilation_residual(pair: EigenPair) -> float:
    """How well the order-(n-1) reduced operator kills the kernel part, relative to its size."""
    return _reduced_image(pair, pair.spec.n - 1)[1]


@dataclass(frozen=True)
class StonePolynomials:
    """h^0..h^kmax plus the coefficient ladder c_0..c_kmax."""

    polynomials: tuple[ExpPoly, ...]
    coefficients: tuple[float, ...]

    def h(self, k: int) -> ExpPoly:
        """h^k with the zero convention for negative k."""
        if k < 0:
            return ExpPoly.zero()
        return self.polynomials[k]


def _residues(pair: EigenPair) -> tuple[ExpPoly, ...]:
    """h^k = (-1)^k times the polynomial residue of the order-(n-k-1) reduced image, k = 0..n-p-1.

    Read off the cached reduced images with no check of the eigenpair.
    """
    spec = pair.spec
    if not spec.symmetric:
        raise ValueError("stone polynomials are defined on symmetric eigenpairs")
    if not spec.has_stones:
        raise ValueError(f"stone polynomials undefined for n = p = {spec.n}")
    residues = (_reduced_image(pair, spec.n - k - 1)[0].zero_frequency_part()
                for k in range(spec.n - spec.p))
    return tuple(h if k % 2 == 0 else h.scaled(-1.0) for k, h in enumerate(residues))


def _ladder_coefficient(h: ExpPoly, power: int) -> float:
    """(power)! times h's x^power coefficient: c_(k - power/2) when h = h^k."""
    coeffs = h.zero_frequency_coefficients()
    return coeffs[power].real * math.factorial(power) if power < len(coeffs) else 0.0


def stone_coefficients(pair: EigenPair) -> tuple[float, ...]:
    """c_0..c_(n-p-1), each h^k's constant term, unchecked.

    The collision follow-up reads these, so a manufactured candidate (a
    Lambda deliberately inconsistent with z) is measured, not refused.
    """
    return tuple(_ladder_coefficient(h, 0) for h in _residues(pair))


@functools.cache
def stone_polynomials(pair: EigenPair) -> StonePolynomials:
    """Stone polynomials h^k = (-1)^k [order n-k-1 reduced operator](z), k = 0..n-p-1, checked.

    Each reduced operator must annihilate the kernel part to
    ``ANNIHILATION_TOL`` and h^0 must have degree <= 1.  The expansion
    h^k = sum_j c_j x^{2(k-j)}/(2(k-j))! is overdetermined: every admissible
    k re-derives each c_j, and the extractions must agree to
    ``COEFF_CONSISTENCY_TOL`` relative or the eigenpair is rejected.
    Computed once per pair; a rejection is raised on every call.
    """
    spec = pair.spec
    hs = _residues(pair)
    for order in range(spec.n - 1, spec.p - 1, -1):  # h^0's first
        if _reduced_image(pair, order)[1] > ANNIHILATION_TOL:
            raise IdentityViolationError(
                f"kernel not annihilated by reduced operator (order {order}) for "
                f"{spec.label()}, Lambda={pair.Lambda!r}: bad eigenpair"
            )
    degree = len(hs[0].zero_frequency_coefficients()) - 1
    if degree > 1:
        raise IdentityViolationError(f"stone residue has degree {degree} > 1")
    coefficients = tuple(_ladder_coefficient(h, 0) for h in hs)
    for j, c in enumerate(coefficients):
        for k in range(j + 1, len(hs)):
            v = _ladder_coefficient(hs[k], 2 * (k - j))
            if relative_residual(v, c) > COEFF_CONSISTENCY_TOL:
                raise IdentityViolationError(
                    f"stone coefficient c_{j} disagrees between h^{j} and h^{k}: {c!r} vs {v!r}"
                )
    return StonePolynomials(polynomials=hs, coefficients=coefficients)


def stone(pair: EigenPair) -> float:
    """The stone c_0: the constant residue of the order-(n-1) reduced operator."""
    return stone_polynomials(pair).coefficients[0]


@functools.cache
def _z_dot_h(pair: EigenPair, k: int) -> float:
    """<z h^k>, computed once per (pair, k); h^k is zero for k < 0."""
    return inner_product(pair.z, stone_polynomials(pair).h(k)).real


@functools.cache
def _moment(pair: EigenPair, k: int) -> float:
    """<z x^{2k}/(2k)!>, computed once per (pair, k)."""
    return inner_product(pair.z, ExpPoly.monomial(2 * k)).real / math.factorial(2 * k)


def moments(pair: EigenPair, k_max: int) -> list[float]:
    """Weighted moments <z x^{2k}/(2k)!> for k = 0..k_max."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return [_moment(pair, k) for k in range(k_max + 1)]


def bracket(f, g, k: int) -> float:
    """Signed convolution (f, g)_k = (-1)^k sum_{i+j=k} f_i g_j; zero for k < 0."""
    if k < 0:
        return 0.0
    if k >= len(f) or k >= len(g):
        raise IndexError(f"bracket index {k} needs {k + 1} entries, got {len(f)} and {len(g)}")
    acc = 0.0
    for i in range(k + 1):
        acc += f[k - i] * g[i]
    return (-1) ** k * acc


# --------------------------------------------------------------------------
# identity checks
# --------------------------------------------------------------------------


def check_stone_identity(pair: EigenPair, tol: float = DEFAULT_IDENTITY_TOL) -> IdentityReport:
    """Norm of the half-factorized operator image vs -lambda^2 * stone * <z>."""
    spec = pair.spec
    if not spec.has_stones:
        return not_applicable("stone-identity", (spec.n, spec.p), notes="n = p")
    lhs = _half_image(pair, spec.n)[1]
    c = stone(pair)
    mean = _moment(pair, 0)
    rhs = -lambda_sq(pair) * c * mean
    notes = ""
    if _mean_negligible(pair, mean):
        notes = "mean of z is ~0: identity forces a vanishing norm (lemma-relevant anomaly)"
    return equality_report(
        "stone-identity",
        (spec.n, spec.p, pair.index),
        lhs,
        rhs,
        tol,
        notes=notes,
        details={"stone": c, "mean": mean, "normalized": pair.normalized},
    )


def check_cross_identity(
    z_prev: EigenPair, pair: EigenPair, tol: float = DEFAULT_IDENTITY_TOL
) -> IdentityReport:
    """(Lambda_{n-1} - Lambda_n) <z_n^(n-p-1) z_{n-1}^(n-p-1)> = stone_n <z_{n-1}>."""
    spec, prev = pair.spec, z_prev.spec
    if prev.p != spec.p or prev.n != spec.n - 1:
        raise ValueError("cross identity needs same p and orders differing by one")
    if not spec.has_stones:
        return not_applicable("cross-order", (spec.n, spec.p), notes="n = p")
    order = spec.n - spec.p - 1
    coupling = inner_product(pair.derivatives[order], z_prev.derivatives[order]).real
    lhs = (z_prev.Lambda - pair.Lambda) * coupling
    mean_prev = _moment(z_prev, 0)
    rhs = stone(pair) * mean_prev
    notes = ""
    if _mean_negligible(z_prev, mean_prev):
        notes = "lower-order mean ~0: both sides must vanish (degenerate instance)"
    return equality_report(
        "cross-order",
        (prev.n, spec.n, spec.p, z_prev.index, pair.index),
        lhs,
        rhs,
        tol,
        notes=notes,
        details={
            "coupling": coupling,
            "mean_prev": mean_prev,
            "normalized": (z_prev.normalized, pair.normalized),
        },
    )


def _derivative(pair: EigenPair, order: int) -> ExpPoly:
    """z^(order) off the table, or past z^(2n) (partner orders m >= 3n + 2p + 2) walked on."""
    table = pair.derivatives
    return table[order] if order < len(table) else table[-1].differentiate(order - len(table) + 1)


def check_bilinear_family(
    zn: EigenPair,
    zm: EigenPair,
    k: int,
    tol: float = DEFAULT_IDENTITY_TOL,
) -> IdentityReport:
    """Two-route check of the order-bridging bilinear identity at shift k.

    Direct route: <z_m h_n^k> - (-1)^Delta <z_n h_m^{k+Delta}> against
    (Lambda_m - Lambda_n) (-1)^k <z_n^(n-p-k-1) z_m^(n-p-k-1)>.  Bracket
    route: (b,c)_k - (a,d)_{k+Delta} against the same right side without the
    (-1)^k factor.  The direct left side is (-1)^k times the bracket left
    side, checked as the route consistency, so the bracket route has one
    sign convention.
    """
    sn, sm = zn.spec, zm.spec
    if sn.p != sm.p:
        raise ValueError("bilinear family needs equal p")
    if sm.n <= sn.n:
        raise ValueError("bilinear family needs m > n")
    if not (sn.symmetric and sm.symmetric):
        raise ValueError("bilinear family is defined on symmetric eigenpairs")
    p = sn.p
    delta_order = sm.n - sn.n
    q = delta_order // 2
    k_lo, k_hi = -1 - q, sn.n - p - 1
    if not k_lo <= k <= k_hi:
        return not_applicable(
            "bilinear",
            (sn.n, sm.n, p, k),
            notes=f"k outside [{k_lo}, {k_hi}]",
        )

    sp_n = stone_polynomials(zn) if sn.has_stones else None
    sp_m = stone_polynomials(zm)
    lhs_direct = (
        (inner_product(zm.z, sp_n.h(k)).real if k >= 0 else 0.0)  # h_n^k = 0 for k < 0
        - (-1) ** delta_order * inner_product(zn.z, sp_m.h(k + delta_order)).real
    )
    d_ord = sn.n - p - k - 1
    coupling = inner_product(_derivative(zn, d_ord), _derivative(zm, d_ord)).real
    gap = zm.Lambda - zn.Lambda
    rhs_direct = gap * (-1) ** k * coupling

    b = moments(zm, max(k, 0))
    a = moments(zn, k + delta_order)
    c = sp_n.coefficients if sn.has_stones else ()
    d = sp_m.coefficients
    lhs_bracket = bracket(b, c, k) - bracket(a, d, k + delta_order)

    rel_direct = relative_residual(lhs_direct, rhs_direct)
    rel_bracket = relative_residual(lhs_bracket, gap * coupling)
    translation = relative_residual(lhs_direct, (-1) ** k * lhs_bracket)

    ok = rel_direct <= tol and rel_bracket <= tol and translation <= COEFF_CONSISTENCY_TOL
    return IdentityReport(
        identity_id="bilinear",
        index=(sn.n, sm.n, p, k, zn.index, zm.index),
        lhs=lhs_direct,
        rhs=rhs_direct,
        abs_residual=abs(lhs_direct - rhs_direct),
        rel_residual=rel_direct,
        verdict=PASS if ok else FAIL,
        details={
            "bracket_lhs": lhs_bracket,
            "bracket_rel_residual": rel_bracket,
            "route_consistency": translation,
            "normalized": (zn.normalized, zm.normalized),
        },
    )


def check_positivity_family(
    pair: EigenPair, k: int, tol: float = DEFAULT_IDENTITY_TOL
) -> IdentityReport:
    """Three-route evaluation of the strictly positive stepped-norm quantity.

    (i) squared norm of the order-(n-k) half-factor image of z;
    (ii) (-1)^(k-1) <z h^(k-1)> - (-1)^k lambda^2 <z h^k>;
    (iii) (a,c)_{k-1} - lambda^2 (a,c)_k via moments and brackets.
    All three must agree and be strictly positive.
    """
    spec = pair.spec
    if not spec.has_stones or not spec.symmetric:
        return not_applicable("positivity", (spec.n, spec.p, k), notes="needs symmetric n > p")
    if not 0 <= k <= spec.n - spec.p - 1:
        return not_applicable(
            "positivity", (spec.n, spec.p, k), notes=f"k outside [0, {spec.n - spec.p - 1}]"
        )
    lam2 = lambda_sq(pair)
    v_norm = _half_image(pair, spec.n - k)[1]
    sp = stone_polynomials(pair)
    ip_prev = _z_dot_h(pair, k - 1)
    ip_cur = _z_dot_h(pair, k)
    v_h = (-1) ** (k - 1) * ip_prev - (-1) ** k * lam2 * ip_cur
    a = moments(pair, k)
    v_bracket = bracket(a, sp.coefficients, k - 1) - lam2 * bracket(a, sp.coefficients, k)
    scale = max(abs(v_norm), abs(ip_prev) + lam2 * abs(ip_cur), 1e-300)
    rel_nh = relative_residual(v_norm, v_h)
    rel_nb = relative_residual(v_norm, v_bracket)
    rel_hb = relative_residual(v_h, v_bracket)
    agree = max(rel_nh, rel_nb, rel_hb)
    positive = min(v_norm, v_h, v_bracket) > 1e-9 * scale
    return IdentityReport(
        identity_id="positivity",
        index=(spec.n, spec.p, k, pair.index),
        lhs=v_norm,
        rhs=v_h,
        abs_residual=abs(v_norm - v_h),
        rel_residual=agree,
        verdict=PASS if (agree <= tol and positive) else FAIL,
        notes="" if positive else "positivity margin violated",
        details={
            "norm_route": v_norm,
            "h_route": v_h,
            "bracket_route": v_bracket,
            "positivity_margin": min(v_norm, v_h, v_bracket) / scale,
            "normalized": pair.normalized,
        },
    )


def check_cauchy_schwarz(zn: EigenPair, zm: EigenPair, l: int, k: int) -> IdentityReport:
    """|<u, v>|^2 <= ||u||^2 ||v||^2 for the two half-factor images.

    u = A_{mu-2k+l}(z_m), v = A_{n-l}(z_n) with mu = n + 2*floor((m-n)/2).
    Equality only when the images are proportional (flagged).  Index ranges
    follow the conditional-collision system; out-of-range indices are
    not-applicable.
    """
    sn, sm = zn.spec, zm.spec
    if sn.p != sm.p:
        raise ValueError("needs equal p")
    if sm.n < sn.n:
        raise ValueError("needs m >= n")
    p = sn.p
    delta_order = sm.n - sn.n
    q = delta_order // 2
    delta = delta_order - 2 * q
    mu_order = sn.n + 2 * q
    idx = (sn.n, sm.n, p, l, k)
    if not 0 <= l <= sn.n - p - 1:
        return not_applicable("cauchy-schwarz", idx, notes="l out of range")
    if not 0 <= k <= sn.n - p - 1 + q:
        return not_applicable("cauchy-schwarz", idx, notes="k out of range")
    if not -delta <= 2 * k - l <= sn.n - p - 1 + 2 * q:
        return not_applicable("cauchy-schwarz", idx, notes="2k-l out of range")
    other = mu_order - 2 * k + l
    if other < p + 1 or sn.n - l < p + 1:
        return not_applicable("cauchy-schwarz", idx, notes="operator order below p+1")
    u, u_norm_sq = _half_image(zm, other)
    v, v_norm_sq = _half_image(zn, sn.n - l)
    lhs = abs(hermitian_inner_product(u, v)) ** 2
    rhs = u_norm_sq * v_norm_sq
    slack = rhs - lhs
    proportional = slack <= 1e-10 * max(rhs, 1e-300)
    ok = lhs <= rhs * (1.0 + 1e-10)
    return IdentityReport(
        identity_id="cauchy-schwarz",
        index=idx,
        lhs=lhs,
        rhs=rhs,
        abs_residual=max(lhs - rhs, 0.0),
        rel_residual=max(lhs - rhs, 0.0) / max(rhs, 1e-300),
        verdict=PASS if ok else FAIL,
        notes="proportional (equality case)" if proportional else "",
        details={"slack": slack, "proportional": proportional},
    )


def check_root_completeness(pair: EigenPair) -> IdentityReport:
    """Every characteristic root must appear in the kernel with a nonzero weight.

    A root's weight is its term's size on [-1, 1], ``|c| e^|Im root|``, taken
    in logarithms: the kernel template scales a root of depth b by
    ``e^(-rho b)``, so raw ``|c|`` would fall like ``e^(-rho)``.
    """
    roots = root_system(pair.spec.p, pair.Lambda).roots
    sizes = [math.log(abs(c)) + abs(root.imag) if c else -math.inf
             for c, root in zip(pair.kernel_coeffs, roots)]
    top = max(sizes)
    if top == -math.inf:
        return IdentityReport(
            identity_id="root-completeness",
            index=(pair.spec.n, pair.spec.p, pair.index),
            verdict=FAIL,
            notes="kernel part is empty",
        )
    ratios = tuple(math.exp(size - top) for size in sizes)
    worst = min(ratios)
    return IdentityReport(
        identity_id="root-completeness",
        index=(pair.spec.n, pair.spec.p, pair.index),
        lhs=worst,
        rhs=1e-8,
        abs_residual=0.0,
        rel_residual=0.0,
        verdict=PASS if worst > 1e-8 else FAIL,
        notes=f"min/max kernel weight ratio {worst:.3e}",
        details={"weight_ratios": ratios},
    )


def square_variable_derivative(order: int) -> tuple[Fraction, ...]:
    """Exact t_{kj} of (d/d(x^2))^k = sum_j t_{kj} x^{j-2k} d^j; index j-1 holds j = 1..k."""
    if order < 1:
        raise ValueError("order must be >= 1")
    t = [Fraction(1, 2)]  # k = 1: (1/(2x)) d
    for k in range(1, order):
        nxt = [Fraction(0)] * (k + 1)
        for j0, val in enumerate(t):
            j = j0 + 1
            nxt[j0] += Fraction(j - 2 * k, 2) * val
            nxt[j] += Fraction(1, 2) * val
        t = nxt
    return tuple(t)


def _xi_derivative_at_one(table: Sequence[ExpPoly], order: int) -> tuple[float, float]:
    """(value, magnitude scale) of (d/d(x^2))^order f at x = 1, from f's table (f, f', ...)."""
    if order == 0:
        return table[0].evaluate(1.0).real, table[0].magnitude_bound()
    value = 0.0
    scale = 0.0
    for deriv, t in zip(table[1:], square_variable_derivative(order)):  # j = 1..order
        value += float(t) * deriv.evaluate(1.0).real
        scale += abs(float(t)) * deriv.magnitude_bound()
    return value, scale


def check_xi_derivatives(pair: EigenPair) -> IdentityReport:
    """Kernel flatness in the squared variable xi = x^2 at xi = 1.

    For an order-n eigenfunction the kernel part R satisfies
    d^k R / d xi^k |_{xi=1} = 0 for k = n-p .. n-1: the polynomial part,
    rewritten in powers of (x^2 - 1), cannot reach those orders.  The
    clamped conditions themselves are re-verified on the full z for
    k = 0 .. n-1 (the xi-form is equivalent to the x-form).
    """
    spec = pair.spec
    if not spec.symmetric:
        return not_applicable(
            "xi-flatness", (spec.n, spec.p, pair.index), notes="defined for symmetric pairs"
        )
    kernel = tuple(d.nonzero_frequency_part() for d in pair.derivatives[:spec.n])
    worst_rel = 0.0
    values = {}
    checks = [("kernel", kernel, k) for k in range(spec.n - spec.p, spec.n)]
    checks += [("full", pair.derivatives, k) for k in range(spec.n)]
    for name, table, k in checks:
        value, scale = _xi_derivative_at_one(table, k)
        values[f"{name}_k{k}"] = value
        worst_rel = max(worst_rel, abs(value) / max(scale, 1e-300))
    return IdentityReport(
        identity_id="xi-flatness",
        index=(spec.n, spec.p, pair.index),
        lhs=worst_rel,
        rhs=1e-8,
        abs_residual=worst_rel,
        rel_residual=worst_rel,
        verdict=PASS if worst_rel <= 1e-8 else FAIL,
        details=values,
    )


def gamma_expansion(pair: EigenPair) -> list[float]:
    """Polynomial part re-expanded in powers of (x^2 - 1), exact round trip."""
    spec = pair.spec
    if not spec.symmetric:
        raise ValueError("expansion in (x^2 - 1) powers needs a symmetric pair")
    if not spec.has_stones:
        raise ValueError("no polynomial part for n = p")
    coeffs = pair.poly_coeffs
    g = [coeffs[2 * j] if 2 * j < len(coeffs) else 0.0 for j in range(spec.n - spec.p)]
    nu = spec.n - spec.p - 1
    gamma = [sum(math.comb(j, k) * g[j] for j in range(k, nu + 1)) for k in range(nu + 1)]
    rebuilt = [
        sum(math.comb(k, j) * (-1) ** (k - j) * gamma[k] for k in range(j, nu + 1))
        for j in range(nu + 1)
    ]
    scale = max(max(abs(v) for v in g), 1e-300)
    worst = max(abs(a - b) for a, b in zip(rebuilt, g))
    if worst > 1e-12 * scale:
        raise IdentityViolationError(f"(x^2-1) expansion round trip off by {worst:.3e}")
    return gamma


def check_stone_lemma(pair: EigenPair) -> IdentityReport:
    """Stone is bounded away from zero and opposes the sign of <z>."""
    spec = pair.spec
    if not spec.has_stones or not spec.symmetric:
        return not_applicable("stone-lemma", (spec.n, spec.p), notes="needs symmetric n > p")
    c = stone(pair)
    mean = _moment(pair, 0)
    # the stone is a difference of pieces the size of z^(2n-2), so that norm
    # is the honest "could it have cancelled to zero" yardstick
    scale = max(math.sqrt(l2_norm_sq(pair.derivatives[2 * spec.n - 2])), 1e-300)
    nonzero = abs(c) > STONE_FLOOR * scale
    mean_negligible = _mean_negligible(pair, mean)
    sign_ok = mean_negligible or c * mean < 0
    return IdentityReport(
        identity_id="stone-lemma",
        index=(spec.n, spec.p, pair.index),
        lhs=c,
        rhs=0.0,
        abs_residual=abs(c),
        rel_residual=abs(c) / scale,
        verdict=PASS if (nonzero and sign_ok) else FAIL,
        notes="" if not mean_negligible else "mean ~0: sign condition vacuous",
        details={"stone": c, "mean": mean, "stone_over_scale": abs(c) / scale},
    )


def check_h_ladder(pair: EigenPair) -> IdentityReport:
    """d^2 h^k must reproduce h^(k-1) coefficient by coefficient."""
    spec = pair.spec
    if not spec.has_stones or not spec.symmetric:
        return not_applicable("h-ladder", (spec.n, spec.p), notes="needs symmetric n > p")
    sp = stone_polynomials(pair)
    worst = 0.0
    for k in range(1, len(sp.polynomials)):
        diff = sp.h(k).differentiate(2) - sp.h(k - 1)
        worst = max(worst, diff.magnitude_bound() / max(sp.h(k - 1).magnitude_bound(), 1e-300))
    return IdentityReport(
        identity_id="h-ladder",
        index=(spec.n, spec.p, pair.index),
        lhs=worst,
        rhs=0.0,
        abs_residual=worst,
        rel_residual=worst,
        verdict=PASS if worst <= 1e-12 else FAIL,
        details={"k_max": len(sp.polynomials) - 1},
    )


def check_gamma_roundtrip(pair: EigenPair) -> IdentityReport:
    spec = pair.spec
    if not spec.has_stones or not spec.symmetric:
        return not_applicable("gamma-roundtrip", (spec.n, spec.p), notes="needs symmetric n > p")
    try:
        gamma = gamma_expansion(pair)
    except IdentityViolationError as exc:
        return IdentityReport(
            identity_id="gamma-roundtrip",
            index=(spec.n, spec.p, pair.index),
            verdict=FAIL,
            notes=str(exc),
        )
    return IdentityReport(
        identity_id="gamma-roundtrip",
        index=(spec.n, spec.p, pair.index),
        verdict=PASS,
        details={"gamma": tuple(gamma)},
    )


def antisym_equals_next_sym(n: int, p: int, count: int, tol: float) -> list[IdentityReport]:
    """Compare the antisymmetric spectrum of order n with the symmetric one of n+1."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    anti = cached_spectrum(n, p, "antisymmetric", count)
    sym = cached_spectrum(n + 1, p, "symmetric", count)
    return [equality_report("parity-shift", (n, p, i), la, ls, tol,
                            notes=f"antisym order {n} vs sym order {n + 1}, index {i}")
            for i, (la, ls) in enumerate(zip(anti, sym))]


# --------------------------------------------------------------------------
# suite runner
# --------------------------------------------------------------------------


def _pairs(n: int, p: int, count: int) -> list[EigenPair]:
    """The first ``count`` symmetric eigenpairs of order n, those the store lacks in one batch."""
    return _stored_pairs(n, p, "symmetric", range(count))


def run_identity_suite(
    n: int,
    p: int,
    count: int = 3,
    m: int | None = None,
    tol: float = DEFAULT_IDENTITY_TOL,
) -> list[IdentityReport]:
    """Every applicable check on the first `count` symmetric eigenpairs.

    Cross-order checks couple (n-1, p) with (n, p); the bilinear and
    Cauchy-Schwarz families couple (n, p) with a partner order m > n, or by
    default (n-1, p) with (n, p).
    """
    if m is not None and m <= n:
        raise ConfigError(f"partner order m={m} must exceed n={n}")
    reports: list[IdentityReport] = []
    pairs = _pairs(n, p, count)

    for pair in pairs:
        reports.append(check_stone_lemma(pair))
        reports.append(check_stone_identity(pair, tol))
        reports.append(check_h_ladder(pair))
        reports.append(check_gamma_roundtrip(pair))
        reports.append(check_root_completeness(pair))
        reports.append(check_xi_derivatives(pair))
        top = n - p - 1
        for k in range(0, max(top, 0) + 1):
            reports.append(check_positivity_family(pair, k, tol))

    if n - 1 >= p:
        for prev in _pairs(n - 1, p, count):
            for pair in pairs:
                reports.append(check_cross_identity(prev, pair, tol))

    if m is not None:
        left = pairs
        right = _pairs(m, p, count)
        lo, hi = n, m
    elif n - 1 >= p:
        left = _pairs(n - 1, p, count)
        right = pairs
        lo, hi = n - 1, n
    else:
        left, right, lo, hi = [], [], 0, 0
    if left and right:
        delta_order = hi - lo
        q = delta_order // 2
        for zl in left:
            for zr in right:
                for k in range(-1 - q, lo - p):
                    reports.append(check_bilinear_family(zl, zr, k, tol))
                for l in range(0, lo - p):
                    for k in range(0, lo - p + q):
                        reports.append(check_cauchy_schwarz(zl, zr, l, k))
    return reports
