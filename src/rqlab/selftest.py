"""Built-in smoke battery: closed forms, identity anchors, property sweeps.

These are the one implementation of the checks at the heart of the
acceptance suite, which runs them too, so a deployed copy can vouch for
itself in under a second: closed-form spectra, the two hand-computable
identity anchors, and seeded randomized property sweeps of the
exponential-polynomial core.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .exppoly import ExpPoly, SigmaPolynomial, inner_product, l2_norm_sq
from .problem import ProblemSpec
from .reporting import IdentityReport, bound_report, equality_report
from .solver import cached_eigenpair, cached_spectrum, eigenpair_from_function
from . import invariants

PI = math.pi


def bisect_root(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection oracle; fn(lo) and fn(hi) must straddle zero."""
    flo = fn(lo)
    if flo * fn(hi) > 0:
        raise ValueError("bisection oracle needs a sign change")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def closed_form_spectrum_checks() -> list[IdentityReport]:
    """Scanned spectra against independent closed forms and bisection roots."""
    reports = []

    def compare(name, n, p, parity, expected, tol):
        got = cached_spectrum(n, p, parity, len(expected))
        for i, (g, e) in enumerate(zip(got, expected)):
            reports.append(equality_report(name, (n, p, i), g, e, tol))

    compare("closed-form", 1, 1, "symmetric", [((k + 0.5) * PI) ** 2 for k in range(3)], 1e-9)
    compare("closed-form", 1, 1, "antisymmetric", [(k * PI) ** 2 for k in (1, 2)], 1e-9)
    compare("closed-form", 2, 1, "symmetric", [(k * PI) ** 2 for k in (1, 2)], 1e-9)
    root = bisect_root(lambda t: math.tan(t) - t, PI, 1.5 * PI - 1e-9)
    compare("closed-form", 3, 1, "symmetric", [root**2], 1e-7)
    root = bisect_root(lambda t: math.tan(t) + math.tanh(t), 0.5 * PI + 1e-9, PI)
    compare("closed-form", 2, 2, "symmetric", [root**4], 1e-7)
    return reports


def closed_form_anchor_pairs():
    """The two closed-form eigenpairs used by hand-value anchors."""
    z1 = eigenpair_from_function(
        ProblemSpec(1, 1, "symmetric"), PI * PI / 4, ExpPoly.cosine(PI / 2), index=0
    )
    z2 = eigenpair_from_function(
        ProblemSpec(2, 1, "symmetric"), PI * PI, ExpPoly.constant(1) + ExpPoly.cosine(PI), index=0
    )
    return z1, z2


def identity_anchor_checks() -> list[IdentityReport]:
    """Hand-computed anchor values of the cross-order and positivity checks."""
    z1, z2 = closed_form_anchor_pairs()
    reports = []
    cross = invariants.check_cross_identity(z1, z2)
    for side, value in (("lhs", cross.lhs), ("rhs", cross.rhs)):
        reports.append(equality_report(f"anchor-cross-{side}", (), value, -4 * PI, 1e-10))
    pos = invariants.check_positivity_family(z2, 0)
    for route in ("norm_route", "h_route", "bracket_route"):
        reports.append(
            equality_report(f"anchor-positivity-{route}", (), pos.details[route], 2 * PI**4, 1e-10)
        )
    st = invariants.stone(z2)
    reports.append(equality_report("anchor-stone", (), st, -PI * PI, 1e-10))
    return reports


def random_exppoly(rng: np.random.RandomState, freq_scale: float = 50.0, max_degree: int = 8,
                   terms: int = 3) -> ExpPoly:
    """Random complex exponential-polynomial within the tested envelope."""
    raw = []
    for _ in range(rng.randint(1, terms + 1)):
        mu = complex(rng.uniform(-freq_scale, freq_scale), rng.uniform(-freq_scale, freq_scale))
        degree = rng.randint(0, max_degree + 1)
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(degree + 1)]
        raw.append((mu, tuple(coeffs)))
    return ExpPoly.build(raw)


def random_real_exppoly(rng: np.random.RandomState, **kw) -> ExpPoly:
    f = random_exppoly(rng, **kw)
    return f + f.conjugate()


QUADRATURE_NODES = 100
QUADRATURE_MAX_FREQ = 75.0


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # imported here: numpy.polynomial is on no command's start-up path
    from numpy.polynomial.legendre import leggauss

    return leggauss(QUADRATURE_NODES)


def quadrature_integral(f: ExpPoly) -> complex:
    """Fixed 100-node Gauss-Legendre reference for the closed-form integrator.

    Against ``exppoly._int_xk_exp`` on ``x^d e^(mu x)``, over 13 angles of mu
    in [0, pi], |mu| up to 75 at step 0.5 and degrees 0-8, the rule's error
    is at most 6.4e-15 e^|Re mu|, the rounding of the phase mu x; it stays
    below 1e-14 of that up to |mu| = 140 and fails near 160.  The property
    sweep draws |mu| <= 50 sqrt(2) ~ 71, and a term with |mu| > 75 raises
    ValueError rather than be vouched for.
    """
    from numpy.polynomial.polynomial import polyval

    nodes, weights = _gauss_legendre()
    total = 0j
    for mu, coeffs in f.terms:
        if abs(mu) > QUADRATURE_MAX_FREQ:
            raise ValueError(
                f"quadrature oracle resolves |mu| <= {QUADRATURE_MAX_FREQ:g}, got |mu| = {abs(mu):.6g}"
            )
        total += complex(weights @ (polyval(nodes, coeffs) * np.exp(mu * nodes)))
    return total


def quadrature_miss(f: ExpPoly) -> float:
    """|closed form - quadrature| over the larger value, floored at 1e-10 of f's bound."""
    closed = f.integrate_unit()
    reference = quadrature_integral(f)
    scale = max(abs(closed), abs(reference), 1e-10 * f.magnitude_bound(), 1e-30)
    return abs(closed - reference) / scale


def hermiticity_error(f: ExpPoly, g: ExpPoly, k: int) -> float:
    """|<sigma^k f, g> - <f, sigma^k g>| (Hermitian) over the integrands' magnitude bounds.

    Roundoff is relative to the integrands' terms, up to ~1e8 times the
    Cauchy-Schwarz scale here; it is all that is left when f and g are
    clamped to order k at +-1, which kills every boundary term.
    """
    sigma = SigmaPolynomial.sigma_power(k)
    lhs = sigma.apply(f.derivatives(k)) * g.conjugate()
    rhs = f * sigma.apply(g.derivatives(k)).conjugate()
    scale = max(lhs.magnitude_bound() + rhs.magnitude_bound(), 1e-30)
    return abs(lhs.integrate_unit() - rhs.integrate_unit()) / scale


def property_checks(seed: int = 2024, cases: int = 200) -> list[IdentityReport]:
    """Seeded randomized property sweeps; each report aggregates one family."""
    rng = np.random.RandomState(seed)
    reports = []

    worst = 0.0
    for _ in range(cases):
        f = random_exppoly(rng, freq_scale=30.0, max_degree=5, terms=2)
        g = random_exppoly(rng, freq_scale=30.0, max_degree=5, terms=2)
        al = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        be = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = (f.scaled(al) + g.scaled(be)).integrate_unit()
        rhs = al * f.integrate_unit() + be * g.integrate_unit()
        scale = max(abs(lhs), abs(rhs), abs(f.integrate_unit()), abs(g.integrate_unit()), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    reports.append(bound_report("prop-linearity", (cases,), worst, 1e-12))

    worst = 0.0
    window = ExpPoly.build([(0j, (1 + 0j, 0j, -1 + 0j))])  # 1 - x^2
    for _ in range(cases):
        f = random_real_exppoly(rng, freq_scale=20.0, max_degree=3, terms=2) * window
        g = random_real_exppoly(rng, freq_scale=20.0, max_degree=3, terms=2) * window
        lhs = inner_product(f.differentiate(), g)
        rhs = -inner_product(f, g.differentiate())
        norms = math.sqrt(l2_norm_sq(f.differentiate()) * l2_norm_sq(g))
        scale = max(abs(lhs), abs(rhs), norms, 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    reports.append(bound_report("prop-integration-by-parts", (cases,), worst, 1e-10))

    worst = 0.0
    for trial in range(cases):
        k = 1 + trial % 3
        clamp = window
        for _ in range(k - 1):
            clamp = clamp * window
        f = random_real_exppoly(rng, freq_scale=8.0, max_degree=2, terms=2) * clamp
        g = random_real_exppoly(rng, freq_scale=8.0, max_degree=2, terms=2) * clamp
        worst = max(worst, hermiticity_error(f, g, k))
    reports.append(bound_report("prop-hermiticity", (cases,), worst, 1e-10))

    worst = 0.0
    for _ in range(cases):
        f = random_exppoly(rng, freq_scale=50.0, max_degree=8, terms=2)
        worst = max(worst, quadrature_miss(f))
    reports.append(bound_report("prop-quadrature-agreement", (cases,), worst, 1e-10))

    worst_b = worst_o = 0.0
    for (n, p) in ((2, 1), (3, 2), (4, 2), (5, 2)):
        cached_spectrum(n, p, "symmetric", 2)  # one scan for both pairs
        for pair in (cached_eigenpair(n, p, "symmetric", i) for i in range(2)):
            r = pair.residuals
            worst_b = max(worst_b, r.boundary_residual / max(r.boundary_scale, 1e-300))
            worst_o = max(worst_o, r.operator_residual / max(r.operator_scale, 1e-300))
    reports.append(bound_report("prop-boundary-residual", (), worst_b, 1e-9))
    reports.append(bound_report("prop-operator-residual", (), worst_o, 1e-8))
    return reports


def run_selftest(seed: int = 2024, cases: int = 200) -> list[IdentityReport]:
    reports = []
    reports.extend(closed_form_spectrum_checks())
    reports.extend(identity_anchor_checks())
    reports.extend(property_checks(seed=seed, cases=cases))
    return reports
