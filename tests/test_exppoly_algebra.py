"""Property tests of the ExpPoly algebra: calculus, operator products, ring laws.

Each error is measured against ``magnitude_bound`` of the operands, the size
the rounding errors scale with.  The examples are derandomized, so every run
draws the same ones.
"""

import cmath
import math

import pytest

from rqlab.exppoly import ExpPoly, SigmaPolynomial

from conftest import closed_form_regimes

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BOUND = 1e-12  # relative to the operands' magnitude bounds
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)

coefficients = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def exppolys(draw, magnitudes, max_degree: int, max_terms: int = 3) -> ExpPoly:
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        mu = cmath.rect(draw(magnitudes), draw(st.floats(-math.pi, math.pi)))
        terms.append((mu, tuple(draw(st.lists(coefficients, min_size=1, max_size=max_degree + 1)))))
    return ExpPoly.build(terms)


def test_integral_of_a_derivative_is_the_difference_of_end_values():
    # tiny frequencies take the power series; larger ones the recurrence from
    # the anchor I_0, upward for 1 <= k <= floor|mu| - 1 and downward beyond
    magnitudes = st.one_of(st.floats(1e-6, 9e-4), st.floats(0.05, 40.0))
    regimes = set()

    @SETTINGS
    @hypothesis.given(exppolys(magnitudes, max_degree=8))
    def fundamental_theorem(f):
        derivative = f.differentiate()
        lhs = derivative.integrate_unit()
        rhs = f.evaluate(1.0) - f.evaluate(-1.0)
        scale = max(f.magnitude_bound(), derivative.magnitude_bound())
        assert abs(lhs - rhs) <= BOUND * scale
        regimes.update(closed_form_regimes(derivative))

    fundamental_theorem()
    assert regimes == {"series", "anchor", "upward", "downward"}


def test_sigma_polynomial_product_applies_as_composition():
    sigma_polynomials = st.tuples(
        st.lists(coefficients, max_size=3),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
    ).map(lambda parts: SigmaPolynomial((*parts[0], parts[1])))

    @SETTINGS
    @hypothesis.given(sigma_polynomials, sigma_polynomials,
                      exppolys(st.floats(0.0, 5.0), max_degree=3))
    def composition(P, Q, f):
        degree_p, degree_q = len(P.coeffs) - 1, len(Q.coeffs) - 1
        table = f.derivatives(degree_p + degree_q)
        lhs = (P * Q).apply(table)
        rhs = P.apply(Q.apply(table).derivatives(degree_p))
        scale = sum(abs(a) * abs(b) * table[i + j].magnitude_bound()
                    for i, a in enumerate(P.coeffs) for j, b in enumerate(Q.coeffs))
        assert (lhs - rhs).magnitude_bound() <= BOUND * scale

    composition()


def test_product_is_commutative_and_associative():
    operands = exppolys(st.floats(0.0, 10.0), max_degree=3)

    @SETTINGS
    @hypothesis.given(operands, operands, operands)
    def ring_laws(f, g, h):
        bounds = f.magnitude_bound() * g.magnitude_bound()
        assert (f * g - g * f).magnitude_bound() <= BOUND * bounds
        assert ((f * g) * h - f * (g * h)).magnitude_bound() <= BOUND * bounds * h.magnitude_bound()

    ring_laws()
