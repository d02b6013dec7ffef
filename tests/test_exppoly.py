"""Exponential-polynomial core: examples, invariants, randomized properties."""

import math

import numpy as np
import pytest

from rqlab.exppoly import ExpPoly, SigmaPolynomial, inner_product, l2_norm_sq

from conftest import PI, quad_integral, random_exppoly, random_real_exppoly, rel_err


def z2_closed_form() -> ExpPoly:
    return ExpPoly.constant(1) + ExpPoly.cosine(PI)


class TestCanonicalForm:
    def test_frequencies_distinct_and_sorted(self, rng):
        for _ in range(50):
            f = random_exppoly(rng)
            mus = [mu for mu, _ in f.terms]
            assert mus == sorted(mus, key=lambda m: (m.real, m.imag))
            for i, a in enumerate(mus):
                for b in mus[i + 1 :]:
                    assert abs(a - b) > 1e-12 * (1 + abs(a))

    def test_merge_of_identical_frequencies(self):
        f = ExpPoly.build([(1j, (1.0,)), (1j * (1 + 1e-16), (2.0,))])
        assert len(f.terms) == 1
        assert f.terms[0][1][0] == pytest.approx(3.0)

    def test_no_all_zero_terms(self):
        f = ExpPoly.cosine(PI) - ExpPoly.cosine(PI)
        assert not f.terms
        g = ExpPoly.build([(2j, (0.0, 0.0))])
        assert not g.terms

    def test_tiny_frequency_snaps_to_zero(self):
        f = ExpPoly.build([(1e-14 + 0j, (1.0,))])
        assert f.terms[0][0] == 0

    def test_real_valuedness_flag(self, rng):
        f = random_real_exppoly(rng, freq_scale=3.0, max_degree=3, terms=2)
        xs = np.linspace(-1, 1, 7)
        scale = f.magnitude_bound()
        assert all(abs(f.evaluate(x).imag) <= 1e-12 * scale for x in xs)


class TestDifferentiate:
    def test_second_derivative_of_one_plus_cos(self):
        d2 = z2_closed_form().differentiate(2)
        for x in (-0.7, 0.0, 0.31, 1.0):
            assert d2.evaluate(x).real == pytest.approx(-PI * PI * math.cos(PI * x), abs=1e-12)

    def test_zero_order_is_identity(self, rng):
        f = random_exppoly(rng)
        assert f.differentiate(0) == f

    def test_half_cosine_slope_at_one_matches_finite_differences(self):
        f = ExpPoly.cosine(PI / 2)
        d = f.differentiate(1).evaluate(1.0)
        assert d.real == pytest.approx(-PI / 2, rel=1e-12)
        h = 1e-5
        fd = (f.evaluate(1 + h).real - f.evaluate(1 - h).real) / (2 * h)
        assert abs(d.real - fd) < 1e-8

    def test_product_rule_against_quadrature(self, rng):
        f = random_exppoly(rng, freq_scale=10, max_degree=3, terms=2)
        # d/dx integrates back: int f' = f(1) - f(-1)
        lhs = f.differentiate().integrate_unit()
        rhs = f.evaluate(1.0) - f.evaluate(-1.0)
        assert abs(lhs - rhs) <= 1e-11 * max(f.magnitude_bound(), 1.0)


class TestMultiply:
    def test_one_is_neutral(self, rng):
        f = random_exppoly(rng)
        assert f * ExpPoly.constant(1) == f

    def test_half_cosine_squared(self):
        f = ExpPoly.cosine(PI / 2)
        prod = f * f
        expect = ExpPoly.constant(0.5) + ExpPoly.cosine(PI).scaled(0.5)
        assert (prod - expect).magnitude_bound() < 1e-14

    def test_cross_product_integral(self):
        value = inner_product(ExpPoly.cosine(PI / 2), z2_closed_form())
        assert value.real == pytest.approx(16 / (3 * PI), rel=1e-13)
        assert abs(value.imag) < 1e-14


class TestIntegrateUnit:
    def test_one_plus_cos(self):
        assert z2_closed_form().integrate_unit().real == pytest.approx(2.0, rel=1e-14)

    def test_half_cosine(self):
        assert ExpPoly.cosine(PI / 2).integrate_unit().real == pytest.approx(4 / PI, rel=1e-14)

    def test_odd_function_integrates_to_zero(self):
        assert abs(ExpPoly.sine(PI).integrate_unit()) < 1e-14

    def test_pure_polynomial_branch(self):
        f = ExpPoly.monomial(4, 3.0) + ExpPoly.monomial(1, 7.0)
        assert f.integrate_unit().real == pytest.approx(3.0 * 2 / 5, rel=1e-15)

    def test_small_frequency_series_branch(self):
        f = ExpPoly.exponential(1e-4 + 1e-5j, (1.0, 2.0, 0.5))
        assert rel_err(abs(f.integrate_unit()), abs(quad_integral(f))) < 1e-12


class TestEvaluate:
    def test_clamped_values_of_z2(self):
        z2 = z2_closed_form()
        assert abs(z2.evaluate(1.0)) < 1e-15
        assert abs(z2.differentiate(1).evaluate(1.0)) < 1e-14

    def test_constant(self):
        one = ExpPoly.constant(1)
        for x in (-1.0, 0.2, 1.0):
            assert one.evaluate(x) == 1

    def test_half_cosine_at_center(self):
        assert ExpPoly.cosine(PI / 2).evaluate(0.0).real == pytest.approx(1.0)


class TestSigmaPolynomial:
    def test_annihilates_cos_and_maps_constant(self):
        op = SigmaPolynomial((-PI * PI, 0, 1))  # sigma^2 - pi^2
        image = op.apply(z2_closed_form())
        assert len(image.terms) == 1 and image.terms[0][0] == 0
        assert image.terms[0][1][0].real == pytest.approx(-PI * PI, rel=1e-13)
        # cross-check against plain differentiation: sigma^2 = -d^2
        alt = z2_closed_form().differentiate(2).scaled(-1.0) - z2_closed_form().scaled(PI * PI)
        assert (image - alt).magnitude_bound() < 1e-12

    def test_identity_operator(self, rng):
        f = random_exppoly(rng)
        assert SigmaPolynomial((1.0,)).apply(f) == f

    def test_pure_exponential_is_eigenvector(self):
        # sigma = i d has eigenvalue -lam on e^{i lam x}
        lam = 2.7
        op = SigmaPolynomial.from_roots([1.0, -3.0])
        f = ExpPoly.exponential(1j * lam)
        image = op.apply(f)
        assert len(image.terms) == 1
        assert image.terms[0][1][0] == pytest.approx(op.at(-lam), rel=1e-14)

    def test_from_roots_and_product(self):
        a = SigmaPolynomial.from_roots([2.0])
        b = SigmaPolynomial.from_roots([-2.0])
        assert (a * b).coeffs == pytest.approx((-4.0, 0.0, 1.0))

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            SigmaPolynomial((0j,))


class TestProperties:
    def test_linearity_of_integration(self, rng):
        worst = 0.0
        for _ in range(200):
            f = random_exppoly(rng, freq_scale=30, max_degree=5, terms=2)
            g = random_exppoly(rng, freq_scale=30, max_degree=5, terms=2)
            al = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            be = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = (f.scaled(al) + g.scaled(be)).integrate_unit()
            rhs = al * f.integrate_unit() + be * g.integrate_unit()
            scale = max(abs(lhs), abs(rhs), abs(f.integrate_unit()), abs(g.integrate_unit()), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst < 1e-12

    def test_integration_by_parts(self, rng):
        window = ExpPoly.build([(0j, (1.0, 0.0, -1.0))])  # vanishes at +-1
        worst = 0.0
        for _ in range(200):
            f = random_real_exppoly(rng, freq_scale=20, max_degree=3, terms=2) * window
            g = random_real_exppoly(rng, freq_scale=20, max_degree=3, terms=2) * window
            lhs = inner_product(f.differentiate(), g)
            rhs = -inner_product(f, g.differentiate())
            scale = max(
                abs(lhs), abs(rhs),
                math.sqrt(l2_norm_sq(f.differentiate()) * l2_norm_sq(g)), 1e-30,
            )
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst < 1e-10

    def test_hermiticity_of_sigma_powers(self, rng):
        window = ExpPoly.build([(0j, (1.0, 0.0, -1.0))])
        worst = 0.0
        for trial in range(200):
            k = 1 + trial % 3
            clamp = window
            for _ in range(k - 1):
                clamp = clamp * window
            f = random_real_exppoly(rng, freq_scale=8, max_degree=2, terms=2) * clamp
            g = random_real_exppoly(rng, freq_scale=8, max_degree=2, terms=2) * clamp
            sf, sg = f, g
            for _ in range(k):
                sf = sf.differentiate().scaled(1j)
                sg = sg.differentiate().scaled(1j)
            lhs = inner_product(sf, g.conjugate())
            rhs = inner_product(f, sg.conjugate())
            scale = max(abs(lhs), abs(rhs), math.sqrt(l2_norm_sq(sf) * l2_norm_sq(g)), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst < 1e-10

    def test_integration_agrees_with_quadrature(self, rng):
        worst = 0.0
        for _ in range(200):
            f = random_exppoly(rng, freq_scale=50, max_degree=8, terms=2)
            closed = f.integrate_unit()
            reference = quad_integral(f)
            scale = max(abs(closed), abs(reference), 1e-10 * f.magnitude_bound(), 1e-30)
            worst = max(worst, abs(closed - reference) / scale)
        assert worst < 1e-10

    def test_norm_is_nonnegative(self, rng):
        for _ in range(20):
            f = random_exppoly(rng, freq_scale=20, max_degree=4, terms=2)
            assert l2_norm_sq(f) >= 0
