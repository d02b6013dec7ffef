"""Exponential-polynomial core: examples and invariants.

The randomized property sweeps are ``rqlab.selftest.property_checks``, which
acceptance criterion 09 runs.
"""

import math

import numpy as np
import pytest

from rqlab import exppoly
from rqlab.exppoly import ExpPoly, SigmaPolynomial, bilinear, hermitian_inner_product
from rqlab.exppoly import inner_product, l2_norm_sq
from rqlab.selftest import hermiticity_error, quadrature_miss

from conftest import (PI, canonical_sum_apply, closed_form_regime, closed_form_regimes, hexed,
                      product_route, quad_integral, random_exppoly, random_real_exppoly, rel_err,
                      stepwise_derivatives)


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

    def test_derivative_table_is_the_chain_of_single_steps(self, rng):
        f = random_exppoly(rng)
        table = f.derivatives(4)
        assert len(table) == 5 and table[0] is f
        for k in range(1, 5):
            assert table[k] == table[k - 1].differentiate() == f.differentiate(k)
        with pytest.raises(ValueError):
            f.derivatives(-1)

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
        sine = ExpPoly.build([(complex(0, PI), (-0.5j,)), (complex(0, -PI), (0.5j,))])
        assert abs(sine.integrate_unit()) < 1e-14

    def test_pure_polynomial_branch(self):
        f = ExpPoly.monomial(4, 3.0) + ExpPoly.monomial(1, 7.0)
        assert f.integrate_unit().real == pytest.approx(3.0 * 2 / 5, rel=1e-15)

    def test_small_frequency_series_branch(self):
        f = ExpPoly.build([(1e-4 + 1e-5j, (1.0, 2.0, 0.5))])
        assert rel_err(abs(f.integrate_unit()), abs(quad_integral(f))) < 1e-12


# one fixed ExpPoly per branch, on which a 1e-8 error in that branch shows
REGIME_CASES = {
    "anchor": ExpPoly.build([(2 + 1j, (1.0,))]),
    "series": ExpPoly.build([(4e-4 + 3e-4j, (1.0, 2.0, 0.5, -1.0))]),
    "upward": ExpPoly.build([(6 + 8j, (1.0, -0.5j, 0.25, 2.0))]),
    "downward": ExpPoly.build([(3 + 4j, (0, 0, 0, 0, 0, 0, 1.0, 0.5j, -2.0))]),
}


def _bits(table) -> list[tuple[str, str]]:
    return [(c.real.hex(), c.imag.hex()) for c in table]


class TestBilinear:
    """The closed-form integral of a product against the product route it replaced."""

    @staticmethod
    def partners(f, g):
        """g, f with every frequency negated (exact zero sums), and f's conjugate."""
        return g, ExpPoly.build([(-mu, c) for mu, c in f.terms]), f.conjugate()

    def test_every_inner_product_matches_the_product_route(self, rng):
        for _ in range(150):
            # polynomial coefficients at nonzero frequencies, up to degree 6
            f = random_exppoly(rng, freq_scale=20.0, max_degree=6, terms=3)
            for g in self.partners(f, random_exppoly(rng, freq_scale=20.0, max_degree=6)):
                scale = f.magnitude_bound() * g.magnitude_bound()
                expected = product_route(f, g)
                assert abs(bilinear(f.terms, g.terms) - expected) <= 1e-14 * scale
                assert abs(inner_product(f, g) - expected) <= 1e-14 * scale
                conjugated = product_route(f, g.conjugate())
                assert abs(hermitian_inner_product(f, g) - conjugated) <= 1e-14 * scale

    def test_nothing_is_multiplied_or_canonicalised(self, rng, monkeypatch):
        f, g = (random_exppoly(rng, freq_scale=5.0, max_degree=4) for _ in range(2))

        def refused(*args):
            raise AssertionError("an integral formed a product or a canonical form")

        monkeypatch.setattr(ExpPoly, "__mul__", refused)
        monkeypatch.setattr(exppoly, "_canonical", refused)
        assert inner_product(f, g) == bilinear(f.terms, g.terms)
        assert l2_norm_sq(f) == hermitian_inner_product(f, f).real > 0

    def test_a_memoised_table_is_the_uncached_one_bit_for_bit(self, rng):
        cases = [0j, 4e-4 + 3e-4j, 2 + 1j, 6 + 8j, 3 + 4j, 40j]
        cases += [complex(*rng.uniform(-30, 30, 2)) for _ in range(20)]
        for s in cases:
            for degree in (0, 3, 12):
                table = exppoly._int_xk_exp(s, degree)
                assert isinstance(table, tuple) and table is exppoly._int_xk_exp(s, degree)
                assert _bits(table) == _bits(exppoly._int_xk_exp.__wrapped__(s, degree))

    def test_tables_of_different_degree_for_one_frequency_are_kept_apart(self):
        s = 3.25 + 4.5j  # past I_3, the downward recurrence, which starts above the degree
        long, short = exppoly._int_xk_exp(s, 12), exppoly._int_xk_exp(s, 6)
        assert len(long) == 13 and len(short) == 7
        assert _bits(short) == _bits(exppoly._int_xk_exp.__wrapped__(s, 6))
        assert _bits(long) == _bits(exppoly._int_xk_exp.__wrapped__(s, 12))


class TestQuadratureOracle:
    @pytest.mark.parametrize("regime", sorted(REGIME_CASES))
    def test_oracle_sees_a_1e_8_error_in_each_closed_form_regime(self, regime, monkeypatch):
        f = REGIME_CASES[regime]
        assert regime in closed_form_regimes(f)
        assert quadrature_miss(f) <= 1e-12
        exact = exppoly._int_xk_exp

        def perturbed(mu, dmax):
            return [value * (1 + 1e-8) if closed_form_regime(mu, k) == regime else value
                    for k, value in enumerate(exact(mu, dmax))]

        monkeypatch.setattr(exppoly, "_int_xk_exp", perturbed)
        assert quadrature_miss(f) > 1e-10

    def test_oracle_refuses_a_frequency_above_its_resolution(self):
        at_limit = ExpPoly.build([(75j, (1.0,))])
        assert abs(quad_integral(at_limit) - at_limit.integrate_unit()) <= 1e-14
        beyond = ExpPoly.build([(1.0, (1.0,)), (60 + 45.1j, (1.0,))])  # |mu| = 75.06
        with pytest.raises(ValueError, match=r"\|mu\| <= 75"):
            quad_integral(beyond)


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
        image = op.apply(z2_closed_form().derivatives(2))
        assert len(image.terms) == 1 and image.terms[0][0] == 0
        assert image.terms[0][1][0].real == pytest.approx(-PI * PI, rel=1e-13)
        # cross-check against plain differentiation: sigma^2 = -d^2
        alt = z2_closed_form().differentiate(2).scaled(-1.0) - z2_closed_form().scaled(PI * PI)
        assert (image - alt).magnitude_bound() < 1e-12

    def test_identity_operator(self, rng):
        f = random_exppoly(rng)
        assert SigmaPolynomial((1.0,)).apply(f.derivatives(0)) == f

    def test_reads_the_table_with_exact_powers_of_i(self, rng, monkeypatch):
        f = random_exppoly(rng)
        table = f.derivatives(5)

        def walk(*args):
            raise AssertionError("apply walked a derivative")

        monkeypatch.setattr(ExpPoly, "derivatives", walk)
        monkeypatch.setattr(ExpPoly, "differentiate", walk)
        for k, factor in enumerate((1, 1j, -1, -1j, 1, 1j)):
            assert SigmaPolynomial.sigma_power(k).apply(table) == table[k].scaled(factor)
        op = SigmaPolynomial((2.0, 0, 0.5j, 0, 0, 3.0))
        expect = table[0].scaled(2.0) + table[2].scaled(-0.5j) + table[5].scaled(3j)
        assert (op.apply(table) - expect).magnitude_bound() <= 1e-12 * expect.magnitude_bound()

    def test_pure_exponential_is_eigenvector(self):
        # sigma = i d has eigenvalue -lam on e^{i lam x}
        lam = 2.7
        op = SigmaPolynomial.from_roots([1.0, -3.0])
        image = op.apply(ExpPoly.build([(1j * lam, (1.0,))]).derivatives(2))
        assert len(image.terms) == 1
        assert image.terms[0][1][0] == pytest.approx((-lam - 1) * (-lam + 3), rel=1e-14)

    def test_from_roots_and_product(self):
        a = SigmaPolynomial.from_roots([2.0])
        b = SigmaPolynomial.from_roots([-2.0])
        assert (a * b).coeffs == pytest.approx((-4.0, 0.0, 1.0))

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            SigmaPolynomial((0j,))


def signed_zero_draw(rng) -> ExpPoly:
    """A ``random_exppoly`` at a log-uniform frequency scale from 5e-4 to 50, degree <= 6.

    Half the draws gain a polynomial part at frequency 0, and half have their
    imaginary parts replaced by +-0.0, so the tables carry signed zeros.
    """
    f = random_exppoly(rng, freq_scale=10 ** rng.uniform(math.log10(5e-4), math.log10(50)),
                       max_degree=6)
    if rng.rand() < 0.5:
        poly = tuple(complex(*rng.uniform(-2, 2, 2)) for _ in range(rng.randint(1, 8)))
        f = f + ExpPoly.build([(0j, poly)])
    if rng.rand() < 0.5:
        f = ExpPoly(tuple((mu, tuple(complex(c.real, rng.choice((0.0, -0.0))) for c in coeffs))
                          for mu, coeffs in f.terms))
    return f


class TestTableOracles:
    """The table and the sigma image, bit for bit, against conftest's stepwise and summed routes."""

    def test_random_draws_match_bit_for_bit(self, rng):
        signed_zeros = 0
        for _ in range(1500):
            f = signed_zero_draw(rng)
            order = rng.randint(0, 13)
            table = f.derivatives(order)
            assert [hexed(d) for d in table] == [hexed(d) for d in stepwise_derivatives(f, order)]
            coeffs = [rng.choice((1.0, -1.0, 0.0, complex(*rng.uniform(-3, 3, 2))))
                      for _ in range(rng.randint(0, order + 1))]
            sigma = SigmaPolynomial((*coeffs, complex(*rng.uniform(-3, 3, 2))))
            image = hexed(sigma.apply(table))
            assert image == hexed(canonical_sum_apply(sigma, table))
            signed_zeros += str(image).count("-0x0.0p+0")
        assert signed_zeros > 0


class TestProperties:
    def test_hermiticity_error_sees_a_surviving_boundary_term(self, rng):
        # negative control of the self-test's prop-hermiticity sweep: unclamped
        # f and g keep the boundary term of the integration by parts at k = 1
        for _ in range(300):
            f = random_real_exppoly(rng, freq_scale=8.0, max_degree=2, terms=2)
            g = random_real_exppoly(rng, freq_scale=8.0, max_degree=2, terms=2)
            assert hermiticity_error(f, g, 1) > 1e-7

    def test_norm_is_nonnegative(self, rng):
        for _ in range(20):
            f = random_exppoly(rng, freq_scale=20, max_degree=4, terms=2)
            assert l2_norm_sq(f) >= 0
