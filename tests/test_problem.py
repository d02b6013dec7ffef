"""Problem family: root systems, operator, parity bases."""

import math

import numpy as np
import pytest

from rqlab.errors import ConfigError
from rqlab.exppoly import ExpPoly
from rqlab.problem import (
    KERNEL_SLOTS,
    ProblemSpec,
    build_operator,
    kernel_terms,
    root_system,
    solution_basis,
)

from conftest import PI


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ProblemSpec(1, 2, "symmetric")  # p > n
        with pytest.raises(ConfigError):
            ProblemSpec(2, 0, "symmetric")
        with pytest.raises(ConfigError):
            ProblemSpec(2, 1, "weird")

    def test_stone_availability(self):
        assert not ProblemSpec(2, 2, "symmetric").has_stones
        assert ProblemSpec(3, 2, "symmetric").has_stones


def kernel_table(spec: ProblemSpec, Lambda: float) -> tuple:
    """The (frequency, coefficient) terms of each kernel function at one Lambda, unpadded."""
    mu, c = kernel_terms(spec, root_system(spec.p, Lambda).rho)
    assert mu.shape == c.shape == (spec.p, KERNEL_SLOTS)
    return tuple(
        tuple((m, k) for m, k in zip(ms, ks) if m or k) for ms, ks in zip(mu.tolist(), c.tolist())
    )


def column_counts(spec: ProblemSpec, Lambda: float) -> tuple[int, int, int]:
    """(columns, four-term columns, real-frequency pairs) of the kernel table."""
    table = kernel_table(spec, Lambda)
    quads = sum(1 for terms in table if len(terms) == 4)
    real_pairs = sum(1 for terms in table if all(mu.imag == 0 for mu, _ in terms))
    return len(table), quads, real_pairs


def hyperbolic(b: float, odd: bool) -> ExpPoly:
    """cosh(b x) or sinh(b x), scaled by exp(-b)."""
    h = 0.5 * math.exp(-b)
    return ExpPoly.build([(b, (h,)), (-b, (-h if odd else h,))])


class TestRootSystem:
    def test_square_roots(self):
        rs = root_system(1, PI * PI)
        assert rs.roots == (complex(PI), complex(-PI))

    def test_fourth_roots_with_imaginary_pair(self):
        rs = root_system(2, 16.0)
        assert rs.roots == (2, 2j, -2, -2j)
        assert column_counts(ProblemSpec(2, 2), 16.0) == (2, 0, 1)

    def test_sixth_roots_classification(self):
        rs = root_system(3, 1.0)
        expected = [complex(math.cos(PI * j / 3), math.sin(PI * j / 3)) for j in range(6)]
        assert np.allclose(rs.roots, expected)
        assert column_counts(ProblemSpec(3, 3), 1.0) == (3, 2, 0)

    def test_power_and_closure_invariants(self):
        for p in (1, 2, 3, 4, 5):
            for Lam in (0.5, 7.3, 1234.0):
                rs = root_system(p, Lam)
                assert len(rs.roots) == 2 * p
                for r in rs.roots:
                    assert abs(r ** (2 * p) - Lam) <= 1e-12 * Lam
                    assert any(abs(r + s) < 1e-12 * (1 + abs(r)) for s in rs.roots)
                    assert any(abs(r.conjugate() - s) < 1e-12 * (1 + abs(r)) for s in rs.roots)
                positive_real = [r for r in rs.roots if r.imag == 0 and r.real > 0]
                assert positive_real == [rs.rho]

    def test_rejects_bad_lambda(self):
        with pytest.raises(ConfigError):
            root_system(2, -1.0)
        with pytest.raises(ConfigError):
            root_system(2, 0.0)

    def test_high_order_classification_counts(self):
        # one real pair; imaginary pair iff p even; the rest in quadruples
        for p in (4, 5, 6, 7):
            for parity in ("symmetric", "antisymmetric"):
                spec = ProblemSpec(p, p, parity)
                even = 1 if p % 2 == 0 else 0
                assert column_counts(spec, 3.7) == (p, 2 * ((p - 1) // 2), even)
                for terms in kernel_table(spec, 3.7):
                    if len(terms) == 4:  # a first-quadrant root: complex frequencies only
                        assert all(mu.real != 0 and mu.imag != 0 for mu, _ in terms)
            imag = [r for r in root_system(p, 3.7).roots if r.real == 0]
            assert len(imag) == 2 * even

    def test_high_order_basis_annihilation(self):
        for p in (4, 5):
            spec = ProblemSpec(p + 1, p, "symmetric")
            basis = solution_basis(spec, 257.0)
            op = build_operator(spec, 257.0)
            assert len(kernel_table(spec, 257.0)) == p and len(basis) == p + 1
            for fn in basis:
                table = fn.derivatives(2 * spec.n)
                image = op.apply(table)
                scale = table[-1].magnitude_bound()
                assert image.magnitude_bound() <= 1e-9 * max(scale, 1e-300)


class TestOperator:
    def test_lowest_orders(self):
        op = build_operator(ProblemSpec(1, 1, "symmetric"), 2.0)
        assert op.coeffs == (-2.0, 0.0, 1.0)
        op = build_operator(ProblemSpec(2, 1, "symmetric"), 2.0)
        assert op.coeffs == (0.0, 0.0, -2.0, 0.0, 1.0)

    def test_annihilates_closed_form_eigenfunction(self):
        z2 = ExpPoly.constant(1) + ExpPoly.cosine(PI)
        op = build_operator(ProblemSpec(2, 1, "symmetric"), PI * PI)
        assert op.apply(z2.derivatives(4)).magnitude_bound() <= 1e-10 * z2.magnitude_bound()

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ConfigError):
            build_operator(ProblemSpec(2, 1, "symmetric"), 0.0)


class TestSolutionBasis:
    def test_shape_2_1(self):
        spec, rho = ProblemSpec(2, 1, "symmetric"), 5.0**0.5
        assert kernel_table(spec, 5.0) == (((-1j * rho, 0.5), (1j * rho, 0.5)),)  # cos
        basis = solution_basis(spec, 5.0)
        assert basis == (ExpPoly.cosine(rho), ExpPoly.constant(1))

    def test_shape_2_2(self):
        spec, rho = ProblemSpec(2, 2, "symmetric"), 5.0**0.25
        h = 0.5 * math.exp(-rho)
        cos = ((-1j * rho, 0.5), (1j * rho, 0.5))
        cosh = ((complex(-rho), h), (complex(rho), h))
        assert kernel_table(spec, 5.0) == (cos, cosh)
        assert solution_basis(spec, 5.0) == (ExpPoly.cosine(rho), hyperbolic(rho, odd=False))

    def test_shape_3_1(self):
        spec = ProblemSpec(3, 1, "symmetric")
        assert column_counts(spec, 5.0) == (1, 0, 0)
        basis = solution_basis(spec, 5.0)
        assert basis[0] == ExpPoly.cosine(5.0**0.5)
        assert [m.zero_frequency_coefficients() for m in basis[1:]] == [(1,), (0, 0, 1)]

    def test_count_invariant(self):
        for n in range(1, 7):
            for p in range(1, n + 1):
                for parity in ("symmetric", "antisymmetric"):
                    spec = ProblemSpec(n, p, parity)
                    basis = solution_basis(spec, 11.7)
                    assert len(kernel_table(spec, 11.7)) == p
                    assert len(basis) == n
                    assert all(not fn.nonzero_frequency_part().terms for fn in basis[p:])

    def test_quadruple_columns_are_trig_times_hyperbolic(self):
        # sym: cos*cosh, sin*sinh; antisym: sin*cosh, cos*sinh, per first-quadrant root
        for p, parity in [(3, "symmetric"), (3, "antisymmetric"), (5, "symmetric")]:
            spec = ProblemSpec(p, p, parity)
            rs = root_system(p, 42.0)
            basis = solution_basis(spec, 42.0)
            for j in range(1, (p + 1) // 2):
                a, b = rs.roots[j].real, rs.roots[j].imag
                sine = ExpPoly.build([(complex(0, a), (-0.5j,)), (complex(0, -a), (0.5j,))])
                first, second = (ExpPoly.cosine(a), sine)
                if parity == "antisymmetric":
                    first, second = second, first
                assert basis[2 * j - 1] == first * hyperbolic(b, odd=False)
                assert basis[2 * j] == second * hyperbolic(b, odd=True)

    def test_basis_annihilated_on_random_grid(self, rng):
        for _ in range(25):
            n = rng.randint(1, 7)
            p = rng.randint(1, n + 1)
            parity = "symmetric" if rng.randint(2) else "antisymmetric"
            Lam = float(10 ** rng.uniform(-0.5, 3.0))
            spec = ProblemSpec(n, p, parity)
            basis = solution_basis(spec, Lam)
            op = build_operator(spec, Lam)
            for fn in basis:
                table = fn.derivatives(2 * n)
                image = op.apply(table)
                scale = table[2 * n].magnitude_bound() + Lam * table[2 * n - 2 * p].magnitude_bound()
                assert image.magnitude_bound() <= 1e-9 * max(scale, 1e-300)

    def test_parity_sampled(self, rng):
        xs = np.linspace(0.05, 1.0, 20)
        for (n, p, parity) in [(3, 2, "symmetric"), (4, 2, "antisymmetric"), (5, 3, "symmetric")]:
            basis = solution_basis(ProblemSpec(n, p, parity), 42.0)
            sign = 1.0 if parity == "symmetric" else -1.0
            for fn in basis:
                for x in xs:
                    left, right = fn.evaluate(-x), fn.evaluate(x)
                    assert abs(left - sign * right) <= 1e-12 * max(abs(right), 1.0)

    def test_kernel_functions_stay_bounded(self):
        # the baked-in hyperbolic scaling keeps endpoint derivative magnitudes tame
        for (n, p) in [(2, 2), (3, 3), (4, 2), (6, 3)]:
            for Lam in (10.0, 1e4, 1e8):
                spec = ProblemSpec(n, p, "symmetric")
                basis = solution_basis(spec, Lam)
                rho = Lam ** (1.0 / (2 * p))
                for fn in basis[:p]:
                    best = 0.0
                    deriv = fn
                    for j in range(n):
                        best = max(best, abs(deriv.evaluate(1.0)) / max(rho, 1.0) ** j)
                        deriv = deriv.differentiate()
                    assert 0.1 <= best <= 10.0
