"""Problem family: root systems, operator, parity bases."""

import math

import numpy as np
import pytest

from rqlab.errors import ConfigError
from rqlab.exppoly import ExpPoly
from rqlab.problem import ProblemSpec, build_operator, root_system
from rqlab.solver import boundary_tables

from conftest import PI, solution_basis


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
    """The (frequency, coefficient) terms of each kernel function of the basis at one Lambda."""
    return tuple(tuple((mu, c) for mu, (c,) in fn.terms)
                 for fn in solution_basis(spec, Lambda)[:spec.p])


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


def oracle_template(p: int, symmetric: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel functions at rho = 1 as padded numpy arrays, built straight from the roots.

    ``freq`` and ``kappa`` have shape ``(p, 4)``, two-term functions padded
    with zero terms; ``depth`` holds each function's ``b``, shape ``(p, 1)``.
    """
    trig = {True: ((-1, 1), (1, 1)), False: ((-1, 1j), (1, -1j))}
    hyp = {True: ((-1, 1), (1, 1)), False: ((-1, -1), (1, 1))}
    columns, depth = [], []
    for root in root_system(p, 1.0).roots[:p // 2 + 1]:
        a, b = root.real, root.imag
        if b == 0.0:
            columns.append([(1j * s * a, k) for s, k in trig[symmetric]])
        elif a == 0.0:
            columns.append([(s * b, k) for s, k in hyp[symmetric]])
        else:
            for even in (True, False):
                columns.append([(t * b + 1j * s * a, 0.5 * k * w)
                                for s, k in trig[even == symmetric] for t, w in hyp[even]])
        depth += [[b]] * (len(columns) - len(depth))
    padded = [col + [(0, 0)] * (4 - len(col)) for col in columns]
    return (np.array([[mu for mu, _ in col] for col in padded], dtype=complex),
            np.array([[k for _, k in col] for col in padded], dtype=complex),
            np.array(depth))


def oracle_tables(spec: ProblemSpec) -> tuple[np.ndarray, ...]:
    """The boundary tables from the padded template: ``kappa freq^j / 2`` over whole arrays."""
    freq, kappa, depth = oracle_template(spec.p, spec.symmetric)
    slots = int(kappa.any(axis=0).sum())  # the trailing slots past it pad every column
    freq, kappa = freq[:, :slots], kappa[:, :slots]
    weights = kappa * freq ** np.arange(spec.n)[:, None, None] / 2
    return (np.stack((weights.real, -weights.imag), axis=-1).reshape(spec.n, spec.p, -1),
            freq - depth)


def signs(array: np.ndarray) -> np.ndarray:
    return np.signbit(array.view(float) if array.dtype == complex else array)


class TestKernelTemplateOracle:
    """The one kernel template against the padded numpy construction, to the last bit."""

    @pytest.mark.parametrize("parity", ["symmetric", "antisymmetric"])
    def test_boundary_tables(self, parity):
        for n in range(1, 13):
            for p in range(1, n + 1):
                spec = ProblemSpec(n, p, parity)
                tables = boundary_tables(spec.p, spec.parity, spec.n)
                for got, want in zip(tables, oracle_tables(spec), strict=True):
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert np.array_equal(got, want), spec.label()
                    assert np.array_equal(signs(got), signs(want)), spec.label()

    @pytest.mark.parametrize("parity", ["symmetric", "antisymmetric"])
    def test_solution_basis_terms(self, parity):
        for p in range(1, 13):
            freq, kappa, depth = oracle_template(p, parity == "symmetric")
            for Lambda in (0.37, 5.0, 42.0, 257.0, 1e4, 3.3e7):
                rho = root_system(p, Lambda).rho
                mu, c = rho * freq, kappa * (0.5 * np.exp(-rho * depth))
                want = tuple(ExpPoly.build((m, (k,)) for m, k in zip(ms, ks) if m or k)
                             for ms, ks in zip(mu.tolist(), c.tolist()))
                got = solution_basis(ProblemSpec(p, p, parity), Lambda)
                assert repr(got) == repr(want), (p, Lambda)
