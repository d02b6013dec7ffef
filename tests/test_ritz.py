"""Variational oracle: exact assembly, bound property, convergence."""

import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from rqlab.errors import ConfigError, RitzConditioningError
from rqlab.exppoly import ExpPoly, inner_product
from rqlab.problem import ProblemSpec
from rqlab.ritz import MAX_BASIS_SIZE, RitzSystem, _reduced_matrix, assemble, ritz_values
from rqlab.solver import cached_spectrum

from conftest import PI, bisect_root, phi_reduced_matrix, phi_system, rel_err

S, A = "symmetric", "antisymmetric"


def _trial_function(spec: ProblemSpec, k: int) -> ExpPoly:
    """``(1-x^2)^n x^(2k+s)``, s = 0 (symmetric) or 1, as an ExpPoly product."""
    f = ExpPoly.monomial(2 * k + (0 if spec.symmetric else 1))
    for _ in range(spec.n):
        f = f * ExpPoly.build([(0j, (1, 0, -1))])
    return f


def _absolute(f: ExpPoly) -> ExpPoly:
    """The polynomial with the absolute values of f's coefficients."""
    return ExpPoly.build([(0j, tuple(abs(c) for c in f.zero_frequency_coefficients()))])


# exact polynomials as ascending Fraction coefficient lists

def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _derivative(a, order):
    for _ in range(order):
        a = [k * c for k, c in enumerate(a)][1:]
    return a


def _integral(a) -> Fraction:
    return sum((2 * c / (k + 1) for k, c in enumerate(a) if k % 2 == 0), Fraction(0))


@functools.lru_cache(maxsize=None)
def _legendre(l: int) -> tuple:
    """P_l by Bonnet's recurrence ``(l+1) P_(l+1) = (2l+1) x P_l - l P_(l-1)``."""
    if l < 2:
        return (Fraction(1),) if l == 0 else (Fraction(0), Fraction(1))
    x_p = [Fraction(0), *_legendre(l - 1)]
    prev = list(_legendre(l - 2)) + [Fraction(0)] * 2
    return tuple(((2 * l - 1) * a - (l - 1) * b) / l for a, b in zip(x_p, prev))


def _legendre_coefficients(a) -> list[Fraction]:
    """c with ``a = sum c_l P_l``, peeled off from the top degree down."""
    a, out = list(a), [Fraction(0)] * len(a)
    for l in reversed(range(len(a))):
        out[l] = a[l] / _legendre(l)[l]
        for k, c in enumerate(_legendre(l)):
            a[k] -= out[l] * c
    assert not any(a)
    return out


def _divide_one_minus_x2(a):
    """q with ``a = (1 - x^2) q``; a must vanish at +-1."""
    q = []
    for k in range(len(a) - 2):
        q.append(a[k] + (q[k - 2] if k >= 2 else 0))
    assert _mul([Fraction(1), Fraction(0), Fraction(-1)], q) == list(a)
    return q


@functools.lru_cache(maxsize=None)
def _u_basis(n: int, p: int, parity: str, K: int) -> tuple:
    """``u_k = G_k D^j (1-x^2)^m / (2^m m!)`` by exact polynomial algebra, k < K.

    ``G_k`` is the lcm of the denominators of u_k^(n-p)'s Legendre
    coefficients, found by peeling Legendre polynomials off, not by formula.
    """
    s = 0 if parity == S else 1
    out = []
    for k in range(K):
        j = 2 * k + s
        m = n + j
        power = [Fraction(0)] * (2 * m + 1)
        for i in range(m + 1):
            power[2 * i] = Fraction((-1) ** i * math.comb(m, i), 2 ** m * math.factorial(m))
        u = _derivative(power, j)
        scale = math.lcm(*(c.denominator for c in _legendre_coefficients(_derivative(u, n - p))))
        out.append([scale * c for c in u])
    return tuple(out)


def _phi_coefficients(spec: ProblemSpec, u) -> list[Fraction]:
    """C_i with ``u = sum_i C_i phi_i``, read off ``u / (1-x^2)^n``."""
    for _ in range(spec.n):
        u = _divide_one_minus_x2(u)
    s = 0 if spec.symmetric else 1
    assert not any(u[1 - s::2])  # parity s only
    return u[s::2]


SAMPLE = [(n, p, parity) for n in range(1, 5) for p in range(1, n + 1) for parity in (S, A)]


def _forward(lower, m):
    """L^(-1) m for a unit lower triangular L, in exact rationals."""
    out = []
    for i, row in enumerate(m):
        out.append([v - sum(lower[i][k] * out[k][j] for k in range(i)) for j, v in enumerate(row)])
    return out


def _fraction_reduced_matrix(stiffness, mass, denominator):
    """Reference reduction in Fractions: LDL^T of B, then L^(-1) A L^(-T), rounded once."""
    K = len(stiffness)
    a, b = ([[Fraction(v, denominator) for v in row] for row in m] for m in (stiffness, mass))
    lower = [[Fraction(int(i == j)) for j in range(K)] for i in range(K)]
    pivots = []
    for j in range(K):
        pivots.append(b[j][j] - sum(lower[j][k] ** 2 * pivots[k] for k in range(j)))
        for i in range(j + 1, K):
            lower[i][j] = (
                b[i][j] - sum(lower[i][k] * lower[j][k] * pivots[k] for k in range(j))
            ) / pivots[j]
    w = _forward(lower, list(zip(*_forward(lower, a))))  # A and W are symmetric
    inv_sqrt = [1.0 / math.sqrt(float(v)) for v in pivots]
    return np.array([[float(w[i][j]) * inv_sqrt[i] * inv_sqrt[j] for j in range(K)]
                     for i in range(K)])


class TestAssembly:
    def test_1_1_hand_integrals(self):
        # phi_0 = u_0 / T_0, so its Gram entries are u_0's over T_0^2
        system = assemble(ProblemSpec(1, 1, S), 1)
        t = Fraction(*system.leading[0])
        assert Fraction(system.stiffness[0], system.denominator) / t**2 == Fraction(8, 3)
        assert Fraction(system.mass[0][0], system.denominator) / t**2 == Fraction(16, 15)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_double_sum_oracle(self, n):
        # the banded reduction's every float against the dense reduction of
        # the double sum, for every p and parity
        for p in range(1, n + 1):
            for parity in (S, A):
                for K in (1, 2, 20, 64) if n <= 4 else (1, 2, 20):
                    spec = ProblemSpec(n, p, parity)
                    want = phi_reduced_matrix(*phi_system(spec, K)).tobytes()
                    assert _reduced_matrix(assemble(spec, K)).tobytes() == want, (p, parity, K)

    @pytest.mark.parametrize("n, p, parity", [(1, 1, S), (2, 1, A), (3, 2, S), (4, 2, A), (6, 6, A)])
    def test_entries_match_exppoly_inner_products(self, n, p, parity):
        # the ExpPoly path sums float monomial integrals, so its rounding is
        # relative to the integral of the coefficient-wise absolute product
        system = assemble(ProblemSpec(n, p, parity), 6)
        exact = {}
        for k in range(6):
            exact[n, k, k] = system.stiffness[k]
            for l, v in enumerate(system.mass[k], k + 1 - len(system.mass[k])):
                exact[n - p, k, l] = v
        u = [ExpPoly.build([(0j, tuple(float(c) for c in f))]) for f in _u_basis(n, p, parity, 6)]
        for order in (n, n - p):
            d = [f.differentiate(order) for f in u]
            for k in range(6):
                for l in range(k + 1):
                    scale = inner_product(_absolute(d[k]), _absolute(d[l])).real
                    got = inner_product(d[k], d[l]).real
                    want = Fraction(exact.get((order, k, l), 0), system.denominator)
                    assert abs(got - float(want)) <= 1e-12 * scale

    def test_size_guards(self):
        with pytest.raises(ConfigError):
            assemble(ProblemSpec(1, 1, S), 0)
        with pytest.raises(ConfigError):
            assemble(ProblemSpec(1, 1, S), MAX_BASIS_SIZE + 1)


class TestBasis:
    """The assembly against exact Fraction integrals of the u_k polynomials, K = 6."""

    @pytest.mark.parametrize("n, p, parity", SAMPLE)
    def test_stiffness_is_the_diagonal(self, n, p, parity):
        system = assemble(ProblemSpec(n, p, parity), 6)
        d = [_derivative(u, n) for u in _u_basis(n, p, parity, 6)]
        for k in range(6):
            for l in range(k + 1):
                want = Fraction(system.stiffness[k], system.denominator) if k == l else 0
                assert _integral(_mul(d[k], d[l])) == want, (k, l)

    @pytest.mark.parametrize("n, p, parity", SAMPLE)
    def test_mass_band(self, n, p, parity):
        system = assemble(ProblemSpec(n, p, parity), 6)
        d = [_derivative(u, n - p) for u in _u_basis(n, p, parity, 6)]
        for k in range(6):
            assert len(system.mass[k]) == min(k, p) + 1
            for l in range(k + 1):
                got = _integral(_mul(d[k], d[l]))
                if k - l <= p:
                    assert got == Fraction(system.mass[k][l - k - 1], system.denominator), (k, l)
                else:
                    assert got == 0, (k, l)

    @pytest.mark.parametrize("n, p, parity", SAMPLE)
    def test_leading_factors(self, n, p, parity):
        # u_k = sum_(i <= k) C_ki phi_i with C_kk = T_k
        spec = ProblemSpec(n, p, parity)
        system = assemble(spec, 6)
        for k, u in enumerate(_u_basis(n, p, parity, 6)):
            c = _phi_coefficients(spec, u)
            assert len(c) == k + 1 and c[k] == Fraction(*system.leading[k]), k
            assert math.gcd(*system.leading[k]) == 1 and system.leading[k][1] > 0

    @pytest.mark.parametrize("n, p, parity", SAMPLE[::3])
    def test_change_of_basis_from_phi_gram(self, n, p, parity):
        # C A_phi C^T is the stiffness diagonal and C B_phi C^T the mass band
        spec = ProblemSpec(n, p, parity)
        system = assemble(spec, 6)
        a, b, q = phi_system(spec, 6)
        c = [_phi_coefficients(spec, u) for u in _u_basis(n, p, parity, 6)]

        def congruent(g, k, l):
            return sum(x * y * g[i][j] for i, x in enumerate(c[k]) for j, y in enumerate(c[l])) / q

        for k in range(6):
            for l in range(k + 1):
                want = system.stiffness[k] if k == l else 0
                assert congruent(a, k, l) == Fraction(want, system.denominator)
                want = system.mass[k][l - k - 1] if k - l <= p else 0
                assert congruent(b, k, l) == Fraction(want, system.denominator)


class TestValues:
    def test_first_value_k1(self):
        assert ritz_values(assemble(ProblemSpec(1, 1, S), 1), 1)[0] == pytest.approx(2.5)

    # every spectrum column that cli-mix draws (n <= 4, K = 20), plus larger systems
    @pytest.mark.parametrize("K, n, p, parity", sorted(
        {(20, n, p, parity) for n in range(1, 5) for p in range(1, n + 1) for parity in (S, A)}
        | {(K, *spec) for K in (12, 20) for spec in ((2, 1, S), (4, 2, A), (6, 3, S))}
        | {(32, 6, 3, S)}
    ))
    def test_bit_identical_to_fraction_reduction(self, K, n, p, parity):
        spec = ProblemSpec(n, p, parity)
        reference = np.linalg.eigvalsh(_fraction_reduced_matrix(*phi_system(spec, K)))
        assert ritz_values(assemble(spec, K), K) == [float(v) for v in reference]

    def test_2_1_converges_to_pi_squared(self):
        value = ritz_values(assemble(ProblemSpec(2, 1, S), 8), 1)[0]
        assert value - PI * PI <= 1e-8
        assert value >= PI * PI - 1e-12

    def test_2_2_against_bisection_oracle(self):
        root = bisect_root(lambda t: math.tan(t) + math.tanh(t), PI / 2 + 1e-9, PI)
        value = ritz_values(assemble(ProblemSpec(2, 2, S), 12), 1)[0]
        assert rel_err(value, root**4) < 1e-6

    def test_monotone_nonincreasing_in_K(self):
        for spec in (ProblemSpec(1, 1, S), ProblemSpec(3, 1, S)):
            previous = None
            for K in range(2, 21):
                value = ritz_values(assemble(spec, K), 1)[0]
                if previous is not None:
                    assert value <= previous * (1 + 1e-12)
                previous = value

    def test_upper_bound_property_on_grid(self):
        for n in range(1, 7):
            for p in range(1, min(n, 3) + 1):
                spec = ProblemSpec(n, p, S)
                true_value = cached_spectrum(n, p, S, 1)[0]
                ritz = ritz_values(assemble(spec, 12), 1)[0]
                assert ritz >= true_value * (1 - 1e-9)

    @pytest.mark.parametrize("parity", [S, A])
    def test_index_witness(self, parity):
        # the k-th Ritz value bounds the k-th eigenvalue from above, so a root
        # the scan skipped would push every later eigenvalue past its bound.
        # The float eigensolve of the reduced matrix is exact only to about
        # K * eps * its norm (the largest Ritz value): at (4,4,anti) that
        # absolute error reaches 2e-8 of the third value, below the true one.
        K = 20
        for n in range(1, 5):
            for p in range(1, n + 1):
                det = cached_spectrum(n, p, parity, 4)
                ritz = ritz_values(assemble(ProblemSpec(n, p, parity), K), K)
                rounding = K * sys.float_info.epsilon * ritz[-1]
                for k in range(4):
                    assert det[k] <= ritz[k] * (1 + 1e-9) + rounding

    def test_higher_index_agreement_where_converged(self):
        # K=20 has converged well past index 2 for these low-order problems
        for (n, p, count) in [(1, 1, 3), (2, 1, 3), (3, 1, 3), (2, 2, 2)]:
            spec = ProblemSpec(n, p, S)
            det = cached_spectrum(n, p, S, count)
            values = ritz_values(assemble(spec, 20), count)
            for got, want in zip(values, det):
                assert rel_err(got, want) < 1e-6

    # p = 1, so row k of the band holds B[k][k-1..k]
    @pytest.mark.parametrize("mass, pivot", [
        pytest.param(((2,), (2, 2), (1, 3)), 1, id="row-1-repeats-row-0"),
        pytest.param(((-2,), (1, 3), (1, 4)), 0, id="negative-first-diagonal"),
    ])
    def test_exact_pivot_guard(self, mass, pivot):
        system = RitzSystem(ProblemSpec(1, 1, S), 3, (1, 1, 1), mass, ((1, 1),) * 3, 1)
        message = f"^exact mass pivot {pivot} is not positive$"
        with pytest.raises(RitzConditioningError, match=message):
            ritz_values(system, 1)

    def test_count_validation(self):
        system = assemble(ProblemSpec(1, 1, S), 3)
        with pytest.raises(ConfigError):
            ritz_values(system, 4)


BIT_ORDERS = [(1, 1, S), (3, 3, S), (4, 4, A), (6, 3, A), (12, 1, S), (12, 11, A), (12, 12, S)]


class TestBitIdentity:
    """The reduced matrix and Ritz values equal the dense phi_k route's, bit for bit."""

    @pytest.mark.parametrize("n, p, parity, K", [(*order, K) for order in BIT_ORDERS
                                                 for K in (1, 2, 5, 12, 20)] + [(4, 4, A, 64)])
    def test_equals_phi_oracle(self, n, p, parity, K):
        spec = ProblemSpec(n, p, parity)
        oracle = phi_reduced_matrix(*phi_system(spec, K))
        system = assemble(spec, K)
        assert _reduced_matrix(system).tobytes() == oracle.tobytes()
        assert ritz_values(system, K) == [float(v) for v in np.linalg.eigvalsh(oracle)]


class TestVectors:
    def test_trial_functions_are_clamped(self):
        spec = ProblemSpec(3, 1, S)
        for k in range(4):
            fn = _trial_function(spec, k)
            for j in range(spec.n):
                assert abs(fn.differentiate(j).evaluate(1.0)) < 1e-12
                assert abs(fn.differentiate(j).evaluate(-1.0)) < 1e-12
