"""Variational oracle: exact assembly, bound property, convergence."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from rqlab.errors import ConfigError, RitzConditioningError
from rqlab.exppoly import ExpPoly, inner_product
from rqlab.problem import ProblemSpec
from rqlab.ritz import MAX_BASIS_SIZE, RitzSystem, assemble, ritz_values
from rqlab.solver import cached_spectrum

from conftest import PI, bisect_root, rel_err

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


def _trial_terms(spec: ProblemSpec, k: int, order: int) -> list[tuple[int, int]]:
    """(power, integer coefficient) terms of the order-th derivative of trial function k."""
    shift = 2 * k + (0 if spec.symmetric else 1)
    powers = [(shift + 2 * j, (-1) ** j * math.comb(spec.n, j)) for j in range(spec.n + 1)]
    return [(e - order, c * math.perm(e, order)) for e, c in powers if e >= order]


def _double_sum_system(spec: ProblemSpec, K: int) -> RitzSystem:
    """Reference assembly with no integration by parts: each Gram entry is the
    double sum ``sum f_a g_b w[a+b]`` over the monomials of both derivatives,
    with ``w[s] = 2Q/(s+1)`` for even s, ``Q = lcm(1, 3, ..., 2*deg+1)``."""
    hi = [_trial_terms(spec, k, spec.n) for k in range(K)]
    lo = [_trial_terms(spec, k, spec.n - spec.p) for k in range(K)]
    degree = max(e for terms in lo for e, _ in terms)  # hi has the lower powers
    denominator = math.lcm(*range(1, 2 * degree + 2, 2))
    weights = [2 * denominator // (s + 1) if s % 2 == 0 else 0 for s in range(2 * degree + 1)]

    def gram(terms):
        g = [[0] * K for _ in range(K)]
        for i in range(K):
            for j in range(i, K):
                total = sum(fa * fb * weights[a + b] for a, fa in terms[i] for b, fb in terms[j])
                g[i][j] = g[j][i] = total
        return tuple(tuple(row) for row in g)

    return RitzSystem(spec, K, gram(hi), gram(lo), denominator)


def _forward(lower, m):
    """L^(-1) m for a unit lower triangular L, in exact rationals."""
    out = []
    for i, row in enumerate(m):
        out.append([v - sum(lower[i][k] * out[k][j] for k in range(i)) for j, v in enumerate(row)])
    return out


def _fraction_reduced_matrix(system):
    """Reference reduction in Fractions: LDL^T of B, then L^(-1) A L^(-T), rounded once."""
    K = system.K
    a, b = ([[Fraction(v, system.denominator) for v in row] for row in m]
            for m in (system.stiffness, system.mass))
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
        system = assemble(ProblemSpec(1, 1, S), 1)
        assert Fraction(system.stiffness[0][0], system.denominator) == Fraction(8, 3)
        assert Fraction(system.mass[0][0], system.denominator) == Fraction(16, 15)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_double_sum_oracle(self, n):
        # every Gram integer and the denominator, for every p and parity
        for p in range(1, n + 1):
            for parity in (S, A):
                for K in (1, 2, 20, 64) if n <= 4 else (1, 2, 20):
                    spec = ProblemSpec(n, p, parity)
                    assert assemble(spec, K) == _double_sum_system(spec, K), (p, parity, K)

    def test_exact_symmetry(self):
        for spec in (ProblemSpec(2, 1, S), ProblemSpec(3, 2, "antisymmetric")):
            system = assemble(spec, 6)
            for i in range(6):
                for j in range(6):
                    assert system.stiffness[i][j] == system.stiffness[j][i]
                    assert system.mass[i][j] == system.mass[j][i]

    @pytest.mark.parametrize("n, p, parity", [(1, 1, S), (2, 1, A), (3, 2, S), (4, 2, A), (6, 6, A)])
    def test_entries_match_exppoly_inner_products(self, n, p, parity):
        # the ExpPoly path sums float monomial integrals, so its rounding is
        # relative to the integral of the coefficient-wise absolute product
        system = assemble(ProblemSpec(n, p, parity), 6)
        for order, exact in ((n, system.stiffness), (n - p, system.mass)):
            d = [_trial_function(system.spec, k).differentiate(order) for k in range(6)]
            for i in range(6):
                for j in range(6):
                    scale = inner_product(_absolute(d[i]), _absolute(d[j])).real
                    got = inner_product(d[i], d[j]).real
                    want = Fraction(exact[i][j], system.denominator)
                    assert abs(got - float(want)) <= 1e-12 * scale

    def test_size_guards(self):
        with pytest.raises(ConfigError):
            assemble(ProblemSpec(1, 1, S), 0)
        with pytest.raises(ConfigError):
            assemble(ProblemSpec(1, 1, S), MAX_BASIS_SIZE + 1)


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
        system = assemble(ProblemSpec(n, p, parity), K)
        reference = np.linalg.eigvalsh(_fraction_reduced_matrix(system))
        assert ritz_values(system, K) == [float(v) for v in reference]

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

    @pytest.mark.parametrize("mass, pivot", [
        pytest.param(((2, 2, 1), (2, 2, 1), (1, 1, 3)), 1, id="row-1-repeats-row-0"),
        pytest.param(((-2, 1, 0), (1, 3, 1), (0, 1, 4)), 0, id="negative-first-diagonal"),
    ])
    def test_exact_pivot_guard(self, mass, pivot):
        identity = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
        system = RitzSystem(ProblemSpec(1, 1, S), 3, identity, mass, 1)
        message = f"^exact mass pivot {pivot} is not positive$"
        with pytest.raises(RitzConditioningError, match=message):
            ritz_values(system, 1)

    def test_count_validation(self):
        system = assemble(ProblemSpec(1, 1, S), 3)
        with pytest.raises(ConfigError):
            ritz_values(system, 4)


class TestVectors:
    def test_trial_functions_are_clamped(self):
        spec = ProblemSpec(3, 1, S)
        for k in range(4):
            fn = _trial_function(spec, k)
            for j in range(spec.n):
                assert abs(fn.differentiate(j).evaluate(1.0)) < 1e-12
                assert abs(fn.differentiate(j).evaluate(-1.0)) < 1e-12
